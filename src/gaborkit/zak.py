"""The Zak transform of windows: point values, grid surfaces, identities.

Z f(x, omega) = sum_k f(k - x) exp(2 pi i omega k), truncated with a
certified Gaussian-envelope tail bound.  Grids cover the half-open
fundamental domain [0, 1)^2 with nodes at i/N, so structural zeros at
small-denominator rationals land exactly on nodes.
"""

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PoissonUnavailable, UnboundedWindow
from .operators import Fourier
from .windows import (Window, closed_form, descriptor, envelope, evaluate,
                      fourier_window, is_real, parity, shifted, window)

_TRUNC_TOL = 1e-14
TRUNC_MIN = 8
TRUNC_MAX = 64


@lru_cache(maxsize=64)
def auto_truncation(w, scale=1.0):
    """Smallest K in [8, 64] whose envelope tail at distance scale*(K-1) is < 1e-14.

    Cached per (window, scale).
    """
    env = envelope(w)
    for K in range(TRUNC_MIN, TRUNC_MAX):
        if env.tail(scale * (K - 1)) < _TRUNC_TOL:
            return K
    return TRUNC_MAX


def _truncation(w, trunc, *scale):
    # trunc, or the certified default; auto_truncation(w) and
    # auto_truncation(w, 1.0) are distinct cache keys, so scale is passed on
    # only when given
    K = int(trunc) if trunc is not None else auto_truncation(w, *scale)
    if K < 1:
        raise ValueError(f"truncation must be at least 1, got {trunc!r}")
    return K


def zak_tail_bound(w, trunc, scale=1.0):
    """Certified bound on the dropped series tail for truncation trunc.

    For interpolated windows the bound includes the interpolation budget.
    """
    env = envelope(w)
    return env.tail(scale * (trunc - 1)) + env.floor


def _finite(vals):
    if not np.isfinite(vals).all():
        raise UnboundedWindow("the window has non-finite values on the Zak sum's points")
    return vals


def zak_point(w, x, omega, trunc=None):
    """Zak transform of a window at (x, omega); broadcasts over arrays.

    The sum runs over 2*trunc + 1 integers centered where the window lives;
    trunc defaults to the envelope-certified choice of
    :func:`auto_truncation`; x and omega must be finite.  Raises
    :class:`UnboundedWindow` when a window value in the sum is not finite.
    """
    x_arr = np.asarray(x, dtype=float)
    om_arr = np.asarray(omega, dtype=float)
    for name, arr in (("x", x_arr), ("omega", om_arr)):
        if not (math.isfinite(arr) if arr.ndim == 0 else np.isfinite(arr).all()):
            raise ValueError(f"zak_point requires a finite {name}, "
                             f"got {float(arr[~np.isfinite(arr)][0])!r}")
    scalar = x_arr.ndim == 0 and om_arr.ndim == 0
    x_b, om_b = np.broadcast_arrays(np.atleast_1d(x_arr), np.atleast_1d(om_arr))
    K = _truncation(w, trunc)
    center = envelope(w).center
    k_lo = math.floor(float(x_b.min()) + center) - K
    k_hi = math.ceil(float(x_b.max()) + center) + K
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    vals = _finite(evaluate(w, ks[None, :] - x_b.ravel()[:, None]))
    phases = np.exp(2j * np.pi * om_b.ravel()[:, None] * ks[None, :])
    out = np.sum(vals * phases, axis=1).reshape(x_b.shape)
    return complex(out[(0,) * out.ndim]) if scalar else out


@dataclass
class ZakSurface:
    """Zak values on the N x N grid (i/N, j/N) over [0, 1)^2.

    values[i, j] = Z w (i/N, j/N).
    """

    values: np.ndarray
    window_desc: Window
    resolution: int
    truncation: int
    tail_bound: float


def zak_surface(w, resolution, trunc=None):
    """Evaluate the Zak transform of a window on the fundamental-domain grid.

    Raises :class:`UnboundedWindow` when a window value in the sum is not finite.
    """
    N = int(resolution)
    if N < 8:
        raise ValueError(f"surface resolution must be at least 8, got {resolution!r}")
    K = _truncation(w, trunc)
    center = envelope(w).center
    k_lo, k_hi = math.floor(center) - K, math.ceil(center) + 1 + K
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    xs = np.arange(N, dtype=float) / N
    vals = _finite(evaluate(w, ks[None, :] - xs[:, None]))  # N x nk
    phases = np.exp(2j * np.pi * np.outer(ks, np.arange(N) / N))  # nk x N
    return ZakSurface(values=vals @ phases, window_desc=w, resolution=N,
                      truncation=K, tail_bound=zak_tail_bound(w, K))


def zak_scaled(a, w, x, omega, trunc=None):
    """Scaled Zak transform sqrt(a) sum_k w(a k - x) exp(2 pi i a k omega).

    Coincides with the ordinary transform at a = 1 and satisfies
    Z_a w (x, omega) = Z (D_{1/a} w)(x/a, a omega).
    """
    if not a > 0:
        raise ValueError(f"scaled Zak transform requires a > 0, got {a!r}")
    a = float(a)
    env = envelope(w)
    K = _truncation(w, trunc, a)
    k0 = round((float(x) + env.center) / a)
    ks = k0 + np.arange(-K, K + 1, dtype=float)
    vals = evaluate(w, a * ks - float(x))
    return complex(math.sqrt(a) * np.sum(vals * np.exp(2j * np.pi * a * float(omega) * ks)))


_DEFAULT_COVARIANCE_SHIFTS = ((0.35, 0.75), (-0.4, 0.2), (1.25, -0.6))


def verify_identities(w, sample_points, shifts=None, poisson="closed", trunc=None):
    """Max absolute defect of the structural Zak identities at sample points.

    Checks quasi-periodicity in both variables, covariance under
    time-frequency shifts of the window, the Fourier/Poisson relation
    Z f (x, omega) = exp(2 pi i x omega) Z f^ (omega, -x), and (when the
    window has definite parity or is real-valued) the parity zeros and
    conjugate symmetry.

    Parameters
    ----------
    w : Window
    sample_points : array_like, shape (n, 2)
    shifts : iterable of (xi, eta), optional
        Window shifts for the covariance check.
    poisson : {"closed", "frft", "skip"}
        "closed" uses the closed-form Fourier transform of the window and
        raises :class:`PoissonUnavailable` if there is none; "frft" falls
        back to a sampled Fourier transform; "skip" omits the check.

    Returns
    -------
    dict mapping identity name to max absolute defect.
    """
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    xs, oms = pts[:, 0], pts[:, 1]
    base = zak_point(w, xs, oms, trunc)
    report = {}
    # index shift k -> k+1 in the defining series gives the phase
    # exp(+2 pi i omega) for the unit step in x
    plus_x = zak_point(w, xs + 1.0, oms, trunc)
    report["quasi_periodicity_x"] = float(
        np.max(np.abs(plus_x - np.exp(2j * np.pi * oms) * base)))
    plus_om = zak_point(w, xs, oms + 1.0, trunc)
    report["quasi_periodicity_omega"] = float(np.max(np.abs(plus_om - base)))

    worst = 0.0
    for xi, eta in (shifts if shifts is not None else _DEFAULT_COVARIANCE_SHIFTS):
        lhs = zak_point(shifted(w, xi, eta), xs, oms, trunc)
        rhs = np.exp(-2j * np.pi * xs * eta) * zak_point(w, xs + xi, oms + eta, trunc)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report["shift_covariance"] = worst

    if poisson != "skip":
        fw = fourier_window(w)
        if fw is None:
            if poisson == "closed":
                raise PoissonUnavailable(
                    "window has no closed-form Fourier transform; "
                    "pass poisson='frft' or poisson='skip'")
            fw = window(w.n, (Fourier(),) + w.chain, w.phase)
        # Poisson summation applied to the defining series:
        # Z f (x, omega) = exp(2 pi i x omega) Z f^ (omega, -x)
        rhs = np.exp(2j * np.pi * xs * oms) * zak_point(fw, oms, -xs, trunc)
        report["poisson"] = float(np.max(np.abs(base - rhs)))

    par = parity(w)
    if par is not None:
        zero_pts = [(0.5, 0.5)] if par == 1 else [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0)]
        zp = np.array(zero_pts)
        report["parity_zeros"] = float(
            np.max(np.abs(zak_point(w, zp[:, 0], zp[:, 1], trunc))))
    if is_real(w):
        conj_defect = zak_point(w, xs, -oms, trunc) - np.conj(base)
        report["conjugate_symmetry"] = float(np.max(np.abs(conj_defect)))
    return report


def _csv_rows(values, lead):
    """CSV lines `<lead>re,im,abs` of a complex 1-D array, every float as its
    shortest round-trip ``repr`` and abs as hypot(re, im)."""
    re_, im_ = values.real, values.imag
    return "".join(map("{}{!r},{!r},{!r}\n".format, lead, re_.tolist(),
                       im_.tolist(), np.hypot(re_, im_).tolist()))


def write_surface_csv(surface, csv_path, meta_path=None):
    """Write a surface as CSV rows x,omega,re,im,abs plus a JSON sidecar."""
    N = surface.resolution
    grid = [f"{g!r}," for g in (np.arange(N) / N).tolist()]
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,omega,re,im,abs\n")
        # one write per grid row: memory holds one row of text at a time
        for x, row in zip(grid, surface.values):
            fh.write(_csv_rows(row, [x + omega for omega in grid]))
    if meta_path is not None:
        meta = {
            "window": descriptor(surface.window_desc),
            "resolution": surface.resolution,
            "truncation": surface.truncation,
            "tail_bound": float(surface.tail_bound),
            "interpolated": not closed_form(surface.window_desc),
        }
        with open(meta_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
