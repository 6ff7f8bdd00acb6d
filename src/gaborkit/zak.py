"""The Zak transform of windows: point values, grid surfaces, identities.

Z f(x, omega) = sum_k f(k - x) exp(2 pi i omega k), truncated with a
certified Gaussian-envelope tail bound.  Every window is summed from its
closed form (:func:`gaborkit.windows.evaluate`), so the bound is the
envelope's tail alone.  Grids cover the half-open fundamental domain
[0, 1)^2 with nodes at i/N, so structural zeros at small-denominator
rationals land exactly on nodes.
"""

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnboundedWindow
from .operators import Fourier
from .windows import (Window, descriptor, envelope, evaluate, is_real, parity,
                      shifted, window)

_TRUNC_TOL = 1e-14
TRUNC_MIN = 8
TRUNC_MAX = 64


@lru_cache(maxsize=64)
def auto_truncation(w, scale=1.0):
    """Smallest K in [8, 64] whose envelope tail at distance scale*(K-1) is < 1e-14.

    Raises :class:`UnboundedWindow`, naming the tail that K = 64 reaches,
    when there is none; an explicit truncation is then the way to sum the
    series.  Cached per (window, scale).
    """
    env = envelope(w)
    for K in range(TRUNC_MIN, TRUNC_MAX + 1):
        tail = env.tail(scale * (K - 1))
        if tail < _TRUNC_TOL:
            return K
    raise UnboundedWindow(
        f"no truncation up to {TRUNC_MAX} certifies the Zak sum: the envelope "
        f"tail there is {tail:.3g}, not below {_TRUNC_TOL:g}; give an explicit truncation")


def _truncation(w, trunc, *scale):
    # trunc, or the certified default; auto_truncation(w) and
    # auto_truncation(w, 1.0) are distinct cache keys, so scale is passed on
    # only when given
    K = int(trunc) if trunc is not None else auto_truncation(w, *scale)
    if K < 1:
        raise ValueError(f"truncation must be at least 1, got {trunc!r}")
    return K


def zak_tail_bound(w, trunc, scale=1.0):
    """Certified bound on the dropped series tail for truncation trunc."""
    return envelope(w).tail(scale * (trunc - 1))


def _finite_values(w, t):
    # window values at t, which must all be finite; the check reports what
    # over- or underflowed on the way, so numpy's warnings are silenced
    with np.errstate(all="ignore"):
        vals = evaluate(w, t)
    if not np.isfinite(vals).all():
        raise UnboundedWindow("the window has non-finite values on the Zak sum's points")
    return vals


def _indices(k_lo, k_hi):
    # the sum's integers as floats; from 2**52 on, floats are at least 1 apart
    if max(-k_lo, k_hi) >= 2 ** 52:
        raise UnboundedWindow("the Zak sum reaches |k| >= 2**52, where floats skip k - x")
    return np.arange(k_lo, k_hi + 1, dtype=float)


def _finite_arrays(func, **args):
    # the arguments as float arrays, which must be finite
    arrays = []
    for name, value in args.items():
        arr = np.asarray(value, dtype=float)
        if not (math.isfinite(arr) if arr.ndim == 0 else np.isfinite(arr).all()):
            raise ValueError(f"{func} requires a finite {name}, "
                             f"got {float(arr[~np.isfinite(arr)][0])!r}")
        arrays.append(arr)
    return arrays


def zak_point(w, x, omega, trunc=None):
    """Zak transform of a window at (x, omega); broadcasts over arrays.

    The sum runs over 2*trunc + 1 integers centered where the window lives;
    trunc defaults to the envelope-certified choice of :func:`auto_truncation`;
    x and omega must be finite.  Raises :class:`UnboundedWindow` when a window
    value in the sum is not finite or the sum reaches |k| >= 2**52.
    """
    x_arr, om_arr = _finite_arrays("zak_point", x=x, omega=omega)
    scalar = x_arr.ndim == 0 and om_arr.ndim == 0
    x_b, om_b = np.broadcast_arrays(np.atleast_1d(x_arr), np.atleast_1d(om_arr))
    K = _truncation(w, trunc)
    center = envelope(w).center
    ks = _indices(math.floor(float(x_b.min()) + center) - K,
                  math.ceil(float(x_b.max()) + center) + K)
    vals = _finite_values(w, ks[None, :] - x_b.ravel()[:, None])
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


def _tile_rows(N):
    # whole rows, 2**14 values a tile while N <= 2**14; N <= 128 is one tile
    return max(1, 2 ** 14 // N)


def _surface_tiles(w, N, trunc, out=None):
    """Z w on the N x N grid in tiles of whole rows, made a tile per step:
    yields (i0, tile) with tile[r, j] = Z w ((i0 + r) / N, j / N), written into
    the rows of out when given.  The window is evaluated on about 2**11 points at once."""
    if N < 8:
        raise ValueError(f"surface resolution must be at least 8, got {N!r}")
    K, center = _truncation(w, trunc), envelope(w).center
    ks = _indices(math.floor(center) - K, math.ceil(center) + 1 + K)
    xs = np.arange(N, dtype=float) / N
    phases = np.exp(2j * np.pi * np.outer(ks, np.arange(N) / N))  # nk x N
    rows = _tile_rows(N)
    block = rows * max(1, 2 ** 11 // (rows * len(ks)))
    for b0 in range(0, N, block):
        vals = _finite_values(w, ks[None, :] - xs[b0:b0 + block, None])
        for i0 in range(b0, b0 + len(vals), rows):
            tile_out = None if out is None else out[i0:i0 + rows]
            yield i0, np.matmul(vals[i0 - b0:i0 - b0 + rows], phases, out=tile_out)


def zak_surface(w, resolution, trunc=None):
    """Evaluate the Zak transform of a window on the fundamental-domain grid;
    raises :class:`UnboundedWindow` where :func:`zak_point` does."""
    N, K = int(resolution), _truncation(w, trunc)
    values = np.empty((N, N) if N >= 8 else (0, 0), complex)  # a grid too large fails here
    for _ in _surface_tiles(w, N, K, values):
        pass
    return ZakSurface(values=values, window_desc=w, resolution=N,
                      truncation=K, tail_bound=zak_tail_bound(w, K))


def zak_scaled(a, w, x, omega, trunc=None):
    """Scaled Zak transform sqrt(a) sum_k w(a k - x) exp(2 pi i a k omega).

    Coincides with the ordinary transform at a = 1 and satisfies
    Z_a w (x, omega) = Z (D_{1/a} w)(x/a, a omega).  a must be finite and
    positive, x and omega finite scalars; raises :class:`UnboundedWindow`
    where :func:`zak_point` does.
    """
    if not (a > 0 and math.isfinite(a)):
        raise ValueError(f"scaled Zak transform requires a finite a > 0, got {a!r}")
    a = float(a)
    x, omega = map(float, _finite_arrays("zak_scaled", x=x, omega=omega))
    K = _truncation(w, trunc, a)
    k0 = round((x + envelope(w).center) / a)
    ks = _indices(k0 - K, k0 + K)
    vals = _finite_values(w, a * ks - x)
    return complex(math.sqrt(a) * np.sum(vals * np.exp(2j * np.pi * a * omega * ks)))


_DEFAULT_COVARIANCE_SHIFTS = ((0.35, 0.75), (-0.4, 0.2), (1.25, -0.6))


def verify_identities(w, sample_points, shifts=None, poisson=True, trunc=None):
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
    poisson : bool
        Check the Poisson relation (False skips it).  The Fourier transform
        of every window is the window behind a Fourier link, in closed form
        through its normal form.

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

    if poisson:
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
    """Write a surface as CSV rows x,omega,re,im,abs plus a JSON sidecar.

    The sidecar holds the keys ``window`` (:func:`descriptor`),
    ``resolution``, ``truncation`` and ``tail_bound`` (the certified bound on
    the dropped series tail).
    """
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
        }
        with open(meta_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
