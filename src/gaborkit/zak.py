"""The Zak transform of windows: point values, grid surfaces, identities.

Z f(x, omega) = sum_k f(k - x) exp(2 pi i omega k), truncated with a
certified Gaussian-envelope tail bound.  Every window is summed from its
closed form (:func:`gaborkit.windows.evaluate`), so the bound is the
envelope's tail alone, and with the whole parts of its shift taken off
(:func:`on_torus`), so the sum stays near k = 0 however far the window is
shifted.  Grids cover the half-open fundamental domain
[0, 1)^2 with nodes at i/N, so structural zeros at small-denominator
rationals land exactly on nodes.
"""

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnboundedWindow
from .operators import Chirp, Dilation, Fourier, TFShift
from .windows import (Window, derivatives, descriptor, envelope, evaluate,
                      is_real, normal_form, parity, shifted, window)

_TRUNC_TOL = 1e-14
TRUNC_MIN = 8
TRUNC_MAX = 64


@lru_cache(maxsize=64)
def auto_truncation(w):
    """Smallest K in [8, 64] whose envelope tail at distance K-1 is < 1e-14.

    Raises :class:`UnboundedWindow`, naming the tail that K = 64 reaches,
    when there is none; an explicit truncation is then the way to sum the
    series.  Cached per window.
    """
    env = envelope(w)
    for K in range(TRUNC_MIN, TRUNC_MAX + 1):
        tail = env.tail(K - 1)
        if tail < _TRUNC_TOL:
            return K
    raise UnboundedWindow(
        f"no truncation up to {TRUNC_MAX} certifies the Zak sum: the envelope "
        f"tail there is {tail:.3g}, not below {_TRUNC_TOL:g}; give an explicit truncation")


def _truncation(w, trunc):
    # trunc, or the certified default
    K = int(trunc) if trunc is not None else auto_truncation(w)
    if K < 1:
        raise ValueError(f"truncation must be at least 1, got {trunc!r}")
    return K


def zak_tail_bound(w, trunc):
    """Certified bound on the dropped series tail for truncation trunc."""
    return envelope(w).tail(trunc - 1)


def _finite_values(w, t, values=None):
    # evaluate(w, t), or values(w, t), which must all be finite; the check reports
    # what over- or underflowed on the way, so numpy's warnings are silenced
    with np.errstate(all="ignore"):
        vals = (values or evaluate)(w, t)
    if not np.isfinite(vals).all():
        raise UnboundedWindow("the window has non-finite values on the Zak sum's points")
    return vals


def _indices(k_lo, k_hi):
    # the sum's integers as floats; from 2**52 on, floats are at least 1 apart,
    # which an evaluation point that far away reaches
    if max(-k_lo, k_hi) >= 2 ** 52:
        raise UnboundedWindow("the Zak sum reaches |k| >= 2**52, where floats skip k - x")
    return np.arange(k_lo, k_hi + 1, dtype=float)


def _turns(t, k):
    """t k mod 1 for each float of t and an integer k, exact until the last
    rounding: t is the ratio p / q of integers."""
    return np.array([p * k % q / q for p, q in map(
        float.as_integer_ratio, np.ravel(t).tolist())]).reshape(np.shape(t))


def on_torus(w):
    """(w', m, l, s) with Z w (u, eta) = exp(2 pi i (s + eta m - u l)) Z w' (u, eta).

    w' is the :func:`normal_form` of w with x and omega reduced by fmod(., 1),
    which is exact, m and l are the integers taken off, and
    s = m fmod(omega, 1) mod 1; (w, 0, 0, 0.0) when |x| and |omega| are below 1.
    """
    c, x, omega, q, a = normal_form(w)
    if abs(x) < 1.0 and abs(omega) < 1.0:
        return w, 0, 0, 0.0
    x1, omega1 = math.fmod(x, 1.0), math.fmod(omega, 1.0)
    m, l = int(x - x1), int(omega - omega1)
    return (window(w.n, (TFShift(x1, omega1), Chirp(q), Dilation(a)), c),
            m, l, float(_turns(omega1, m)))


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


def _sum_terms(w, x, omega, K, values=None):
    # k and the terms values(w, k - x) exp(2 pi i omega k) of the Zak sum at (x, omega) (1-D) on
    # the torus, values (evaluate by default) checked finite; phases named to keep operand order
    center = envelope(w).center
    ks = _indices(math.floor(float(x.min()) + center) - K, math.ceil(float(x.max()) + center) + K)
    phases = np.exp(2j * np.pi * omega[:, None] * ks[None, :])
    return ks, _finite_values(w, ks[None, :] - x[:, None], values) * phases


def zak_point(w, x, omega, trunc=None):
    """Zak transform of a window at (x, omega); broadcasts over arrays.

    The sum runs over 2*trunc + 1 integers centered where the window lives
    once the whole parts of its shift are taken off (:func:`on_torus`);
    trunc defaults to the envelope-certified choice of :func:`auto_truncation`;
    x and omega must be finite.  Raises :class:`UnboundedWindow` when a window
    value in the sum is not finite or |x| reaches 2**52.
    """
    x_arr, om_arr = _finite_arrays("zak_point", x=x, omega=omega)
    scalar = x_arr.ndim == 0 and om_arr.ndim == 0
    x_b, om_b = np.broadcast_arrays(np.atleast_1d(x_arr), np.atleast_1d(om_arr))
    K = _truncation(w, trunc)
    w, m, l, s = on_torus(w)
    _, terms = _sum_terms(w, x_b.ravel(), om_b.ravel(), K)
    out = np.sum(terms, axis=1).reshape(x_b.shape)
    if m or l:
        out *= np.exp(2j * np.pi * (s + _turns(om_b, m) - _turns(x_b, l)))
    return complex(out[(0,) * out.ndim]) if scalar else out


def _zak_jet(w, x, omega, trunc):
    """Z w, its gradient (n x 2) and Hessian (n x 2 x 2) at the points (x, omega) (1-D) of a
    window on the torus, exact: Z_x = -sum g'(k - x) e_k, Z_omega = sum 2 pi i k g(k - x) e_k,
    all from one checked :func:`derivatives` stack (g, g', g''); Z has zak_point's bits."""
    ks, (ge, d1e, d2e) = _sum_terms(w, x, omega, _truncation(w, trunc), derivatives)
    ik = 2j * np.pi * ks
    z, zx, zo, zxx, zxo, zoo = (v.sum(axis=1) for v in (
        ge, -d1e, ik * ge, d2e, -ik * d1e, ik * ik * ge))
    return z, np.stack([zx, zo], axis=1), np.stack([zxx, zxo, zxo, zoo], axis=1).reshape(-1, 2, 2)


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
    return min(N, max(1, 2 ** 14 // N))


def _grid_resolution(resolution):
    """The resolution N of an N x N grid, checked before anything of size N
    is allocated."""
    N = int(resolution)
    if N < 8:
        raise ValueError(f"surface resolution must be at least 8, got {N!r}")
    return N


def _surface_tiles(w, N, trunc, out=None):
    """Z w on the N x N grid in tiles of whole rows, made a tile per step:
    yields (i0, tile) with tile[r, j] = Z w ((i0 + r) / N, j / N), written when
    given into out's rows i0 mod len(out) on: out holds all N rows, or one
    tile's, reused by every tile.  The window is evaluated on about 2**11
    points at once."""
    K = _truncation(w, trunc)
    w, m, l, s = on_torus(w)
    center = envelope(w).center
    ks = _indices(math.floor(center) - K, math.ceil(center) + 1 + K)
    xs = np.arange(N, dtype=float) / N
    phases = np.exp(2j * np.pi * np.outer(ks, np.arange(N) / N))  # nk x N
    if m or l:
        # the factor of on_torus, in whole N-ths: eta m by column, s - u l by row
        phases *= np.exp(2j * np.pi * (np.arange(N) * (m % N) % N / N))
        row_factors = np.exp(2j * np.pi * (s - np.arange(N) * (l % N) % N / N))[:, None]
    rows = _tile_rows(N)
    block = rows * max(1, 2 ** 11 // (rows * len(ks)))
    for b0 in range(0, N, block):
        vals = _finite_values(w, ks[None, :] - xs[b0:b0 + block, None])
        if m or l:
            vals *= row_factors[b0:b0 + block]
        for i0 in range(b0, b0 + len(vals), rows):
            v = vals[i0 - b0:i0 - b0 + rows]
            tile_out = None if out is None else out[i0 % len(out):][:len(v)]
            yield i0, np.matmul(v, phases, out=tile_out)


def zak_surface(w, resolution, trunc=None):
    """Zak transform of a window on the fundamental-domain grid; raises
    :class:`UnboundedWindow` where :func:`zak_point` does or its tail bound is infinite."""
    N, K = _grid_resolution(resolution), _truncation(w, trunc)
    tail = zak_tail_bound(w, K)
    if not math.isfinite(tail):
        raise UnboundedWindow(f"the envelope tail of truncation {K} is not finite")
    values = np.empty((N, N), complex)  # a grid too large fails here
    for _ in _surface_tiles(w, N, K, values):
        pass
    return ZakSurface(values=values, window_desc=w, resolution=N,
                      truncation=K, tail_bound=tail)


def zak_scaled(a, w, x, omega, trunc=None):
    """Scaled Zak transform sqrt(a) sum_k w(a k - x) exp(2 pi i a k omega),
    summed as Z (D_{1/a} w)(x/a, a omega) by :func:`zak_point`.

    a must be finite and positive, x and omega finite scalars; raises
    :class:`UnboundedWindow` where :func:`zak_point` does.
    """
    if not (a > 0 and math.isfinite(a)):
        raise ValueError(f"scaled Zak transform requires a finite a > 0, got {a!r}")
    x, omega = map(float, _finite_arrays("zak_scaled", x=x, omega=omega))
    dilated = window(w.n, (Dilation(1.0 / a),) + w.chain, w.phase)
    return zak_point(dilated, x / a, a * omega, trunc)


_DEFAULT_COVARIANCE_SHIFTS = ((0.35, 0.75), (-0.4, 0.2), (1.25, -0.6))


def verify_identities(w, sample_points, shifts=None, trunc=None):
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

    # the Poisson relation, f^ the window behind a Fourier link
    fw = window(w.n, (Fourier(),) + w.chain, w.phase)
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
        _write_json({
            "window": descriptor(surface.window_desc),
            "resolution": surface.resolution,
            "truncation": surface.truncation,
            "tail_bound": float(surface.tail_bound),
        }, meta_path)


def _write_json(payload, path=None):
    """Strict JSON (ValueError on NaN or Infinity) to a path or stdout, made whole first."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
