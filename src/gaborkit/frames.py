"""Frame analysis of Gabor systems over unions of shifted lattices.

:func:`frame_bounds` first rewrites a system over a reducible point set as
a multi-window system over the integer lattice; the frame bounds are then
the extrema of the multi-window Zak objective sum_m |Z g_m|^2 on the
fundamental domain.  The grid stage holds no N x N array: each tile of whole
rows of the objective F (2^14 values while N <= 2^14) is summed from the
windows' Zak tiles and, in one forward pass, each row of F is read once the
row below it exists for the slacks of F and of its square root and the 3 x 3
minima, whose least is the grid minimum (F's global minimum is one); rows
N - 1 and 0 are read last.  Its memory is one F tile, one complex tile per
window, a few work tiles and the Zak sums' O(N) factors; N is at most 2^16.
Candidate grid minima are refined by damped Newton steps on batched Zak values
and exact derivatives (Hermite ladder), to a relative gain of 1e-12; one
batched evaluation then snaps each coordinate to a rational of denominator at
most 8 within 1e-6 where the objective is no larger, and gives the residual.
Verdicts are gated by certified zeros (NotFrame) or a slack margin (LikelyFrame).
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import IrreducibleSet
from .lattices import (coset_split, enumerate_points, iwasawa_factor,
                       point_set, recompose, transform)
from .operators import Chirp, Dilation, FrFT, TFShift, project_isomorphism
from .special import theta3
from .windows import window
from .zak import (_finite_values, _grid_resolution, _surface_tiles, _tile_rows,
                  _zak_jet, on_torus, zak_point)

NOT_FRAME = "NotFrame"
LIKELY_FRAME = "LikelyFrame"
INCONCLUSIVE = "Inconclusive"

# a certified zero must sit at a rational with denominator at most this
_SNAP_DENOM = 8
_SNAP_DIST = 1e-6
_CERTIFIED_RESIDUAL = 1e-10
_SLACK_FACTOR = 10.0
# the finest grid of the zero search (a whole F there would take 34 GB)
_MAX_RESOLUTION = 2 ** 16


@dataclass
class GaborSystem:
    """Windows sharing one time-frequency point set."""

    windows: list
    point_set: object

    def __post_init__(self):
        if not self.windows:
            raise ValueError("a Gabor system needs at least one window")


class Zero(NamedTuple):
    x: float
    omega: float
    residual: float


@dataclass
class FrameReport:
    A_est: float
    B_est: float
    zeros: list
    verdict: str
    resolution: int
    refinement_tol: float


def report_to_json(report):
    """JSON-ready dict for a frame report."""
    return {
        "A_est": float(report.A_est),
        "B_est": float(report.B_est),
        "zeros": [{"x": float(z.x), "omega": float(z.omega),
                   "residual": float(z.residual)} for z in report.zeros],
        "verdict": report.verdict,
        "resolution": int(report.resolution),
        "refinement_tol": float(report.refinement_tol),
    }


def reduce_to_multiwindow(sys):
    """Rewrite a system over a union of lattice cosets as one over Z^2.

    The generator must have determinant 1/m for an integer m >= 1.  The set
    is split into m cosets of a unimodular sublattice, the sublattice is
    factored into rotation * shear * dilation and undone on the windows by
    the inverse operator chain, and each coset shift becomes a per-window
    time-frequency shift.  Raises :class:`IrreducibleSet` otherwise.
    """
    gen = sys.point_set.generator_matrix
    det = float(np.linalg.det(gen))
    if det <= 0:
        raise IrreducibleSet(f"generator determinant {det:.3e} is not positive")
    m = round(1.0 / det)
    if m < 1 or abs(1.0 / det - m) > 1e-9:
        raise IrreducibleSet(
            f"generator covolume {det} is not the reciprocal of an integer")
    shifts = sys.point_set.shift_array
    if m == 1:
        sub = gen
    else:
        sub = gen @ np.diag([float(m), 1.0])
        split = coset_split(sub, gen)
        shifts = (shifts[:, None, :] + split.shift_array[None, :, :]).reshape(-1, 2)
    r, q, a = iwasawa_factor(sub)
    U = recompose(r, q, a, det=float(np.linalg.det(sub)))
    inverse_ops = []
    if abs(a - 1.0) > 1e-14:
        inverse_ops.append(Dilation(1.0 / a))
    if abs(q) > 1e-14:
        inverse_ops.append(Chirp(-q))
    if abs(r) > 1e-14:
        inverse_ops.append(FrFT(-r))
    inverse_ops = tuple(inverse_ops)
    reduced_shifts = np.linalg.solve(U, shifts.T).T
    reduced_shifts -= np.floor(reduced_shifts + 1e-9)
    new_windows = []
    for g in sys.windows:
        for s in reduced_shifts:
            ops = inverse_ops + g.chain
            if abs(s[0]) > 1e-12 or abs(s[1]) > 1e-12:
                ops = (TFShift(float(s[0]), float(s[1])),) + ops
            new_windows.append(window(g.n, ops, g.phase))
    return GaborSystem(windows=new_windows, point_set=point_set(np.eye(2)))


_ZERO_OBJECTIVE = 1e-30
_LAMBDA_START, _LAMBDA_MAX = 1e-3, 1e12
_REFINE_TOL = 1e-12
_MAX_ITERATIONS = 100


def _local_model(windows, pts, trunc):
    """Objective F = sum_m |Z g_m|^2 at each point of pts (n x 2), with half
    its gradient J^T r and half its Hessian J^T J + sum r . hess(r), where r
    stacks (Re Z g_m, Im Z g_m); exact from the Hermite ladder, one _zak_jet call a window."""
    F = grad = hess = 0.0
    for g in windows:
        z, d, dd = _zak_jet(g, pts[:, 0], pts[:, 1], trunc)
        F = F + (z.real ** 2 + z.imag ** 2)
        grad = grad + (d.conj() * z[:, None]).real
        hess = hess + (d.conj()[:, :, None] * d[:, None, :] + z.conj()[:, None, None] * dd).real
    return F, grad, hess


def _damped_step(grad, hess, lam, radius):
    """Newton steps on (hess + shift + lam * scale) d = -grad, the shift
    making each 2 x 2 Hessian positive definite, capped at length radius."""
    a, b, c = hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]
    scale = np.maximum(np.abs(a) + np.abs(c), 1e-300)
    lowest = 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
    mu = np.maximum(0.0, 1e-12 * scale - lowest) + lam * scale
    a, c = a + mu, c + mu
    det = np.maximum(a * c - b * b, 1e-300)
    step = np.stack([b * grad[:, 1] - c * grad[:, 0],
                     b * grad[:, 0] - a * grad[:, 1]], axis=1) / det[:, None]
    length = np.hypot(step[:, 0], step[:, 1])
    return step * np.minimum(1.0, radius / np.maximum(length, 1e-300))[:, None]


def _polish(windows, starts, radius, trunc):
    """Refine all candidate points at once by damped (Levenberg-Marquardt)
    Newton steps on F's exact local model; returns the refined points.

    A trial point is accepted where F is no larger (Ft <= F: from an exact
    minimum, a step returns an equal F); a candidate stops when F < 1e-30
    (so exact zeros are never moved), when an accepted step improves F by at
    most 1e-12 relatively, or when its damping exceeds 1e12.
    """
    pts = np.array(starts, dtype=float)
    F, grad, hess = _local_model(windows, pts, trunc)
    lam = np.full(len(pts), _LAMBDA_START)
    active = F >= _ZERO_OBJECTIVE
    for _ in range(_MAX_ITERATIONS):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        trial = pts[idx] + _damped_step(grad[idx], hess[idx], lam[idx], radius)
        Ft, grad_t, hess_t = _local_model(windows, trial, trunc)
        better = Ft <= F[idx]
        acc, rej = idx[better], idx[~better]
        converged = (Ft[better] < _ZERO_OBJECTIVE) \
            | (F[acc] - Ft[better] <= _REFINE_TOL * F[acc])
        pts[acc], F[acc] = trial[better], Ft[better]
        grad[acc], hess[acc] = grad_t[better], hess_t[better]
        lam[acc] /= 10.0
        lam[rej] *= 10.0
        active[acc[converged]] = False
        active[rej[lam[rej] > _LAMBDA_MAX]] = False
    return pts


def _small_rational(v):
    """The rational with denominator <= 8 within 1e-6 of v, or None (such
    rationals are at least 1/56 apart, so at most one is that close)."""
    for den in range(1, _SNAP_DENOM + 1):
        r = round(v * den) / den
        if abs(r - v) < _SNAP_DIST:
            return r
    return None


def _snap(windows, pts, trunc):
    """Zeros at the points pts (n x 2) taken into [0, 1)^2, each moved to the
    last of (x, r(om)), (r(x), om), (r(x), r(om)) where F is no larger (r(v)
    the small rational near v, or v), with residual sqrt(F) there; one
    batched zak_point call per window evaluates all four points of each."""
    variants = []
    for x, om in pts.tolist():
        x, om = _unit(x), _unit(om)
        rx, rom = _small_rational(x), _small_rational(om)
        rx, rom = x if rx is None else rx, om if rom is None else rom
        variants.append([(x, om), (x, rom), (rx, om), (rx, rom)])
    V = np.array(variants)
    F = sum(np.abs(zak_point(g, V[..., 0], V[..., 1], trunc)) ** 2 for g in windows)
    # values below 1e-300 count as equal, and a tie goes to the later variant
    pick = 3 - np.argmin(np.maximum(F, 1e-300)[:, ::-1], axis=1)
    rows = np.arange(len(V))
    return [Zero(_unit(x), _unit(om), math.sqrt(f)) for (x, om), f
            in zip(V[rows, pick].tolist(), F[rows, pick].tolist())]


def _local_minima_mask(P, m=None, low=None, out=None):
    """Inner nodes of a padded tile P at or below their 3 x 3 neighbourhood;
    m (with P's columns), low and out (inner nodes) are optional work arrays."""
    m = np.minimum(np.minimum(P[:-2], P[1:-1], out=m), P[2:], out=m)
    low = np.minimum(np.minimum(m[:, :-2], m[:, 1:-1], out=low), m[:, 2:], out=low)
    return np.less_equal(P[1:-1, 1:-1], low, out=out)


def _grid_slack(P, d=None):
    """Largest step |F[i] - F[i - 1]| along either axis into an inner node of
    P; d is an optional work array of P's inner nodes."""
    return max(float(np.abs(np.subtract(P[1:-1, 1:-1], before, out=d), out=d).max())
               for before in (P[:-2, 1:-1], P[1:-1, :-2]))


def _unit(v):
    # the representative in [0, 1): v % 1.0 is 1.0 for tiny negative v
    v %= 1.0
    return 0.0 if v == 1.0 else v


def _torus_dist(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _views(*shapes):
    """Float arrays of the given shapes, consecutive views of one new block."""
    sizes = [math.prod(shape) for shape in shapes]
    block = np.empty(sum(sizes))
    return [block[end - size:end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, accumulate(sizes))]


def _grid_candidates(windows, N, trunc):
    """The grid stage of the zero search: extrema and slacks of the objective
    F = sum_m |Z g_m|^2 on the N x N grid, and the candidate nodes.  No N x N
    array is made: F is read in one forward pass over its row tiles, each row
    once the row below it exists, and rows N - 1 and 0 last, above rows 0 and
    1 kept from the start.  A_grid is the least 3 x 3 minimum read, as F's
    global minimum is one."""
    rows = _tile_rows(N)
    # every work array is a view of one block, allocated once per call: once
    # freed, a block this large raises glibc's mmap threshold, so later calls
    # take it from the heap; tiles of about 128 kB allocated one by one were
    # mapped and page-faulted anew on every call
    T, sq, d, low, m, P, carry, head, *zt = _views(
        (rows, N), (rows, N), (rows, N), (rows, N), (rows, N + 2), (rows + 2, N + 2),
        (2, N + 2), (2, N), *[(rows, 2 * N)] * len(windows))
    mask = np.empty((rows, N), bool)
    reads, B_grid, c = [], -math.inf, 0

    def read(i0, F):
        # F's rows i0 .. go into P under the c rows carried from before, with
        # a torus halo column on each side, and P's last two rows are carried
        # on; P's inner rows, F's rows first .., are read: 3 x 3 minima with
        # their values, and the slacks of F and, in place, of sqrt(F)
        nonlocal c
        n, first = c + len(F), i0 - c + 1
        H = P[:n]
        H[:c] = carry[:c]
        H[c:, 1:-1] = F
        H[c:, 0], H[c:, -1] = H[c:, -2], H[c:, 1]
        c = min(n, 2)
        carry[:c] = H[n - c:]
        k = n - 2
        if k > 0:
            at = _local_minima_mask(H, m[:k], low[:k], mask[:k])
            idx, vals = np.flatnonzero(at), H[1:-1, 1:-1][at]
            slack = _grid_slack(H, d[:k])
            reads.append((slack, _grid_slack(np.sqrt(H, out=H), d[:k]),
                          first * N + idx, vals))

    zs = [_surface_tiles(g, N, trunc, z.view(complex)) for g, z in zip(windows, zt)]
    for (i0, z), *rest in zip(*zs):
        # F's row tile, summed in window order
        F = np.abs(z, out=T[:len(z)])
        np.multiply(F, F, out=F)
        for _, z in rest:
            s = np.abs(z, out=sq[:len(z)])
            F += np.multiply(s, s, out=s)
        B_grid = max(B_grid, float(F.max()))
        if i0 < 2:
            head[i0:i0 + len(F)] = F[:2 - i0]
        read(i0, F)
    read(N, head[:1])  # row 0 as row N: reads row N - 1
    read(1, head[1:])  # row 1: reads row 0
    reads.insert(0, reads.pop())  # row-major order
    slacks, amp_slacks, idx, vals = zip(*reads)
    idx, vals = np.concatenate(idx), np.concatenate(vals)
    A_grid, slack, amp_slack = float(vals.min()), max(slacks), max(amp_slacks)
    # candidate nodes: local minima low enough to hide a zero of the
    # amplitude within one grid cell (the global minimum always qualifies)
    threshold = max(3.0 * A_grid, (4.0 * amp_slack) ** 2, 1e-24)
    # the row-major (i, j) of each candidate, as np.argwhere gives them
    cand = np.stack(np.divmod(idx[vals <= threshold], N), axis=1)
    return A_grid, B_grid, slack, amp_slack, cand


def _search_zeros(windows, resolution, trunc, tol):
    N = _grid_resolution(resolution)
    if N > _MAX_RESOLUTION:  # checked here: no allocation of size N fails first
        raise ValueError(f"zero search resolution must be at most {_MAX_RESOLUTION}, got {N}")
    # |Z| alone is read: on the torus, the local model sees no shift phase
    windows = [on_torus(g)[0] for g in windows]
    A_grid, B_grid, slack, amp_slack, cand = _grid_candidates(windows, N, trunc)
    polished = sorted(_snap(windows, _polish(windows, cand / N, 1.2 / N, trunc), trunc),
                      key=lambda z: z.residual)
    A_refined = min([A_grid] + [z.residual ** 2 for z in polished])
    # a polished candidate is a zero if its residual is far below the surface
    # variation scale (shallow minima are not) and none lies within half a cell
    zero_cut = max(tol, 1e-3 * amp_slack)
    zeros = []
    for z in polished:
        if not (z.residual > zero_cut or any(
                max(_torus_dist(z.x, u.x), _torus_dist(z.omega, u.omega)) < 0.5 / N
                for u in zeros)):
            zeros.append(z)
    return A_refined, B_grid, slack, zeros


def frame_bounds(sys, resolution=64, trunc=None):
    """Estimate frame bounds and locate zeros of the multi-window Zak objective.

    The system is first reduced to windows over Z^2 by
    :func:`reduce_to_multiwindow`, which leaves a reduced system as it is.
    The objective sum_m |Z g_m|^2 is evaluated on an N x N grid; grid nodes
    that are candidate zeros are polished together by damped Newton steps
    (Levenberg-Marquardt damping, Hessian J^T J plus the residual curvature,
    exact from the Hermite ladder) until a step gains at most 1e-12
    relatively (the fixed refinement_tol), the objective drops below 1e-30,
    or the damping runs out.  One batched evaluation snaps them to
    small-denominator rationals (denominator at most 8, within 1e-6) where
    the objective is no larger and gives each residual.
    The verdict is NotFrame only with a certified zero (residual <= 1e-10 at
    such a rational point), LikelyFrame only when the grid minimum clears
    ten times the grid-Lipschitz slack, and Inconclusive otherwise.
    """
    A_est, B_grid, slack, zeros = _search_zeros(
        reduce_to_multiwindow(sys).windows, resolution, trunc, tol=_CERTIFIED_RESIDUAL)
    certified = [z for z in zeros
                 if z.residual <= _CERTIFIED_RESIDUAL
                 and None not in (_small_rational(z.x), _small_rational(z.omega))]
    if certified:
        verdict = NOT_FRAME
    elif A_est > _SLACK_FACTOR * slack:
        verdict = LIKELY_FRAME
    else:
        verdict = INCONCLUSIVE
    return FrameReport(A_est=A_est, B_est=B_grid, zeros=zeros, verdict=verdict,
                       resolution=int(resolution), refinement_tol=_REFINE_TOL)


def find_zak_zeros(w, resolution=64, tol=1e-10, trunc=None):
    """Locate the zeros of |Z w|^2 on the fundamental domain.

    Grid local minima below the detection threshold are polished and
    deduplicated within half a grid cell; each zero is reported with the
    achieved residual |Z w| at the refined point.
    """
    if resolution < 32:
        raise ValueError(f"zero search needs resolution >= 32, got {resolution!r}")
    if not math.isfinite(tol):
        raise ValueError(f"zero search needs a finite tol, got {tol!r}")
    if tol < 0:
        raise ValueError(f"zero search needs tol >= 0, got {tol!r}")
    _, _, _, zeros = _search_zeros([w], resolution, trunc, tol)
    return sorted(zeros, key=lambda z: (z.x, z.omega))


def equivalence_transport(sys, chain):
    """Transport a system by a unitary chain and its plane isomorphism.

    The windows gain the chain on the left; the point set maps by the
    projected matrix (time-frequency shifts project to the identity).  The
    transported system has the same frame bounds.
    """
    chain = tuple(chain)
    new_windows = [window(g.n, chain + g.chain, g.phase) for g in sys.windows]
    U = project_isomorphism(chain)
    return GaborSystem(windows=new_windows,
                       point_set=transform(sys.point_set, U))


def theta_zero_certificate(trunc=16):
    """Cross-check the origin zero of Z h_2 against the theta-series identity.

    Computes Z h_2 (0, 0) by the Zak series and -(theta_3(1) + 4 theta_3'(1))
    / 2^(1/4) from the theta series, reporting both values (each should
    vanish), their difference, the companion parity zero at (1/2, 1/2), and
    theta_3(1) itself.
    """
    w2 = window(2)
    zak_origin = zak_point(w2, 0.0, 0.0, trunc)
    tv = theta3(1.0)
    combo = -(tv.value + 4.0 * tv.derivative) / 2.0 ** 0.25
    return {
        "zak_origin": abs(zak_origin),
        "theta_combination": abs(combo),
        "difference": abs(zak_origin - combo),
        "zak_half_half": abs(zak_point(w2, 0.5, 0.5, trunc)),
        "theta3_at_1": tv.value,
    }


def finite_frame_spectrum(sys, lattice_window=6.0, t_extent=8.0, t_step=1.0 / 16,
                          f_extent=2.0):
    """Brute-force spectral bounds from a truncated finite frame matrix.

    Builds the discretized frame operator from the atoms pi(lambda) g_m with
    lambda enumerated on a max-norm window and test functions sampled on
    [-f_extent, f_extent], and returns (smallest, largest) eigenvalue.  An
    independent oracle for the Zak-criterion bounds.  Raises
    :class:`UnboundedWindow` when a window value is not finite.
    """
    tg = np.arange(-t_extent, t_extent, t_step)
    rows = []
    for g in sys.windows:
        for lam in enumerate_points(sys.point_set, lattice_window):
            rows.append(np.exp(2j * np.pi * lam[1] * tg) * _finite_values(g, tg - lam[0]))
    atoms = np.array(rows)
    sub = np.abs(tg) <= f_extent
    A = atoms[:, sub].conj()
    S = t_step * (A.conj().T @ A)
    eigs = np.linalg.eigvalsh(S)
    return float(eigs[0]), float(eigs[-1])
