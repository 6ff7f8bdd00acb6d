"""Time-frequency point sets: unions of shifted copies of a 2D lattice.

A :class:`PointSet` is a generator matrix together with a finite list of
coset shifts.  Shifts are canonicalized to the fundamental domain of the
generator and ordered lexicographically, so value equality of point sets is
meaningful.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotASublattice, NotUnimodular, SingularMatrix

_MEMBER_TOL = 1e-9


def rotation(r):
    """Clockwise-convention rotation matrix [[cos r, sin r], [-sin r, cos r]]."""
    c, s = math.cos(r), math.sin(r)
    return np.array([[c, s], [-s, c]])


def shear(q):
    """Lower-triangular unit shear [[1, 0], [q, 1]]."""
    return np.array([[1.0, 0.0], [float(q), 1.0]])


def dilation_matrix(a, det=1.0):
    """Diagonal factor diag(a, det/a); det = 1 gives the unimodular dilation."""
    return np.array([[float(a), 0.0], [0.0, float(det) / float(a)]])


@dataclass(frozen=True)
class PointSet:
    """Generator matrix with canonical coset shifts (use :func:`point_set`)."""

    generator: tuple
    shifts: tuple

    @property
    def generator_matrix(self):
        return np.array(self.generator, dtype=float)

    @property
    def shift_array(self):
        return np.array(self.shifts, dtype=float).reshape(-1, 2)

    @property
    def density(self):
        """Points per unit area: number of cosets over |det generator|."""
        return len(self.shifts) / abs(float(np.linalg.det(self.generator_matrix)))


def point_set(generator, shifts=((0.0, 0.0),)):
    """Build a canonical point set from a generator matrix and coset shifts.

    Shifts are reduced to the fundamental domain of the generator,
    deduplicated within 1e-9 (in generator coordinates), and ordered
    lexicographically.  A non-finite generator entry or shift raises
    :class:`ValueError`.
    """
    gen = np.asarray(generator, dtype=float)
    if gen.shape != (2, 2):
        raise ValueError(f"generator must be 2x2, got shape {gen.shape}")
    shifts = np.atleast_2d(np.asarray(shifts, dtype=float))
    if not np.isfinite(gen).all():
        i, j = np.argwhere(~np.isfinite(gen))[0]
        raise ValueError(f"point set generator entry ({i}, {j}) must be finite, "
                         f"got {gen[i, j]}")
    finite = np.isfinite(shifts).all(axis=1)
    if not finite.all():
        raise ValueError(f"point set shift {tuple(shifts[~finite][0].tolist())} "
                         "must be finite")
    det = float(np.linalg.det(gen))
    if abs(det) < 1e-12:
        raise SingularMatrix("point set generator is singular")
    inv = np.linalg.inv(gen)
    reduced = []
    for s in shifts:
        coords = inv @ s
        frac = coords - np.floor(coords + _MEMBER_TOL)
        frac[np.abs(frac) < _MEMBER_TOL] = 0.0
        if not any(np.max(np.abs(frac - r)) < _MEMBER_TOL for r in reduced):
            reduced.append(frac)
    pts = sorted((gen @ r for r in reduced), key=lambda p: (p[0], p[1]))
    return PointSet(generator=tuple(map(tuple, gen)),
                    shifts=tuple(map(tuple, pts)))


def iwasawa_factor(M):
    """Factor a positive-determinant 2x2 matrix as rotation * shear * diagonal.

    Returns (r, q, a) with M = R_r V_q diag(a, det(M)/a), a > 0.  For
    unimodular M the diagonal factor is the standard dilation diag(a, 1/a);
    a scalar multiple s*M0 with M0 unimodular folds s into the diagonal.
    Raises :class:`NotUnimodular` when det(M) <= 0.
    """
    M = np.asarray(M, dtype=float)
    det = float(np.linalg.det(M))
    if det <= 1e-12:
        raise NotUnimodular(f"factorization needs det > 0, got det = {det:.3e}")
    rho = math.hypot(M[1, 1], M[0, 1])
    if rho == 0.0:
        raise NotUnimodular("matrix has zero second row and column entries")
    c, s = M[1, 1] / rho, M[0, 1] / rho
    r = math.atan2(s, c)
    lower = rotation(r).T @ M
    a = float(lower[0, 0])
    q = float(lower[1, 0] / a)
    return r, q, a


def recompose(r, q, a, det=1.0):
    """Product R_r V_q diag(a, det/a), the inverse of :func:`iwasawa_factor`."""
    return rotation(r) @ shear(q) @ dilation_matrix(a, det)


def coset_split(gen, target):
    """Split a target lattice into cosets of a sublattice.

    gen and target are generator matrices with gen Z^2 a sublattice of
    target Z^2 of integer index m; the result is a point set with generator
    gen and exactly m shifts whose union is target Z^2.  Raises
    :class:`NotASublattice` otherwise.
    """
    gen = np.asarray(gen, dtype=float)
    target = np.asarray(target, dtype=float)
    det_g, det_t = float(np.linalg.det(gen)), float(np.linalg.det(target))
    if abs(det_t) < 1e-12 or abs(det_g) < 1e-12:
        raise SingularMatrix("coset split requires invertible generators")
    index = det_g / det_t
    m = round(index)
    if m < 1 or abs(index - m) > 1e-9:
        raise NotASublattice(f"lattice index {index} is not a positive integer")
    rel = np.linalg.inv(target) @ gen
    if np.max(np.abs(rel - np.round(rel))) > 1e-9:
        raise NotASublattice("generator lattice is not contained in the target lattice")
    # every coset of gen Z^2 in target Z^2 has a representative with integer
    # target-coordinates in [0, m)^2 (m Z^2 is contained in the sublattice)
    reps = []
    for i in range(m):
        for j in range(m):
            reps.append(target @ np.array([float(i), float(j)]))
    ps = point_set(gen, reps)
    if len(ps.shifts) != m:
        raise NotASublattice(
            f"found {len(ps.shifts)} distinct cosets, expected {m}")
    return ps


def enumerate_points(ps, window):
    """All points of the set with max-norm <= window, sorted lexicographically."""
    if not window > 0:
        raise ValueError(f"window must be positive, got {window!r}")
    gen = ps.generator_matrix
    shifts = ps.shift_array
    inv = np.linalg.inv(gen)
    reach = float(np.abs(shifts).max()) if shifts.size else 0.0
    bound = int(math.ceil(np.abs(inv).sum(axis=1).max() * (window + reach))) + 1
    rng = np.arange(-bound, bound + 1)
    ii, jj = np.meshgrid(rng, rng, indexing="ij")
    base = np.stack([ii.ravel(), jj.ravel()], axis=1) @ gen.T
    pts = (base[:, None, :] + shifts[None, :, :]).reshape(-1, 2)
    keep = np.max(np.abs(pts), axis=1) <= window + _MEMBER_TOL
    pts = pts[keep]
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    if len(pts) > 1:
        dup = np.all(np.abs(np.diff(pts, axis=0)) < _MEMBER_TOL, axis=1)
        pts = pts[np.concatenate([[True], ~dup])]
    return pts


def transform(ps, M):
    """Image of a point set under an invertible matrix."""
    M = np.asarray(M, dtype=float)
    if abs(float(np.linalg.det(M))) < 1e-12:
        raise SingularMatrix("point set transform requires an invertible matrix")
    return point_set(M @ ps.generator_matrix, ps.shift_array @ M.T)


def translate(ps, z):
    """Point set shifted by the vector z (every coset shift moves by z)."""
    z = np.asarray(z, dtype=float)
    return point_set(ps.generator_matrix, ps.shift_array + z[None, :])


def sets_equal(a, b, window, tol=_MEMBER_TOL):
    """Compare two point sets by enumerating them on a max-norm window.

    Points are matched within tol (max-norm), so floating-point noise in
    the generators cannot reorder the comparison.
    """
    pa, pb = enumerate_points(a, window), enumerate_points(b, window)
    if pa.shape != pb.shape:
        return False
    close = np.max(np.abs(pa[:, None, :] - pb[None, :, :]), axis=2) <= tol
    return bool(np.all(close.sum(axis=1) == 1) and np.all(close.sum(axis=0) == 1))


def to_json(ps):
    """JSON-ready dict {"generator": [[a, b], [c, d]], "shifts": [[x, w], ...]}."""
    return {"generator": [list(row) for row in ps.generator],
            "shifts": [list(s) for s in ps.shifts]}


def from_json(d):
    return point_set(np.array(d["generator"], dtype=float),
                     np.array(d["shifts"], dtype=float))


_SQRT2 = math.sqrt(2.0)

PRESETS = {
    "Z2": point_set(np.eye(2)),
    "Z2-union-half": point_set(np.eye(2), [(0.0, 0.0), (0.5, 0.5)]),
    "sqrt2-square": point_set(np.eye(2) / _SQRT2),
    "D-sqrt2": point_set([[_SQRT2, 0.0], [0.0, 1.0 / _SQRT2]]),
}
