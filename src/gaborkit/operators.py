"""Time-frequency shifts and the unitary operators with plane isomorphisms.

The operators act on :class:`SampledFunction` values (uniform grids over a
symmetric interval).  Each operator kind is an :class:`Op` that also projects
to a 2x2 matrix acting on the time-frequency plane; time-frequency shifts
project to the identity (their effect on point sets is a translation,
handled by the lattice module).
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShiftExceedsGrid, SingularAngle, TruncationTooCoarse
from .lattices import dilation_matrix, rotation, shear
from .special import hermite_stack

DEFAULT_EXTENT = 12.0
DEFAULT_STEP = 1.0 / 128.0

# quadrature FrFT rejects angles closer than this to a multiple of pi
ANGLE_GUARD = 1e-3
_EXACT_ANGLE = 1e-12

_SUPPORT_REL = 1e-14
_CHUNK = 512


def grid_points(extent=DEFAULT_EXTENT, step=DEFAULT_STEP):
    """Uniform grid -extent, -extent+step, ..., extent-step."""
    n = int(round(2.0 * extent / step))
    return -extent + step * np.arange(n)


@dataclass
class SampledFunction:
    """Complex samples of a function on a uniform grid over [-extent, extent)."""

    values: np.ndarray
    step: float = DEFAULT_STEP
    extent: float = DEFAULT_EXTENT

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        n = int(round(2.0 * self.extent / self.step))
        if self.values.shape != (n,):
            raise ValueError(
                f"expected {n} samples for extent {self.extent}, step {self.step}, "
                f"got shape {self.values.shape}")

    @property
    def points(self):
        return grid_points(self.extent, self.step)

    def norm(self):
        """Quadrature L2 norm."""
        return math.sqrt(float(np.sum(np.abs(self.values) ** 2)) * self.step)

    def inner(self, other):
        """Quadrature inner product <self, other>."""
        return complex(np.vdot(other.values, self.values) * self.step)


def sample(fn, extent=DEFAULT_EXTENT, step=DEFAULT_STEP):
    """Sample a callable on the default grid."""
    pts = grid_points(extent, step)
    return SampledFunction(np.asarray(fn(pts), dtype=complex), step, extent)


def support_radius(f, rel=_SUPPORT_REL):
    """Largest |t| at which |f| exceeds rel times its peak (0 for the zero function)."""
    a = np.abs(f.values)
    peak = a.max()
    if peak == 0.0:
        return 0.0
    idx = np.nonzero(a > rel * peak)[0]
    pts = f.points
    return float(max(abs(pts[idx[0]]), abs(pts[idx[-1]])))


def sinc_interpolate(f, where):
    """Band-limited interpolation of a sampled function at arbitrary points.

    Exact for functions band-limited below the grid Nyquist rate; our
    Gaussian-decay windows are band-limited to machine precision.  Cost is
    one full sinc kernel row per point; prefer :func:`resample` in bulk,
    which upsamples once and applies a 12-point stencil per point
    (:func:`apply_dilation` also caches that stencil per factor and grid).
    """
    where = np.asarray(where, dtype=float)
    flat = np.atleast_1d(where).ravel()
    pts = f.points
    out = np.empty(flat.size, dtype=complex)
    for i0 in range(0, flat.size, _CHUNK):
        block = flat[i0:i0 + _CHUNK]
        ker = np.sinc((block[:, None] - pts[None, :]) / f.step)
        out[i0:i0 + _CHUNK] = ker @ f.values
    out = out.reshape(where.shape)
    return out if where.ndim else complex(out[()])


UPSAMPLE = 16
STENCIL = 12

_BARY_WEIGHTS = np.array([(-1.0) ** j * math.comb(STENCIL - 1, j)
                          for j in range(STENCIL)])


def upsample(values, factor=UPSAMPLE):
    """Spectral zero-padding interpolation onto a factor-times finer grid.

    Exact for band-limited content; the negligible boundary samples of
    Gaussian-decay windows make the implicit periodization harmless.
    """
    n = values.size
    m = n * factor
    spectrum = np.fft.fft(values)
    padded = np.zeros(m, dtype=complex)
    padded[:n // 2] = spectrum[:n // 2]
    padded[m - n // 2:] = spectrum[n // 2:]
    return np.fft.ifft(padded) * factor


def _stencil(where, fine_step, extent, fine_size):
    # the grid-only half of local_interpolate: fine-grid indices, barycentric
    # terms and their row sums, the fine index of each row that hits a node,
    # and the points outside the grid
    pos = (where + extent) / fine_step
    i0 = np.clip(np.floor(pos).astype(int) - (STENCIL // 2 - 1),
                 0, fine_size - STENCIL)
    offsets = np.arange(STENCIL)
    idx = i0[:, None] + offsets[None, :]
    rel = pos[:, None] - idx
    exact = np.abs(rel) < 1e-9
    terms = _BARY_WEIGHTS[None, :] / np.where(exact, 1.0, rel)
    return idx, terms, np.sum(terms, axis=1), np.any(exact, axis=1), \
        idx[exact], np.abs(where) > extent


def _apply_stencil(stencil, fine):
    idx, terms, row_sums, hit_rows, hit_idx, outside = stencil
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sum(terms * fine[idx], axis=1) / row_sums
    out[hit_rows] = fine[hit_idx]
    out[outside] = 0.0
    return out


def local_interpolate(fine, fine_step, extent, where):
    """Barycentric Lagrange interpolation on an oversampled grid.

    A 12-point equispaced stencil on a 16x oversampled grid keeps the
    error below 1e-13 for our band-limited windows; points outside the
    grid evaluate to zero.
    """
    where = np.asarray(where, dtype=float)
    flat = np.atleast_1d(where).ravel()
    out = _apply_stencil(_stencil(flat, fine_step, extent, fine.size), fine)
    out = out.reshape(where.shape)
    return out if where.ndim else complex(out[()])


def resample(f, where):
    """Fast band-limited evaluation of a sampled function at arbitrary points."""
    return local_interpolate(upsample(f.values), f.step / UPSAMPLE, f.extent, where)


_SHIFT_LEAK_REL = 1e-9


def apply_tf_shift(z, f):
    """Apply the time-frequency shift by z = (x, omega) to a sampled function.

    The translation part is performed in the Fourier domain (band-limited
    interpolation); the modulation is exact pointwise.  Raises
    :class:`ShiftExceedsGrid` when the samples that the translation would
    push (circularly) past the grid edge carry non-negligible mass.
    """
    x, omega = float(z[0]), float(z[1])
    vals = f.values
    if x != 0.0:
        peak = np.abs(vals).max()
        n_exit = min(int(math.ceil(abs(x) / f.step)), vals.size)
        strip = vals[-n_exit:] if x > 0 else vals[:n_exit]
        if peak > 0.0 and np.abs(strip).max() > _SHIFT_LEAK_REL * peak:
            raise ShiftExceedsGrid(
                f"time shift {x} pushes effective support outside "
                f"extent {f.extent}")
        freqs = np.fft.fftfreq(vals.size, d=f.step)
        vals = np.fft.ifft(np.fft.fft(vals) * np.exp(-2j * np.pi * x * freqs))
    if omega != 0.0:
        vals = np.exp(2j * np.pi * omega * f.points) * vals
    return SampledFunction(vals, f.step, f.extent)


def _read_only(arrays):
    # cached kernels are shared between calls
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=4)
def _dilation_stencil(a, n, step, extent):
    # the stencil of the points t_k / a on the fine grid of an n-point grid
    return _read_only(_stencil(grid_points(extent, step) / a, step / UPSAMPLE,
                               extent, n * UPSAMPLE))


def apply_dilation(a, f):
    """Apply the unitary dilation f(t) -> a^(-1/2) f(t/a)."""
    if not a > 0:
        raise ValueError(f"dilation requires a > 0, got {a!r}")
    a = float(a)
    if a == 1.0:
        return SampledFunction(f.values.copy(), f.step, f.extent)
    stencil = _dilation_stencil(a, f.values.size, f.step, f.extent)
    vals = _apply_stencil(stencil, upsample(f.values)) / math.sqrt(a)
    return SampledFunction(vals, f.step, f.extent)


def apply_chirp(q, f):
    """Multiply by the unit-modulus chirp exp(i pi q t^2)."""
    pts = f.points
    vals = np.exp(1j * np.pi * float(q) * pts * pts) * f.values
    return SampledFunction(vals, f.step, f.extent)


def _reflect(f):
    # value at -t_k sits at index (N - k) mod N; the wrap touches only the
    # negligible boundary sample
    vals = np.concatenate([f.values[:1], f.values[:0:-1]])
    return SampledFunction(vals, f.step, f.extent)


@lru_cache(maxsize=2)
def _frft_kernel(r, n, step, extent, refine):
    # everything of the quadrature that depends only on the angle and the
    # (refined) grid: the input factors (chirp exp(i pi cot t^2) times ramp),
    # the FFT of the convolution chirp, and the output factors at the kept
    # samples
    cot = math.cos(r) / math.sin(r)
    csc = 1.0 / math.sin(r)
    pts = -extent + step * np.arange(n)
    pre = np.exp(1j * np.pi * cot * pts * pts)
    idx = np.arange(n, dtype=float)
    ch2 = csc * step * step
    edge = 2.0 * np.pi * csc * extent * step
    ramp = np.exp(1j * (edge * idx - np.pi * ch2 * idx * idx))
    u = np.arange(-(n - 1), n, dtype=float)
    chirp_hat = np.fft.fft(np.exp(1j * np.pi * ch2 * u * u), 2 * n)
    amp = np.sqrt(1.0 - 1j * cot)  # principal branch matches F_{pi/2} = F
    out_ramp = (np.exp(-2j * np.pi * csc * extent * extent) * ramp)[::refine]
    post = (amp * step * pre)[::refine]
    return _read_only((pre * ramp, chirp_hat, out_ramp, post))


def _frft_quadrature(r, f):
    # composite-rule quadrature of the chirp kernel; the oscillatory sum
    # sum_k g_k exp(-2 pi i csc s_j t_k) is evaluated through the chirp
    # convolution identity 2 s t = s^2 + t^2 - (s - t)^2, which is the same
    # sum computed with FFTs.  The linear convolution of the n samples with
    # the 2n - 1 chirp values is needed only at n - 1 .. 2n - 2, which a
    # circular convolution of length 2n computes without aliasing.  The
    # grid-only factors are cached for the last two keys, so a suite that
    # applies one angle to many rows builds them once.
    cot = math.cos(r) / math.sin(r)
    csc = 1.0 / math.sin(r)
    if np.abs(f.values).max() == 0.0:
        return SampledFunction(np.zeros_like(f.values), f.step, f.extent)
    # refine the quadrature grid until it resolves the kernel oscillation
    # (local frequency cot*t - csc*s over the effective support)
    fmax = abs(cot) * support_radius(f, rel=1e-16) + abs(csc) * f.extent
    refine = max(1, int(math.ceil(2.0 * fmax * f.step)))
    values = upsample(f.values, refine) if refine > 1 else f.values
    n = values.size
    pre, chirp_hat, out_ramp, post = _frft_kernel(
        r, n, f.step / refine, f.extent, refine)
    conv = np.fft.ifft(np.fft.fft(values * pre, 2 * n) * chirp_hat)
    out = out_ramp * conv[n - 1:2 * n - 1:refine]
    out *= post
    return SampledFunction(out, f.step, f.extent)


def _frft_hermite(r, f, n_coeffs):
    stack = hermite_stack(n_coeffs - 1, f.points)
    coeffs = (stack @ f.values) * f.step
    scale = max(f.norm(), 1e-300)
    trailing = float(np.max(np.abs(coeffs[-4:])))
    if trailing > 1e-7 * scale:
        raise TruncationTooCoarse(
            f"trailing Hermite coefficients reach {trailing:.2e} "
            f"(relative {trailing / scale:.2e}); increase n_coeffs")
    phases = np.exp(-1j * r * np.arange(n_coeffs))
    vals = (coeffs * phases) @ stack
    return SampledFunction(vals, f.step, f.extent)


def apply_frft(r, f, method="quadrature", n_coeffs=64):
    """Apply the fractional Fourier transform of angle r to a sampled function.

    Parameters
    ----------
    r : float
        Transform angle.  Hermite functions are eigenfunctions with
        eigenvalue exp(-i n r).
    f : SampledFunction
    method : {"quadrature", "hermite"}
        "quadrature" integrates the chirp kernel directly (angles within
        1e-3 of a multiple of pi are rejected with :class:`SingularAngle`,
        exact multiples dispatch to identity/reflection).  "hermite" expands
        f in n_coeffs Hermite functions and applies the eigenvalues; it is
        valid at every angle but raises :class:`TruncationTooCoarse` when
        the expansion does not resolve f.  A non-finite r raises
        :class:`ValueError` for both methods.
    n_coeffs : int
        Length of the Hermite expansion for method="hermite".
    """
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"frft requires a finite r, got {r!r}")
    if method == "hermite":
        return _frft_hermite(r, f, n_coeffs)
    if method != "quadrature":
        raise ValueError(f"unknown FrFT method {method!r}")
    m = round(r / math.pi)
    if abs(r - m * math.pi) < _EXACT_ANGLE:
        if m % 2 == 0:
            return SampledFunction(f.values.copy(), f.step, f.extent)
        return _reflect(f)
    if abs(r - m * math.pi) < ANGLE_GUARD:
        raise SingularAngle(
            f"angle {r} is within {ANGLE_GUARD} of a multiple of pi; "
            "use method='hermite'")
    return _frft_quadrature(r, f)


def apply_fourier(f):
    """The ordinary Fourier transform of a sampled function."""
    return _frft_quadrature(0.5 * math.pi, f)


@dataclass(frozen=True)
class Op:
    """An operator-isomorphism pair: a unitary U and its matrix A, U pi(z) = c pi(Az) U.

    Immutable, compared by kind and fields (``Chirp(0.7) != Dilation(0.7)``),
    with finite fields.  A subclass holds every fact about its kind, None
    where it lacks one: ``tag`` (JSON name), ``matrix()`` (A), ``apply(f)``,
    ``at(g, t)`` ((U g)(t) for pointwise U), ``is_identity()``,
    ``merge(right)`` ((op, c) with self . right = c op for the same kind),
    ``fourier(phase)`` ((op, phase c) with F . self = c op . F),
    ``hermite_eigenvalue(n)`` and ``envelope_step(n, amp, scale, center)``
    (the Gaussian envelope of U g from that of g, for g of degree n).
    """

    at = merge = fourier = hermite_eigenvalue = None
    keeps_parity = True  # U maps even/odd functions to even/odd functions
    keeps_real = False   # U maps real functions to real functions

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{self.tag} requires a finite {name}, got {value!r}")

    def is_identity(self):
        return False

    def envelope_step(self, n, amp, scale, center):
        return amp, scale, center


@dataclass(frozen=True)
class Dilation(Op):
    """Unitary dilation f(t) -> a^(-1/2) f(t/a), a > 0; projects to diag(a, 1/a)."""

    a: float
    tag = "dilation"
    keeps_real = True

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"dilation requires a > 0, got {self.a!r}")

    def matrix(self):
        return dilation_matrix(self.a)

    def apply(self, f):
        return apply_dilation(self.a, f)

    def at(self, g, t):
        return g(t / self.a) / math.sqrt(self.a)

    def is_identity(self):
        return self.a == 1.0

    def merge(self, right):
        return Dilation(self.a * right.a), 1.0

    def fourier(self, phase):
        # F D_a = D_{1/a} F
        return Dilation(1.0 / self.a), phase

    def envelope_step(self, n, amp, scale, center):
        return (amp * (max(1.0, 1.0 / self.a) ** n / math.sqrt(self.a)),
                scale * self.a, center * self.a)


@dataclass(frozen=True)
class Chirp(Op):
    """Chirp multiplication f(t) -> exp(i pi q t^2) f(t); projects to [[1, 0], [q, 1]]."""

    q: float
    tag = "chirp"

    def matrix(self):
        return shear(self.q)

    def apply(self, f):
        return apply_chirp(self.q, f)

    def at(self, g, t):
        return np.exp(1j * math.pi * self.q * np.square(t)) * g(t)

    def is_identity(self):
        return self.q == 0.0

    def merge(self, right):
        return Chirp(self.q + right.q), 1.0


@dataclass(frozen=True)
class FrFT(Op):
    """Fractional Fourier transform by angle r; projects to the rotation by r."""

    r: float
    tag = "frft"

    def matrix(self):
        return rotation(self.r)

    def apply(self, f):
        return apply_frft(self.r, f)

    def is_identity(self):
        rm = self.r % math.tau
        return min(rm, math.tau - rm) < 1e-12

    def merge(self, right):
        return FrFT(self.r + right.r), 1.0

    def hermite_eigenvalue(self, n):
        return cmath.exp(-1j * n * self.r)


@dataclass(frozen=True)
class TFShift(Op):
    """Time-frequency shift f(t) -> exp(2 pi i omega t) f(t - x); projects to the identity."""

    x: float
    omega: float
    tag = "tfshift"
    keeps_parity = False

    def matrix(self):
        return np.eye(2)

    def apply(self, f):
        return apply_tf_shift((self.x, self.omega), f)

    def at(self, g, t):
        return np.exp(2j * math.pi * self.omega * np.asarray(t, float)) * g(t - self.x)

    def is_identity(self):
        return self.x == 0.0 and self.omega == 0.0

    def merge(self, right):
        # pi(z1) pi(z2) = exp(-2 pi i x1 omega2) pi(z1 + z2)
        extra = cmath.exp(-2j * math.pi * self.x * right.omega)
        return TFShift(self.x + right.x, self.omega + right.omega), extra

    def fourier(self, phase):
        # F pi(x, omega) = exp(2 pi i x omega) pi(omega, -x) F
        phase *= cmath.exp(2j * math.pi * self.x * self.omega)
        return TFShift(self.omega, -self.x), phase

    def envelope_step(self, n, amp, scale, center):
        return amp, scale, center + self.x


@dataclass(frozen=True)
class Fourier(Op):
    """The ordinary Fourier transform (angle pi/2 member of the family)."""

    tag = "fourier"

    def matrix(self):
        return np.array([[0.0, 1.0], [-1.0, 0.0]])

    def apply(self, f):
        return apply_fourier(f)

    def hermite_eigenvalue(self, n):
        return (-1j) ** n


def apply_chain(ops, f):
    """Apply an operator chain (rightmost entry acts first)."""
    for op in reversed(tuple(ops)):
        f = op.apply(f)
    return f


def project_isomorphism(op_or_chain):
    """Project an operator (or a chain, as the ordered product) to its 2x2 matrix of det 1."""
    ops = (op_or_chain,) if isinstance(op_or_chain, Op) else tuple(op_or_chain)
    out = np.eye(2)
    for op in ops:
        out = out @ op.matrix()
    return out


def matched_phase_residual(lhs, rhs):
    """Least-squares phase alignment of two sampled functions.

    Returns (residual, c) minimizing ||lhs - c rhs||_2 over complex c.
    """
    denom = rhs.norm() ** 2
    if denom == 0.0:
        return lhs.norm(), 0.0 + 0.0j
    c = lhs.inner(rhs) / denom
    diff = SampledFunction(lhs.values - c * rhs.values, lhs.step, lhs.extent)
    return diff.norm(), c
