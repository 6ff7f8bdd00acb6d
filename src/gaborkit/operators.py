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


def upsample(values, factor):
    """Spectral zero-padding interpolation onto a factor-times finer grid.

    Exact for band-limited content; the negligible boundary samples of
    Gaussian-decay windows make the implicit periodization harmless.  An odd
    grid keeps its (n + 1) / 2 nonnegative and (n - 1) / 2 negative bins.
    """
    n = values.size
    m = n * factor
    spectrum = np.fft.fft(values)
    padded = np.zeros(m, dtype=complex)
    padded[:n - n // 2] = spectrum[:n - n // 2]
    padded[m - n // 2:] = spectrum[n - n // 2:]
    return np.fft.ifft(padded) * factor


_SHIFT_LEAK_REL = 1e-9


def apply_tf_shifts(zs, f):
    """Apply each time-frequency shift z = (x, omega) of zs to one sampled function.

    Yields one sampled function per shift, so that only one is held at a
    time.  The translation part is performed in the Fourier domain
    (band-limited interpolation), from one spectrum of f shared by all
    shifts; the modulation is exact pointwise.  Raises
    :class:`ShiftExceedsGrid`, when its shift is reached, if the samples that
    a translation would push (circularly) past the grid edge carry
    non-negligible mass.
    """
    vals = f.values
    spectrum = None
    for z in zs:
        x, omega = float(z[0]), float(z[1])
        g = vals
        if x != 0.0:
            if spectrum is None:
                peak = np.abs(vals).max()
                spectrum = np.fft.fft(vals)
                freqs = np.fft.fftfreq(vals.size, d=f.step)
            n_exit = min(int(math.ceil(abs(x) / f.step)), vals.size)
            strip = vals[-n_exit:] if x > 0 else vals[:n_exit]
            if peak > 0.0 and np.abs(strip).max() > _SHIFT_LEAK_REL * peak:
                raise ShiftExceedsGrid(
                    f"time shift {x} pushes effective support outside "
                    f"extent {f.extent}")
            g = np.fft.ifft(spectrum * np.exp(-2j * np.pi * x * freqs))
        if omega != 0.0:
            g = np.exp(2j * np.pi * omega * f.points) * g
        yield SampledFunction(g, f.step, f.extent)


def apply_tf_shift(z, f):
    """Apply the time-frequency shift by z = (x, omega) to a sampled function.

    The one-shift case of :func:`apply_tf_shifts`.
    """
    return next(apply_tf_shifts((z,), f))


def _read_only(arrays):
    # cached kernels are shared between calls
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _chirp_convolve(x, chirp_hat):
    # the linear convolution of the n values x with 2n - 1 chirp values, whose
    # FFT at length 2n is chirp_hat, at the outputs n - 1 .. 2n - 2; a
    # circular convolution of length 2n computes those without aliasing
    n = x.size
    return np.fft.ifft(np.fft.fft(x, 2 * n) * chirp_hat)[n - 1:2 * n - 1]


def _pi_phase(m, num, den):
    # m * num / den mod 2, in units of pi, for an integer array m and integers
    # num and den > 0.  num / den is reduced mod 2 exactly, then split into a
    # head whose products with every m are exact (so is their fmod) and a
    # tail that carries the rest, so the phase keeps its last bits however
    # large m * num / den is
    scale = 2 ** (52 - int(np.abs(m).max()).bit_length())
    head, rest = divmod(num % (2 * den) * scale, den)
    m = m.astype(float)
    return np.fmod(m * (head / scale), 2.0) + m * (rest / (den * scale))


@lru_cache(maxsize=4)
def _dilation_kernel(a, n, step, extent):
    # The samples f(t_k / a) of the trigonometric interpolant of n samples,
    # whose spectrum S_j runs over j in [-(n // 2), n - n // 2) (as in
    # upsample), sit at the grid positions c + k / a with
    # c = (extent / step)(1 - 1 / a):
    #   n f(t_k / a) = sum_j S_j exp(2 pi i j (c + k / a) / n),
    # a chirp-z transform.  Through 2 j k = j^2 + k^2 - (k - j)^2 it is the
    # convolution of the input factors exp(i pi (2 c j + j^2 / a) / n) times
    # S_j with the chirp exp(-i pi (k - j)^2 / (a n)), times the output
    # factors exp(i pi k^2 / (a n)).  The phases reach 1e4 rad, so each is
    # reduced from the exact ratios of the float inputs (_pi_phase), as
    # integers: the fractions module would add about 0.5 MB to a process.  The
    # output factors also carry 1 / (n sqrt(a)), and are zero where
    # |t_k / a| > extent.
    p, q = a.as_integer_ratio()
    ep, eq = float(extent).as_integer_ratio()
    sp, sq = float(step).as_integer_ratio()
    alpha = (q, p * n)  # 1 / (a n)
    beta = (2 * ep * sq * (p - q), eq * sp * p * n)  # 2 c / n
    j = np.arange(n) - n // 2
    u = np.arange(-(n - 1), n) + n // 2  # k - j over the convolution
    k = np.arange(n)
    pre = np.exp(1j * np.pi * (_pi_phase(j * j, *alpha) + _pi_phase(j, *beta)))
    chirp_hat = np.fft.fft(np.exp(-1j * np.pi * _pi_phase(u * u, *alpha)), 2 * n)
    post = np.exp(1j * np.pi * _pi_phase(k * k, *alpha)) / (n * math.sqrt(a))
    post[np.abs(grid_points(extent, step)) > extent * a] = 0.0
    return _read_only((pre, chirp_hat, post))


def apply_dilation(a, f):
    """Apply the unitary dilation f(t) -> a^(-1/2) f(t/a).

    The samples of the band-limited interpolant of f at t_k / a are one
    chirp-z transform of the spectrum of f; zero where |t_k / a| > extent.
    """
    if not a > 0:
        raise ValueError(f"dilation requires a > 0, got {a!r}")
    a = float(a)
    if a == 1.0:
        return SampledFunction(f.values.copy(), f.step, f.extent)
    pre, chirp_hat, post = _dilation_kernel(a, f.values.size, f.step, f.extent)
    spectrum = np.fft.fftshift(np.fft.fft(f.values))
    vals = post * _chirp_convolve(spectrum * pre, chirp_hat)
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
    # sum computed with FFTs (_chirp_convolve).  The grid-only factors are
    # cached for the last two keys, so a suite that applies one angle to many
    # rows builds them once.
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
    out = out_ramp * _chirp_convolve(values * pre, chirp_hat)[::refine]
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
    ``is_identity()``, ``merge(right)`` ((op, c) with self . right = c op for
    the same kind), ``hermite_eigenvalue(n)`` and ``angle``: U is
    exp(i angle / 2) times the metaplectic operator of A that maps
    exp(i pi tau t^2) to j^(-1/2) exp(i pi tau' t^2), j = A11 + A12 tau (0
    for dilation and chirp, the rotation angle in (-pi, pi] for FrFT and
    Fourier, None for a shift, which is not metaplectic).  Values, envelopes
    and Fourier transforms of windows come from these matrices and angles
    alone (:func:`gaborkit.windows.normal_form`).
    """

    merge = hermite_eigenvalue = None
    angle = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{self.tag} requires a finite {name}, got {value!r}")

    def is_identity(self):
        return False


@dataclass(frozen=True)
class Dilation(Op):
    """Unitary dilation f(t) -> a^(-1/2) f(t/a), a > 0; projects to diag(a, 1/a)."""

    a: float
    tag = "dilation"

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"dilation requires a > 0, got {self.a!r}")

    def matrix(self):
        return dilation_matrix(self.a)

    def apply(self, f):
        return apply_dilation(self.a, f)

    def is_identity(self):
        return self.a == 1.0

    def merge(self, right):
        return Dilation(self.a * right.a), 1.0


@dataclass(frozen=True)
class Chirp(Op):
    """Chirp multiplication f(t) -> exp(i pi q t^2) f(t); projects to [[1, 0], [q, 1]]."""

    q: float
    tag = "chirp"

    def matrix(self):
        return shear(self.q)

    def apply(self, f):
        return apply_chirp(self.q, f)

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

    @property
    def angle(self):
        return self.r + math.tau * math.floor(0.5 - self.r / math.tau)

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
    angle = None

    def matrix(self):
        return np.eye(2)

    def apply(self, f):
        return apply_tf_shift((self.x, self.omega), f)

    def is_identity(self):
        return self.x == 0.0 and self.omega == 0.0

    def merge(self, right):
        # pi(z1) pi(z2) = exp(-2 pi i x1 omega2) pi(z1 + z2)
        extra = cmath.exp(-2j * math.pi * self.x * right.omega)
        return TFShift(self.x + right.x, self.omega + right.omega), extra


@dataclass(frozen=True)
class Fourier(Op):
    """The ordinary Fourier transform (angle pi/2 member of the family)."""

    tag = "fourier"
    angle = 0.5 * math.pi

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
