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


def _quarter_turns(theta):
    """k in 0..3 when theta is a whole multiple of the float pi / 2, congruent
    to k pi / 2 mod 2 pi, else None: where cos and sin of theta are taken
    exactly from (1, 0, -1, 0)."""
    if theta % (0.5 * math.pi) == 0.0:
        return round(theta / (0.5 * math.pi)) % 4
    return None


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


def apply_tf_shift(z, f):
    """Apply the time-frequency shift by z = (x, omega) to a sampled function.

    The translation part is performed in the Fourier domain (band-limited
    interpolation); the modulation is exact pointwise.  Raises
    :class:`ShiftExceedsGrid` if the samples that the translation would push
    (circularly) past the grid edge carry non-negligible mass.
    """
    x, omega = float(z[0]), float(z[1])
    g = f.values
    if x != 0.0:
        n_exit = min(int(math.ceil(abs(x) / f.step)), g.size)
        strip = g[-n_exit:] if x > 0 else g[:n_exit]
        peak = np.abs(g).max()
        if peak > 0.0 and np.abs(strip).max() > _SHIFT_LEAK_REL * peak:
            raise ShiftExceedsGrid(
                f"time shift {x} pushes effective support outside "
                f"extent {f.extent}")
        freqs = np.fft.fftfreq(g.size, d=f.step)
        g = np.fft.ifft(np.fft.fft(g) * np.exp(-2j * np.pi * x * freqs))
    if omega != 0.0:
        g = np.exp(2j * np.pi * omega * f.points) * g
    return SampledFunction(g, f.step, f.extent)


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
    # head of 61 - b bits, b those of max |m|, whose products with every m are
    # exact int64s below 2**62 (so is their remainder), and a tail that carries
    # the rest, so the phase keeps its last bits however large m * num / den is
    scale = 2 ** (61 - int(np.abs(m).max()).bit_length())
    head, rest = divmod(num % (2 * den) * scale, den)
    return np.fmod(m * head, 2 * scale) / scale + m * (rest / (den * scale))


def _chirp_z(n, j0, pre, conv, post):
    # the factors of out_k = post_k sum_j x_j pre_j exp(-i pi conv (k - j)^2),
    # j = j0 .. j0 + n - 1, k = 0 .. n - 1, pre_j = exp(i pi (p2 j^2 + p1 j))
    # for pre = (p2, p1) and post_k likewise, the chirp as its FFT at length
    # 2n (_chirp_convolve).  Each coefficient is an exact ratio (num, den) of
    # the float inputs, and each phase is reduced mod 2 from it (_pi_phase), as
    # integers: the fractions module would add about 0.5 MB to a process
    def factor(m, p2, p1):
        return np.exp(1j * np.pi * (_pi_phase(m * m, *p2) + _pi_phase(m, *p1)))
    u = np.arange(-(n - 1), n) - j0  # k - j over the convolution
    chirp_hat = np.fft.fft(np.exp(-1j * np.pi * _pi_phase(u * u, *conv)), 2 * n)
    pre_j = factor(np.arange(n) + j0, *pre)
    return pre_j, chirp_hat, pre_j if (j0, post) == (0, pre) else factor(np.arange(n), *post)


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
    # factors exp(i pi k^2 / (a n)); the phases reach 1e4 rad.  The output
    # factors also carry 1 / (n sqrt(a)), and are zero where |t_k / a| > extent.
    p, q = a.as_integer_ratio()
    (ep, eq), (sp, sq) = (float(v).as_integer_ratio() for v in (extent, step))
    alpha = (q, p * n)  # 1 / (a n)
    beta = (2 * ep * sq * (p - q), eq * sp * p * n)  # 2 c / n
    pre, chirp_hat, post = _chirp_z(n, -(n // 2), (alpha, beta), alpha, (alpha, (0, 1)))
    post = post / (n * math.sqrt(a))
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
    # the grid-only factors of the quadrature, on the (refined) grid
    # s_j = -E + j h, t_k = -E + k h: through -2 j k = (k - j)^2 - j^2 - k^2
    # the kernel exp(i pi (cot (s^2 + t^2) - 2 csc s t)) has the factors
    # exp(i pi (d h^2 j^2 - 2 d E h j)), d = cot - csc, in j and likewise in k,
    # the chirp exp(i pi csc h^2 (k - j)^2) and the constant exp(2 pi i d E^2),
    # which the output factors carry at the kept samples with amplitude and step
    cot = math.cos(r) / math.sin(r)
    (cn, cd), (sn, sd), (hn, hd), (en, ed) = (
        float(v).as_integer_ratio() for v in (cot, 1.0 / math.sin(r), step, extent))
    dn, dd = cn * sd - sn * cd, cd * sd  # d = cot - csc
    ramp = ((dn * hn * hn, dd * hd * hd), (-2 * dn * en * hn, dd * ed * hd))
    pre, chirp_hat, post = _chirp_z(n, 0, ramp, (-sn * hn * hn, sd * hd * hd), ramp)
    edge = cmath.exp(1j * math.pi * (2 * dn * en * en % (2 * dd * ed * ed) / (dd * ed * ed)))
    amp = np.sqrt(1.0 - 1j * cot)  # principal branch matches F_{pi/2} = F
    return _read_only((pre, chirp_hat, (amp * step * edge * post)[::refine]))


def _frft_quadrature(r, f):
    # composite-rule quadrature of the chirp kernel, a chirp-z transform
    # (_frft_kernel); its grid-only factors are cached for the last two keys,
    # so a suite that applies one angle to many rows builds them once
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
    pre, chirp_hat, post = _frft_kernel(r, n, f.step / refine, f.extent, refine)
    out = post * _chirp_convolve(values * pre, chirp_hat)[::refine]
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


@dataclass(frozen=True)
class Op:
    """An operator-isomorphism pair: a unitary U and its matrix A, U pi(z) = c pi(Az) U.

    Immutable, compared by kind and fields (``Chirp(0.7) != Dilation(0.7)``),
    with finite fields.  A subclass holds every fact about its kind, None
    where it lacks one: ``tag`` (JSON name), ``matrix()`` (A), ``apply(f)``,
    ``hermite_eigenvalue(n)`` and ``angle``: U is exp(i angle / 2) times the
    metaplectic operator of A that maps exp(i pi tau t^2) to
    j^(-1/2) exp(i pi tau' t^2), j = A11 + A12 tau (0 for dilation and chirp,
    the rotation angle in (-pi, pi] for FrFT and Fourier, None for a shift,
    which is not metaplectic).  How links compose, and so the values,
    envelopes and Fourier transforms of windows, follows from these matrices
    and angles alone (:func:`gaborkit.windows.normal_form`).
    """

    hermite_eigenvalue = None
    angle = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{self.tag} requires a finite {name}, got {value!r}")


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


@dataclass(frozen=True)
class Chirp(Op):
    """Chirp multiplication f(t) -> exp(i pi q t^2) f(t); projects to [[1, 0], [q, 1]]."""

    q: float
    tag = "chirp"

    def matrix(self):
        return shear(self.q)

    def apply(self, f):
        return apply_chirp(self.q, f)


@dataclass(frozen=True)
class FrFT(Op):
    """Fractional Fourier transform by angle r; projects to the rotation by r."""

    r: float
    tag = "frft"

    def matrix(self):
        k = _quarter_turns(self.r)
        if k is None:
            return rotation(self.r)
        c, s = (1.0, 0.0, -1.0, 0.0)[k], (0.0, 1.0, 0.0, -1.0)[k]
        return np.array([[c, s], [-s, c]])

    @property
    def angle(self):
        return self.r + math.tau * math.floor(0.5 - self.r / math.tau)

    def apply(self, f):
        return apply_frft(self.r, f)

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


@dataclass(frozen=True)
class Fourier(Op):
    """The ordinary Fourier transform (angle pi/2 member of the family)."""

    tag = "fourier"
    angle = 0.5 * math.pi

    def matrix(self):
        return np.array([[0.0, 1.0], [-1.0, 0.0]])

    def apply(self, f):
        return apply_frft(self.angle, f)

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
