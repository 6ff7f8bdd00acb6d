"""Normalized Hermite functions and the restricted Jacobi theta-3 function."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_SQRT_PI = math.sqrt(math.pi)

# theta series truncation: certified relative tail below this level
_THETA_TAIL = 1e-16
_THETA_K_MIN = 6
_THETA_K_MAX = 256

# beyond this order 2^n n! overflows a float and the envelope constant below
# collapses to 0 (then to an OverflowError from order 171 on)
MAX_ENVELOPE_ORDER = 150


def hermite(n, t):
    """Evaluate the n-th normalized Hermite function h_n(t).

    The normalization is the one for which ||h_n||_2 = 1 and the Fourier
    transform acts diagonally, F h_n = (-i)^n h_n.  Evaluation uses the
    Gaussian-weighted three-term recurrence

        h_0(t)     = 2^(1/4) exp(-pi t^2)
        h_1(t)     = 2 sqrt(pi) t h_0(t)
        h_(k+1)(t) = (2 sqrt(pi) t / sqrt(k+1)) h_k(t) - sqrt(k/(k+1)) h_(k-1)(t)

    Carrying the Gaussian factor through the recurrence avoids the
    cancellation and overflow of the polynomial-times-Gaussian form; the
    evaluation is safe for |t| up to 50 (values underflow to 0 long before).

    Parameters
    ----------
    n : int
        Hermite order, n >= 0.
    t : float or array_like
        Evaluation points.

    Returns
    -------
    float or ndarray
    """
    if n != int(n) or n < 0:
        raise ValueError(f"Hermite order must be a nonnegative integer, got {n!r}")
    *_, h = _hermite_rows(int(n), np.asarray(t, dtype=float))
    return h if h.ndim else float(h)


def hermite_stack(n_max, t):
    """Evaluate h_0 .. h_n_max at the points t, as rows of one array shaped like t (>= 1-D)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((n_max + 1,) + t.shape)
    for k, row in enumerate(_hermite_rows(n_max, t)):
        out[k] = row
    return out


def _hermite_rows(n_max, t):
    # the recurrence of :func:`hermite` with h_(-1) = 0, yielding h_0 .. h_n_max
    h_prev, h_cur = 0.0, 2.0 ** 0.25 * np.exp(-np.pi * t * t)
    yield h_cur
    for k in range(n_max):
        h_prev, h_cur = h_cur, (2.0 * _SQRT_PI / math.sqrt(k + 1.0)) * t * h_cur \
            - math.sqrt(k / (k + 1.0)) * h_prev
        yield h_cur


@lru_cache(maxsize=128)
def hermite_envelope_constant(n):
    """Return C such that |h_n(t)| <= C (1 + |t|)^n exp(-pi t^2) for all t.

    Built from the absolute-coefficient sum S_n of the degree-n Hermite
    polynomial, S_(k+1) = 2 S_k + 2k S_(k-1), so the bound is rigorous (if
    crude for large n).  Orders above :data:`MAX_ENVELOPE_ORDER` raise
    :class:`ValueError`.
    """
    if n > MAX_ENVELOPE_ORDER:
        raise ValueError(f"Hermite order {n} has no certified envelope; "
                         f"the largest supported order is {MAX_ENVELOPE_ORDER}")
    prev, coeff_sum = 0, 1
    for k in range(n):
        prev, coeff_sum = coeff_sum, 2 * coeff_sum + 2 * k * prev
    return 2.0 ** 0.25 / math.sqrt(2.0 ** n * math.factorial(n)) \
        * coeff_sum * max(1.0, math.sqrt(2.0 * math.pi)) ** n


@dataclass(frozen=True)
class ThetaValue:
    """Value and alpha-derivative of theta_3 at a positive argument."""

    alpha: float
    value: float
    derivative: float


def theta3(alpha):
    """Evaluate theta_3(alpha) = sum_k exp(-pi alpha k^2) and its derivative.

    Both series are truncated at |k| <= K, with K >= 6 the smallest integer
    for which the dropped tail, dominated by the geometric envelope
    exp(-pi alpha K) per step, stays below 1e-16 of the partial sum.  K <= 256
    certifies alpha from about 1.8843e-4 on; a smaller alpha raises ValueError.

    Parameters
    ----------
    alpha : float
        Strictly positive argument.

    Returns
    -------
    ThetaValue
    """
    if not alpha > 0:
        raise ValueError(f"theta3 requires alpha > 0, got {alpha!r}")
    alpha = float(alpha)
    for K in range(_THETA_K_MIN, _THETA_K_MAX + 1):
        partial = 1.0 + 2.0 * math.fsum(
            math.exp(-math.pi * alpha * k * k) for k in range(1, K + 1))
        if math.exp(-math.pi * alpha * K * K) * (2 * K + 2) < _THETA_TAIL * partial:
            break
    else:
        raise ValueError(f"theta3 certifies no sum for alpha = {alpha!r}: "
                         f"{_THETA_K_MAX} terms leave a tail above {_THETA_TAIL:g} of it")
    k = np.arange(1, K + 1, dtype=float)
    terms = np.exp(-math.pi * alpha * k * k)
    value = 1.0 + 2.0 * float(np.sum(terms))
    derivative = -2.0 * math.pi * float(np.sum(k * k * terms))
    return ThetaValue(alpha=alpha, value=value, derivative=derivative)
