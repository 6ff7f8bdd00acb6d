"""Symbolic window descriptions: a Hermite order plus a chain of operators.

Every window is c pi(x, omega) Chirp(q) Dilation(a) h_n: each operator is
metaplectic or a shift, so it maps that form to another one through its
2 x 2 matrix.  :func:`normal_form` folds a chain into those numbers, and is
the only code that rewrites a chain: the values, the decay envelope, the
parity and the reality of a window are read from them.  A window keeps its
chain as given, except that a fractional link on the bare Hermite base
collapses to the eigenvalue phase exp(-i n r) when the window is built.
"""

import cmath
import dataclasses
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import UnboundedWindow
from .operators import (DEFAULT_EXTENT, DEFAULT_STEP, Chirp, Dilation, Op,
                        SampledFunction, TFShift, _quarter_turns, grid_points)
from .special import hermite, hermite_envelope_constant, hermite_stack


@dataclass(frozen=True)
class Window:
    """Hermite order, operator chain (leftmost acts last), unimodular phase."""

    n: int
    chain: tuple = ()
    phase: complex = 1.0 + 0.0j


def window(n, chain=(), phase=1.0):
    """Build a window, keeping its operator chain as given.

    A trailing fractional Fourier transform or Fourier transform acting on
    the bare Hermite base is absorbed into the phase through the eigenvalue
    relation F_r h_n = exp(-i n r) h_n, which is exact; the fold of
    :func:`normal_form` would round that phase.
    """
    if isinstance(n, bool) or n != int(n) or n < 0:
        raise ValueError(f"Hermite order must be a nonnegative integer, got {n!r}")
    n = int(n)
    ops = list(chain)
    phase = complex(phase)
    while ops and ops[-1].hermite_eigenvalue is not None:
        phase *= ops.pop().hermite_eigenvalue(n)
    return Window(n, tuple(ops), phase)


class NormalForm(NamedTuple):
    """The numbers of a window c pi(x, omega) Chirp(q) Dilation(a) h_n; the
    defaults are the identity's."""

    phase: complex
    x: float = 0.0
    omega: float = 0.0
    q: float = 0.0
    a: float = 1.0


# the kinds of a normal form, in its order; no two kinds share a field name
_CANONICAL = (TFShift, Chirp, Dilation)


def _expi(theta):
    # exp(i theta), exact where theta is a whole multiple of the float pi / 2,
    # so that a fold of real links keeps a real phase
    k = _quarter_turns(theta)
    return cmath.exp(1j * theta) if k is None else (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)[k]


@lru_cache(maxsize=64)
def normal_form(w):
    """The :class:`NormalForm` of a window: w = c pi(x, omega) Chirp(q) Dilation(a) h_n.

    A chain already in that order is read as it is; any other chain is
    folded whole.  The fold runs from the state c pi(x, omega) mu h_n with
    mu the metaplectic operator that maps exp(-pi t^2) to exp(i pi tau t^2),
    starting at (c, x, omega, tau) = (1, 0, 0, i); c is multiplied by the
    window's phase at the end.  A shift link pi(z) merges into pi(x, omega)
    by pi(z) pi(x, omega) = exp(-2 pi i z_x omega) pi(z + (x, omega)); any
    other link of matrix [[A, B], [C, D]] and angle rho (:class:`Op`) sets
    j = A + B tau, tau <- (C + D tau) / j,
    c <- c exp(i (rho / 2 - (n + 1/2) arg j)), and moves pi(x, omega) past
    itself: (x, omega) <- A (x, omega) with c <- c exp(i pi (x omega - x' omega')).
    A factor exp(i theta) whose theta is a whole multiple of pi / 2 is taken
    exactly from (1, i, -1, -i), so real links keep a real phase.
    At the end q = Re tau and a = (Im tau)^(-1/2).  Raises
    :class:`UnboundedWindow` when that arithmetic over- or underflows, or
    when a link changes a shift of 2**52 or more, where floats hold no
    fraction (a shift merged into none, or left as it is, is kept exactly).
    Cached per window.
    """
    kinds = [type(op) for op in w.chain]
    if kinds == [kind for kind in _CANONICAL if kind in kinds]:
        return NormalForm(w.phase, **{f: v for op in w.chain for f, v in vars(op).items()})
    c, x, omega, tau = 1.0 + 0.0j, 0.0, 0.0, 1j
    try:
        for op in reversed(w.chain):
            old = (x, omega)
            if op.angle is None:
                c *= _expi(-2.0 * math.pi * op.x * omega)
                x, omega = op.x + x, op.omega + omega
                moved = (op.x or op.omega) and old != (0.0, 0.0)
            else:
                (A, B), (C, D) = op.matrix().tolist()
                j = A + B * tau
                tau = (C + D * tau) / j
                x1, omega1 = A * x + B * omega, C * x + D * omega
                c *= _expi(0.5 * op.angle - (w.n + 0.5) * cmath.phase(j)
                           + math.pi * (x * omega - x1 * omega1))
                x, omega = x1, omega1
                moved = (x, omega) != old
            if moved and max(map(abs, old + (x, omega))) >= 2 ** 52:
                raise UnboundedWindow("a link changes a shift of 2**52 or more: "
                                      "its fraction is lost")
        a = tau.imag ** -0.5 if tau.imag > 0.0 else math.nan
    except (ArithmeticError, ValueError):
        a = math.nan
    if not (cmath.isfinite(c) and all(map(math.isfinite, (x, omega, tau.real)))
            and 0.0 < a < math.inf):
        raise UnboundedWindow("the normal form of the window over- or underflows a float")
    return NormalForm(w.phase * c, x, omega, tau.real, a)


def _values(h, u, x, omega, q, a, t):
    # exp(2 pi i omega t) exp(i pi q u^2) a^(-1/2) h, u = t - x and h the Hermite row
    # h_n(u / a), each factor skipped where it is 1.  numpy writes a product of large
    # arrays into an unnamed temporary operand, swapped if only the right one is such,
    # and complex products round differently swapped: keep their order and names
    vals = h.astype(complex) if np.ndim(h) else complex(h)
    if a != 1.0:
        vals /= math.sqrt(a)  # in place: no second array
    if q:
        vals = np.exp(1j * math.pi * q * np.square(u)) * vals
    if x or omega:
        vals = np.exp(2j * math.pi * omega * t) * vals
    return vals


def evaluate(w, t):
    """Window values at the points t, in closed form from the :func:`normal_form`."""
    c, x, omega, q, a = normal_form(w)
    t = np.asarray(t, dtype=float)
    u = t - x if x or omega else t
    return c * _values(hermite(w.n, u / a if a != 1.0 else u), u, x, omega, q, a, t)


def derivatives(w, t):
    """g, g' and g'' of a window g at the points t, stacked, exact from its
    :func:`normal_form` g = c exp(2 pi i omega t + i pi q u^2) a^(-1/2) h_n(u / a),
    u = t - x, and the ladder h_n' = sqrt(pi) (sqrt(n) h_(n-1) - sqrt(n + 1) h_(n+1)),
    from one Hermite recurrence to order n + 2; g has :func:`evaluate`'s bits."""
    c, x, omega, q, a = normal_form(w)
    n, t = w.n, np.asarray(t, dtype=float)
    u = t - x
    h_2, h_1, h0, h1, h2 = [0.0, 0.0, *hermite_stack(n + 2, u / a)][n:]  # h_(-2) = h_(-1) = 0
    g = c * _values(h0, u, x, omega, q, a, t)
    dh = math.sqrt(math.pi) * (math.sqrt(n) * h_1 - math.sqrt(n + 1) * h1) / a
    ddh = math.pi * (math.sqrt(n * (n - 1)) * h_2 - (2 * n + 1) * h0
                     + math.sqrt((n + 1) * (n + 2)) * h2) / (a * a)
    dphi = 2j * math.pi * (omega + q * u)  # the derivative of the exponent
    e = c / math.sqrt(a) * np.exp(1j * math.pi * (2.0 * omega * t + q * u * u))
    return np.stack([g, e * (dphi * h0 + dh),
                     e * ((dphi * dphi + 2j * math.pi * q) * h0 + 2.0 * dphi * dh + ddh)])


@lru_cache(maxsize=64)
def realize(w, extent=DEFAULT_EXTENT, step=DEFAULT_STEP):
    """Samples of a window on a uniform grid, as a :class:`SampledFunction`.

    Raises :class:`UnboundedWindow` when a sample is not finite.  Cached.
    """
    with np.errstate(all="ignore"):
        f = SampledFunction(evaluate(w, grid_points(extent, step)), step, extent)
    if not np.isfinite(f.values).all():
        raise UnboundedWindow("the window has non-finite samples")
    return f


@dataclass(frozen=True)
class GaussianEnvelope:
    """Bound |w(t)| <= amplitude (1 + |u|)^degree exp(-pi u^2 / scale^2), u = t - center."""

    amplitude: float
    degree: int
    scale: float
    center: float

    def __call__(self, t):
        u = np.abs(np.asarray(t, float) - self.center)
        return self.amplitude * (1.0 + u) ** self.degree \
            * np.exp(-math.pi * u * u / (self.scale * self.scale))

    def tail(self, dist):
        """Sum of the envelope at integer distances >= dist from the center.

        81 terms are summed.  The ratio of consecutive terms,
        ((j + 2) / (j + 1))^degree exp(-pi (2j + 1) / scale^2), falls with j,
        so the rest is at most the geometric series of the last ratio r:
        last r / (1 - r), and unbounded (inf) when r >= 1.
        """
        d = max(float(dist), 0.0)
        j = d + np.arange(0.0, 81.0)
        s2 = self.scale * self.scale
        # in log space, as (1 + j)^degree alone overflows; a scale whose
        # square underflows leaves only the center term
        with np.errstate(over="ignore"):
            vals = self.amplitude * (
                np.exp(self.degree * np.log1p(j) - math.pi * j * j / s2)
                if s2 > 0.0 else (j == 0.0) * 1.0)
        last, prev = float(vals[-1]), float(vals[-2])
        if last == 0.0:
            rest = 0.0
        elif last < prev:
            r = last / prev
            rest = last * r / (1.0 - r)
        else:
            rest = math.inf
        return 2.0 * (float(np.sum(vals)) + rest)


@lru_cache(maxsize=64)
def envelope(w):
    """Certified Gaussian-decay envelope of a window.

    From the :func:`normal_form`: |w(t)| = a^(-1/2) |h_n((t - x) / a)| and
    (1 + |u| / a)^n <= max(1, 1/a)^n (1 + |u|)^n, so the Hermite bound of
    scale 1 becomes amplitude C_n max(1, 1/a)^n / sqrt(a), scale a and
    center x.  :class:`UnboundedWindow` is raised when the amplitude
    overflows.  Built once per distinct window and cached.
    """
    _, x, _, _, a = normal_form(w)
    try:
        amp = hermite_envelope_constant(w.n) * (max(1.0, 1.0 / a) ** w.n / math.sqrt(a))
    except OverflowError:
        amp = math.inf
    if not math.isfinite(amp):
        raise UnboundedWindow("the closed-form envelope constant overflows a float")
    return GaussianEnvelope(amp, w.n, a, x)


def parity(w):
    """+1 / -1 for even / odd windows, from x = omega = 0 in the
    :func:`normal_form`; None for the others."""
    nf = normal_form(w)
    return None if nf.x or nf.omega else (-1) ** w.n


def is_real(w):
    """True when the window is real-valued on the real line: omega = q = 0
    and a real phase in the :func:`normal_form`."""
    nf = normal_form(w)
    return not (nf.omega or nf.q) and nf.phase.imag == 0.0


def shifted(w, x, omega):
    """The window pi(x, omega) w."""
    return window(w.n, (TFShift(float(x), float(omega)),) + w.chain, w.phase)


def descriptor(w):
    """JSON-ready description of a window."""
    chain = [{"op": op.tag, **{f: float(v) for f, v in vars(op).items()}}
             for op in w.chain]
    return {"hermite": w.n, "chain": chain,
            "phase": [w.phase.real, w.phase.imag]}


def parse_descriptor(d):
    """Inverse of :func:`descriptor`.

    Raises :class:`ValueError` when the chain is not a list of operator
    objects, names an unknown operator, lacks a numeric operator field (a
    bool or a string is not one), or holds a key that the operator does not
    have, and when the Hermite order is not a nonnegative integer.
    """
    entries = d.get("chain", ())
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"operator chain must be a list, got {entries!r}")
    kinds = {cls.tag: cls for cls in Op.__subclasses__()}
    chain = []
    for entry in entries:
        tag = entry.get("op") if isinstance(entry, dict) else None
        if not (isinstance(tag, str) and tag in kinds):
            raise ValueError(f"chain entry {entry!r} is not one of the "
                             f"operators {', '.join(kinds)}")
        fields = [f.name for f in dataclasses.fields(kinds[tag])]
        unknown = [k for k in entry if k != "op" and k not in fields]
        if unknown:
            raise ValueError(f"operator {tag!r} has no field "
                             f"{', '.join(map(repr, unknown))}, got {entry!r}")
        values = [entry.get(f) for f in fields]
        # JSON numbers only (a bool is an int), and ints only in the float range
        if not all(isinstance(v, float) or (type(v) is int and abs(v) <= sys.float_info.max)
                   for v in values):
            raise ValueError(f"operator {tag!r} needs the numeric fields "
                             f"{', '.join(fields)}, got {entry!r}")
        chain.append(kinds[tag](*map(float, values)))
    phase = d.get("phase", [1.0, 0.0])
    return window(d["hermite"], tuple(chain), complex(phase[0], phase[1]))
