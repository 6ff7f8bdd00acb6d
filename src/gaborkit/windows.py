"""Symbolic window descriptions: a Hermite order plus a chain of operators.

Every window is c pi(x, omega) Chirp(q) Dilation(a) h_n: each operator is
metaplectic or a shift, so it maps that form to another one through its
2 x 2 matrix.  :func:`normal_form` folds a chain into it, and the values,
the decay envelope and the Fourier transform of every window, pointwise or
not, are read from those numbers.  A fractional link on the bare Hermite
base collapses to the eigenvalue phase exp(-i n r) already when the window
is built.
"""

import cmath
import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnboundedWindow
from .operators import (DEFAULT_EXTENT, DEFAULT_STEP, Chirp, Dilation, Op,
                        SampledFunction, TFShift, grid_points)
from .special import hermite, hermite_envelope_constant


@dataclass(frozen=True)
class Window:
    """Hermite order, operator chain (leftmost acts last), unimodular phase."""

    n: int
    chain: tuple = ()
    phase: complex = 1.0 + 0.0j


def window(n, chain=(), phase=1.0):
    """Build a window, normalizing its operator chain.

    Identity operators are dropped, adjacent operators of the same kind are
    merged (exactly, including the commutation phase for shifts), and a
    trailing fractional Fourier transform or Fourier transform acting on the
    bare Hermite base is absorbed into the phase via the eigenvalue relation
    F_r h_n = exp(-i n r) h_n.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"Hermite order must be a nonnegative integer, got {n!r}")
    n = int(n)
    ops = list(chain)
    phase = complex(phase)
    while True:
        if ops and ops[-1].hermite_eigenvalue is not None:
            phase *= ops.pop().hermite_eigenvalue(n)
            continue
        i = next((i for i, op in enumerate(ops) if op.is_identity()), None)
        if i is not None:
            del ops[i]
            continue
        i = next((i for i in range(len(ops) - 1) if ops[i].merge is not None
                  and type(ops[i]) is type(ops[i + 1])), None)
        if i is None:
            return Window(n, tuple(ops), phase)
        op, extra_phase = ops[i].merge(ops[i + 1])
        phase *= extra_phase
        ops[i:i + 2] = [op]


_CANONICAL = (TFShift, Chirp, Dilation)
# the fields of the canonical kinds at the identity; no two kinds share a name
_IDENTITY = {"x": 0.0, "omega": 0.0, "q": 0.0, "a": 1.0}


def _canonical(chain):
    """(x, omega, q, a) of a chain whose kinds are a subsequence of
    (TFShift, Chirp, Dilation), with the identity's values for the kinds it
    lacks; None for any other chain."""
    kinds = [type(op) for op in chain]
    if kinds != [kind for kind in _CANONICAL if kind in kinds]:
        return None
    params = dict(_IDENTITY)
    for op in chain:
        params.update(vars(op))
    return tuple(params.values())


@lru_cache(maxsize=64)
def normal_form(w):
    """The equal window c pi(x, omega) Chirp(q) Dilation(a) h_n.

    A window whose chain is already in that order is returned as it is;
    any other chain is folded whole.  The fold runs from the state
    c pi(x, omega) mu h_n with mu the metaplectic operator that maps
    exp(-pi t^2) to exp(i pi tau t^2), starting at (c, x, omega, tau) =
    (1, 0, 0, i).  A shift merges into pi(x, omega); any other link of
    matrix [[A, B], [C, D]] and angle rho (:class:`Op`) sets j = A + B tau,
    tau <- (C + D tau) / j, c <- c exp(i (rho / 2 - (n + 1/2) arg j)), and
    moves pi(x, omega) past itself: (x, omega) <- A (x, omega) with
    c <- c exp(i pi (x omega - x' omega')).  At the end q = Re tau and
    a = (Im tau)^(-1/2).  Raises :class:`UnboundedWindow` when that
    arithmetic over- or underflows.  Cached per window.
    """
    if _canonical(w.chain) is not None:
        return w
    c, x, omega, tau = 1.0 + 0.0j, 0.0, 0.0, 1j
    try:
        for op in reversed(w.chain):
            if op.angle is None:
                shift, extra = op.merge(TFShift(x, omega))
                c, x, omega = c * extra, shift.x, shift.omega
                continue
            (A, B), (C, D) = op.matrix().tolist()
            j = A + B * tau
            tau = (C + D * tau) / j
            x1, omega1 = A * x + B * omega, C * x + D * omega
            c *= cmath.exp(1j * (0.5 * op.angle - (w.n + 0.5) * cmath.phase(j)
                                 + math.pi * (x * omega - x1 * omega1)))
            x, omega = x1, omega1
        a = tau.imag ** -0.5 if tau.imag > 0.0 else math.nan
        tail = (TFShift(x, omega), Chirp(tau.real), Dilation(a))
    except (ArithmeticError, ValueError):
        tail = None
    if tail is None or not cmath.isfinite(c):
        raise UnboundedWindow("the normal form of the window over- or underflows a float")
    return window(w.n, tail, w.phase * c)


def _hermite(n, t):
    h = hermite(n, t)
    return h.astype(complex) if np.ndim(h) else complex(h)


def _values(n, x, omega, q, a, t):
    # exp(2 pi i omega t) exp(i pi q u^2) a^(-1/2) h_n(u / a), u = t - x,
    # each factor skipped where it is 1.  Each product and quotient, the
    # caller's phase product included, has an unnamed temporary operand,
    # which numpy reuses as the output of a large array; its complex
    # multiply rounds differently in place than into a new array, so naming
    # an intermediate would move the last bits of every value
    u = t - x if x or omega else t
    vals = _hermite(n, u / a) / math.sqrt(a) if a != 1.0 else _hermite(n, u)
    if q:
        vals = np.exp(1j * math.pi * q * np.square(u)) * vals
    if x or omega:
        vals = np.exp(2j * math.pi * omega * t) * vals
    return vals


def evaluate(w, t):
    """Window values at the points t, in closed form from the :func:`normal_form`."""
    w = normal_form(w)
    return w.phase * _values(w.n, *_canonical(w.chain), np.asarray(t, dtype=float))


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
        # a scale whose square underflows leaves only the center term
        decay = np.exp(-math.pi * j * j / s2) if s2 > 0.0 else (j == 0.0) * 1.0
        vals = self.amplitude * (1.0 + j) ** self.degree * decay
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
    x, _, _, a = _canonical(normal_form(w).chain)
    try:
        amp = hermite_envelope_constant(w.n) * (max(1.0, 1.0 / a) ** w.n / math.sqrt(a))
    except OverflowError:
        amp = math.inf
    if not math.isfinite(amp):
        raise UnboundedWindow("the closed-form envelope constant overflows a float")
    return GaussianEnvelope(amp, w.n, a, x)


def parity(w):
    """+1 / -1 for even / odd windows, None when parity is not preserved."""
    if not all(op.keeps_parity for op in w.chain):
        return None
    return 1 if w.n % 2 == 0 else -1


def is_real(w):
    """True when the window is real-valued on the real line."""
    return w.phase.imag == 0.0 and all(op.keeps_real for op in w.chain)


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
    objects, names an unknown operator, lacks a numeric operator field, or
    holds a key that the operator does not have.
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
        try:
            chain.append(kinds[tag](*(float(entry[f]) for f in fields)))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"operator {tag!r} needs the numeric fields "
                             f"{', '.join(fields)}, got {entry!r}") from exc
    phase = d.get("phase", [1.0, 0.0])
    return window(int(d["hermite"]), tuple(chain), complex(phase[0], phase[1]))
