"""Symbolic window descriptions: a Hermite order plus a chain of operators.

A window is evaluable in closed form whenever its chain contains only
pointwise operators (dilation, chirp, time-frequency shift).  A fractional
Fourier link forces evaluation through a sampled realization with
band-limited interpolation, except when it acts directly on the bare Hermite
base, where it collapses to the eigenvalue phase exp(-i n r).
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnboundedWindow
from .operators import (DEFAULT_EXTENT, DEFAULT_STEP, Chirp, Dilation, Fourier,
                        FrFT, POINTWISE_OPS, SampledFunction, TFShift, UPSAMPLE,
                        apply_op, grid_points, local_interpolate, upsample)
from .special import hermite, hermite_envelope_constant

_TAU = 2.0 * math.pi

# error budget added to Zak tail bounds for interpolated (sampled) windows
INTERPOLATION_BUDGET = 1e-9


@dataclass(frozen=True)
class Window:
    """Hermite order, operator chain (leftmost acts last), unimodular phase."""

    n: int
    chain: tuple = ()
    phase: complex = 1.0 + 0.0j

    # Operators are named tuples, and tuples of equal fields compare equal
    # whatever their kind (Chirp(q) == Dilation(q)); the per-window caches
    # below need the kind of each link to be part of a window's identity.
    def _key(self):
        return self.n, tuple((type(op), op) for op in self.chain), self.phase

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def window(n, chain=(), phase=1.0):
    """Build a window, normalizing its operator chain.

    Identity operators are dropped, adjacent operators of the same kind are
    merged (exactly, including the commutation phase for shifts), and a
    trailing fractional Fourier transform or Fourier transform acting on the
    bare Hermite base is absorbed into the phase via the eigenvalue relation
    F_r h_n = exp(-i n r) h_n.  Dilation factors must be finite and > 0.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"Hermite order must be a nonnegative integer, got {n!r}")
    n = int(n)
    ops = list(chain)
    for op in ops:
        if isinstance(op, Dilation) and not (math.isfinite(op.a) and op.a > 0):
            raise ValueError(f"dilation requires a > 0, got {op.a!r}")
    phase = complex(phase)
    changed = True
    while changed:
        changed = False
        if ops and isinstance(ops[-1], FrFT):
            phase *= cmath.exp(-1j * n * ops[-1].r)
            ops.pop()
            changed = True
            continue
        if ops and isinstance(ops[-1], Fourier):
            phase *= (-1j) ** n
            ops.pop()
            changed = True
            continue
        for i, op in enumerate(ops):
            if _is_identity(op):
                del ops[i]
                changed = True
                break
        if changed:
            continue
        for i in range(len(ops) - 1):
            merged = _merge(ops[i], ops[i + 1])
            if merged is not None:
                op, extra_phase = merged
                phase *= extra_phase
                ops[i:i + 2] = [op]
                changed = True
                break
    return Window(n, tuple(ops), phase)


def _is_identity(op):
    if isinstance(op, Dilation):
        return op.a == 1.0
    if isinstance(op, Chirp):
        return op.q == 0.0
    if isinstance(op, TFShift):
        return op.x == 0.0 and op.omega == 0.0
    if isinstance(op, FrFT):
        rm = op.r % _TAU
        return min(rm, _TAU - rm) < 1e-12
    return False


def _merge(left, right):
    # left is applied after right
    if isinstance(left, Dilation) and isinstance(right, Dilation):
        return Dilation(left.a * right.a), 1.0
    if isinstance(left, Chirp) and isinstance(right, Chirp):
        return Chirp(left.q + right.q), 1.0
    if isinstance(left, FrFT) and isinstance(right, FrFT):
        return FrFT(left.r + right.r), 1.0
    if isinstance(left, TFShift) and isinstance(right, TFShift):
        # pi(z1) pi(z2) = exp(-2 pi i x1 omega2) pi(z1 + z2)
        extra = cmath.exp(-2j * math.pi * left.x * right.omega)
        return TFShift(left.x + right.x, left.omega + right.omega), extra
    return None


def closed_form(w):
    """True when every chain link evaluates pointwise."""
    return all(isinstance(op, POINTWISE_OPS) for op in w.chain)


def _eval_pointwise(n, ops, t):
    if not ops:
        return hermite(n, t).astype(complex) if np.ndim(t) else complex(hermite(n, t))
    op, rest = ops[0], ops[1:]
    if isinstance(op, Dilation):
        return _eval_pointwise(n, rest, t / op.a) / math.sqrt(op.a)
    if isinstance(op, Chirp):
        return np.exp(1j * math.pi * op.q * np.square(t)) * _eval_pointwise(n, rest, t)
    if isinstance(op, TFShift):
        return np.exp(2j * math.pi * op.omega * np.asarray(t, float)) \
            * _eval_pointwise(n, rest, t - op.x)
    raise TypeError(f"operator {op!r} has no pointwise form")


def evaluate(w, t):
    """Window values at the points t (closed form or interpolated)."""
    t = np.asarray(t, dtype=float)
    if closed_form(w):
        return w.phase * _eval_pointwise(w.n, w.chain, t)
    return _interp_evaluate(w, t)


@lru_cache(maxsize=32)
def _fine_realization(w, extent=DEFAULT_EXTENT, step=DEFAULT_STEP):
    f = realize(w, extent, step)
    return upsample(f.values), step / UPSAMPLE


def _interp_evaluate(w, t):
    fine, h = _fine_realization(w)
    return local_interpolate(fine, h, DEFAULT_EXTENT, t)


@lru_cache(maxsize=64)
def realize(w, extent=DEFAULT_EXTENT, step=DEFAULT_STEP):
    """Sampled realization of a window on a uniform grid.

    The maximal pointwise suffix of the chain is evaluated exactly; the
    remaining operators (fractional Fourier links and anything left of them)
    are applied numerically.
    """
    pts = grid_points(extent, step)
    if closed_form(w):
        return SampledFunction(evaluate(w, pts), step, extent)
    split = max(i for i, op in enumerate(w.chain) if not isinstance(op, POINTWISE_OPS))
    suffix = Window(w.n, w.chain[split + 1:], 1.0 + 0.0j)
    f = SampledFunction(evaluate(suffix, pts), step, extent)
    for j in range(split, -1, -1):
        f = apply_op(w.chain[j], f)
    return SampledFunction(w.phase * f.values, step, extent)


@dataclass(frozen=True)
class GaussianEnvelope:
    """Bound |w(t)| <= amplitude (1 + |u|)^degree exp(-pi u^2 / scale^2), u = t - center."""

    amplitude: float
    degree: int
    scale: float
    center: float
    slack: float = 0.0  # absolute floor added for interpolated windows

    def __call__(self, t):
        u = np.abs(np.asarray(t, float) - self.center)
        return self.amplitude * (1.0 + u) ** self.degree \
            * np.exp(-math.pi * u * u / (self.scale * self.scale)) + self.slack

    def tail(self, dist):
        """Sum of the decaying envelope at integer distances >= dist from the center.

        The interpolation slack floor is not included; callers add
        :attr:`floor` once to reported tail bounds.
        """
        d = max(float(dist), 0.0)
        j = d + np.arange(0.0, 81.0)
        vals = self.amplitude * (1.0 + j) ** self.degree \
            * np.exp(-math.pi * j * j / (self.scale * self.scale))
        # superexponential decay: last kept term dominates everything beyond
        return 2.0 * (float(np.sum(vals)) + float(vals[-1]))

    @property
    def floor(self):
        """Absolute uncertainty floor carried by interpolated windows."""
        return 2.0 * self.slack


@lru_cache(maxsize=64)
def envelope(w):
    """Certified Gaussian-decay envelope of a window.

    Closed-form chains propagate the analytic Hermite bound through each
    operator.  Interpolated windows are certified numerically from their
    sampled realization; :class:`UnboundedWindow` is raised when no Gaussian
    profile dominates the samples.  Built once per distinct window and
    cached.
    """
    if closed_form(w):
        amp = hermite_envelope_constant(w.n)
        scale, center = 1.0, 0.0
        for op in reversed(w.chain):
            if isinstance(op, Dilation):
                amp *= max(1.0, 1.0 / op.a) ** w.n / math.sqrt(op.a)
                scale *= op.a
                center *= op.a
            elif isinstance(op, TFShift):
                center += op.x
        return GaussianEnvelope(amp, w.n, scale, center)
    return _numeric_envelope(w)


def _numeric_envelope(w):
    f = realize(w)
    pts = f.points
    mag = np.abs(f.values)
    peak = mag.max()
    if peak == 0.0:
        raise UnboundedWindow("window realization is identically zero")
    weights = mag * mag
    center = float(np.sum(pts * weights) / np.sum(weights))
    sigma = math.sqrt(float(np.sum((pts - center) ** 2 * weights) / np.sum(weights)))
    bulk = mag > 1e-13 * peak
    u = np.abs(pts - center)
    for factor in (1.5, 2.0, 3.0, 4.0):
        scale = max(math.sqrt(_TAU) * sigma * factor, 0.5)
        profile = (1.0 + u) ** w.n * np.exp(-math.pi * u * u / (scale * scale))
        amp = float(np.max(mag[bulk] / profile[bulk])) * 1.5
        # accept once the fit is not driven by the edge of the bulk region
        peak_at = int(np.argmax(mag / np.maximum(profile, 1e-300) * bulk))
        edge = u[bulk].max()
        if u[peak_at] < 0.9 * edge and scale < f.extent / 2.0:
            boundary = float(max(mag[0], mag[-1]))
            return GaussianEnvelope(amp, w.n, scale, center,
                                    slack=boundary + INTERPOLATION_BUDGET)
    raise UnboundedWindow(
        "no Gaussian envelope certified for the sampled window realization")


def is_interpolated(w):
    """True when Zak evaluation of w goes through a sampled realization."""
    return not closed_form(w)


def parity(w):
    """+1 / -1 for even / odd windows, None when parity is not preserved."""
    if any(isinstance(op, TFShift) for op in w.chain):
        return None
    return 1 if w.n % 2 == 0 else -1


def is_real(w):
    """True when the window is real-valued on the real line."""
    return w.phase.imag == 0.0 and all(isinstance(op, Dilation) for op in w.chain)


def fourier_window(w):
    """Closed-form Fourier transform of a window, or None.

    Uses F h_n = (-i)^n h_n on the base together with the exchange rules
    F D_a = D_{1/a} F and F pi(x, omega) = exp(2 pi i x omega) pi(omega, -x) F.
    Chirp links and fractional links have no closed-form image here.
    """
    ops = []
    phase = w.phase * (-1j) ** w.n
    for op in w.chain:
        if isinstance(op, Dilation):
            ops.append(Dilation(1.0 / op.a))
        elif isinstance(op, TFShift):
            phase *= cmath.exp(2j * math.pi * op.x * op.omega)
            ops.append(TFShift(op.omega, -op.x))
        else:
            return None
    return window(w.n, tuple(ops), phase)


def shifted(w, x, omega):
    """The window pi(x, omega) w."""
    return window(w.n, (TFShift(float(x), float(omega)),) + w.chain, w.phase)


_OP_TAGS = {
    "dilation": (Dilation, ("a",)),
    "chirp": (Chirp, ("q",)),
    "frft": (FrFT, ("r",)),
    "tfshift": (TFShift, ("x", "omega")),
    "fourier": (Fourier, ()),
}


def descriptor(w):
    """JSON-ready description of a window."""
    chain = []
    for op in w.chain:
        for tag, (cls, fields) in _OP_TAGS.items():
            if isinstance(op, cls):
                chain.append({"op": tag, **{f: float(getattr(op, f)) for f in fields}})
                break
        else:
            raise TypeError(f"unknown operator {op!r}")
    return {"hermite": w.n, "chain": chain,
            "phase": [w.phase.real, w.phase.imag]}


def parse_descriptor(d):
    """Inverse of :func:`descriptor`.

    Raises :class:`ValueError` when the chain is not a list of operator
    objects, names an unknown operator, or lacks a numeric operator field.
    """
    entries = d.get("chain", ())
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"operator chain must be a list, got {entries!r}")
    chain = []
    for entry in entries:
        tag = entry.get("op") if isinstance(entry, dict) else None
        if not (isinstance(tag, str) and tag in _OP_TAGS):
            raise ValueError(f"chain entry {entry!r} is not one of the "
                             f"operators {', '.join(_OP_TAGS)}")
        cls, fields = _OP_TAGS[tag]
        try:
            chain.append(cls(*(float(entry[f]) for f in fields)))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"operator {tag!r} needs the numeric fields "
                             f"{', '.join(fields)}, got {entry!r}") from exc
    phase = d.get("phase", [1.0, 0.0])
    return window(int(d["hermite"]), tuple(chain), complex(phase[0], phase[1]))
