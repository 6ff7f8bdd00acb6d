"""Symbolic window descriptions: a Hermite order plus a chain of operators.

A window is evaluable in closed form whenever its chain contains only
pointwise operators (dilation, chirp, time-frequency shift).  A fractional
Fourier link forces evaluation through a sampled realization with
band-limited interpolation, except when it acts directly on the bare Hermite
base, where it collapses to the eigenvalue phase exp(-i n r).
"""

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnboundedWindow
from .operators import (DEFAULT_EXTENT, DEFAULT_STEP, Op, SampledFunction,
                        TFShift, UPSAMPLE, apply_chain, grid_points,
                        local_interpolate, upsample)
from .special import hermite, hermite_envelope_constant

# error budget added to Zak tail bounds for interpolated (sampled) windows
INTERPOLATION_BUDGET = 1e-9


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


def closed_form(w):
    """True when every chain link evaluates pointwise."""
    return all(op.at is not None for op in w.chain)


def _eval_pointwise(n, ops, t):
    if not ops:
        return hermite(n, t).astype(complex) if np.ndim(t) else complex(hermite(n, t))
    return ops[0].at(lambda u: _eval_pointwise(n, ops[1:], u), t)


def evaluate(w, t):
    """Window values at the points t (closed form or interpolated)."""
    t = np.asarray(t, dtype=float)
    if closed_form(w):
        return w.phase * _eval_pointwise(w.n, w.chain, t)
    fine, h = _fine_realization(w)
    return local_interpolate(fine, h, DEFAULT_EXTENT, t)


@lru_cache(maxsize=32)
def _fine_realization(w):
    # realize(w) exactly as _numeric_envelope calls it, to share its cache entry
    return upsample(realize(w).values), DEFAULT_STEP / UPSAMPLE


@lru_cache(maxsize=64)
def realize(w, extent=DEFAULT_EXTENT, step=DEFAULT_STEP):
    """Sampled realization of a window on a uniform grid.

    The maximal pointwise suffix of the chain is evaluated exactly (and must
    be finite, else :class:`UnboundedWindow`); the remaining operators
    (fractional Fourier links and anything left of them) are applied numerically.
    """
    pts = grid_points(extent, step)
    if closed_form(w):
        return SampledFunction(evaluate(w, pts), step, extent)
    split = max(i for i, op in enumerate(w.chain) if op.at is None)
    suffix = Window(w.n, w.chain[split + 1:], 1.0 + 0.0j)
    f = SampledFunction(evaluate(suffix, pts), step, extent)
    if not np.isfinite(f.values).all():
        raise UnboundedWindow("the pointwise part of the window has non-finite samples")
    f = apply_chain(w.chain[:split + 1], f)
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
    operator; interpolated windows are certified numerically from their
    sampled realization.  :class:`UnboundedWindow` is raised when the bound
    overflows or no Gaussian profile dominates the samples.  Built once per
    distinct window and cached.
    """
    if closed_form(w):
        amp = hermite_envelope_constant(w.n)
        scale, center = 1.0, 0.0
        try:
            for op in reversed(w.chain):
                amp, scale, center = op.envelope_step(w.n, amp, scale, center)
        except OverflowError:
            amp = math.inf
        if not math.isfinite(amp):
            raise UnboundedWindow("the closed-form envelope constant overflows a float")
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
        scale = max(math.sqrt(math.tau) * sigma * factor, 0.5)
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


def parity(w):
    """+1 / -1 for even / odd windows, None when parity is not preserved."""
    if not all(op.keeps_parity for op in w.chain):
        return None
    return 1 if w.n % 2 == 0 else -1


def is_real(w):
    """True when the window is real-valued on the real line."""
    return w.phase.imag == 0.0 and all(op.keeps_real for op in w.chain)


def fourier_window(w):
    """Closed-form Fourier transform of a window, or None.

    Uses F h_n = (-i)^n h_n on the base and the Fourier exchange of each
    link (:meth:`Op.fourier`); chirp and fractional links have none.
    """
    ops = []
    phase = w.phase * (-1j) ** w.n
    for op in w.chain:
        if op.fourier is None:
            return None
        image, phase = op.fourier(phase)
        ops.append(image)
    return window(w.n, tuple(ops), phase)


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
