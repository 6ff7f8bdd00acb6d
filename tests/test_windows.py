import cmath
import math

import numpy as np
import pytest

from gaborkit import windows
from gaborkit.operators import (Chirp, Dilation, Fourier, FrFT, TFShift,
                                apply_fourier, sinc_interpolate)
from gaborkit.windows import (closed_form, descriptor, envelope, evaluate,
                              fourier_window, is_real, parity,
                              parse_descriptor, realize, shifted, window)


def test_trailing_frft_becomes_eigenvalue_phase():
    w = window(3, (FrFT(0.7),))
    assert w.chain == ()
    assert w.phase == pytest.approx(cmath.exp(-2.1j))


def test_trailing_fourier_becomes_power_of_minus_i():
    w = window(2, (Fourier(),))
    assert w.chain == ()
    assert w.phase == pytest.approx((-1j) ** 2)
    w5 = window(5, (Dilation(2.0), Fourier()))
    assert w5.chain == (Dilation(2.0),)
    assert w5.phase == pytest.approx((-1j) ** 5)


def test_identity_operators_dropped():
    w = window(1, (Dilation(1.0), Chirp(0.0), TFShift(0.0, 0.0), FrFT(0.0)))
    assert w.chain == ()
    assert w.phase == 1.0 + 0.0j


def test_adjacent_merges():
    assert window(0, (Dilation(2.0), Dilation(3.0))).chain == (Dilation(6.0),)
    assert window(0, (Chirp(1.0), Chirp(-0.25))).chain == (Chirp(0.75),)
    assert window(0, (FrFT(0.3), Chirp(0.1), FrFT(0.5))).chain[0] == FrFT(0.3)
    merged = window(0, (FrFT(0.3), FrFT(0.5), Chirp(0.1)))
    assert merged.chain == (FrFT(0.8), Chirp(0.1))


def test_shift_merge_carries_commutation_phase():
    # T_{1/2} applied after M_{1/2} merges with the commutation phase
    w = window(0, (TFShift(0.5, 0.0), TFShift(0.0, 0.5)))
    assert w.chain == (TFShift(0.5, 0.5),)
    assert w.phase == pytest.approx(cmath.exp(-2j * math.pi * 0.25))
    t = np.linspace(-3.0, 3.0, 20)
    manual = np.exp(1j * np.pi * (t - 0.5)) * evaluate(window(0), t - 0.5)
    assert np.max(np.abs(evaluate(w, t) - manual)) < 1e-14


def test_closed_form_detection():
    assert closed_form(window(2, (Dilation(2.0), Chirp(0.3), TFShift(1.0, 2.0))))
    assert not closed_form(window(2, (FrFT(0.5), Chirp(0.3))))
    # FrFT on the bare base simplifies away, so this stays closed form
    assert closed_form(window(2, (Chirp(0.3), FrFT(0.5))))


def test_interpolated_evaluation_matches_sinc():
    w = window(2, (FrFT(0.5), Chirp(0.8)))
    rng = np.random.RandomState(3)
    ts = rng.uniform(-8.0, 8.0, 800)
    fast = evaluate(w, ts)
    slow = sinc_interpolate(realize(w), ts)
    assert np.max(np.abs(fast - slow)) < 1e-12


def test_realize_matches_closed_form():
    w = window(1, (TFShift(0.3, -0.7), Dilation(1.4)))
    f = realize(w)
    assert np.max(np.abs(f.values - evaluate(w, f.points))) < 1e-14


def test_fourier_window_against_quadrature():
    for w in (window(3), window(2, (Dilation(1.5),)),
              window(1, (TFShift(0.4, -0.3), Dilation(0.8)))):
        fw = fourier_window(w)
        assert fw is not None
        numeric = apply_fourier(realize(w))
        exact = evaluate(fw, numeric.points)
        defect = math.sqrt(float(np.sum(np.abs(numeric.values - exact) ** 2))
                           * numeric.step)
        assert defect < 1e-9
    assert fourier_window(window(0, (Chirp(0.5),))) is None


def test_envelope_dominates_closed_form_windows():
    t = np.linspace(-10.0, 10.0, 3001)
    cases = [window(0), window(4),
             window(2, (Dilation(0.6),)),
             window(3, (TFShift(1.5, 0.3), Dilation(1.7))),
             window(5, (Chirp(0.9), Dilation(0.5)))]
    for w in cases:
        env = envelope(w)
        assert np.all(np.abs(evaluate(w, t)) <= env(t) + 1e-15)


def test_envelope_dominates_interpolated_window():
    w = window(2, (FrFT(0.5), Chirp(0.8)))
    env = envelope(w)
    f = realize(w)
    assert np.all(np.abs(f.values) <= env(f.points) + 1e-12)


def test_operator_kind_is_part_of_window_identity():
    # Chirp(q) and Dilation(q) are equal as plain tuples; the cached
    # realization and envelope must still tell the windows apart
    a = window(0, (FrFT(0.5), Chirp(0.7)))
    b = window(0, (FrFT(0.5), Dilation(0.7)))
    assert a != b
    assert np.max(np.abs(realize(a).values - realize(b).values)) > 0.1
    assert envelope(window(0, (Chirp(0.7),))) != envelope(window(0, (Dilation(0.7),)))


def test_parity_and_reality():
    assert parity(window(4)) == 1
    assert parity(window(3)) == -1
    assert parity(window(2, (Dilation(2.0), Chirp(0.4)))) == 1
    assert parity(window(2, (TFShift(0.5, 0.0),))) is None
    assert is_real(window(2, (Dilation(2.0),)))
    assert not is_real(window(2, (Chirp(0.1),)))


def test_shifted_helper():
    w = shifted(window(2), 0.25, 0.5)
    assert w.chain == (TFShift(0.25, 0.5),)


def test_descriptor_round_trip():
    w = window(3, (TFShift(0.25, 0.5), FrFT(0.8), Chirp(-0.2), Dilation(2.0)),
               phase=cmath.exp(0.3j))
    d = descriptor(w)
    w2 = parse_descriptor(d)
    assert w2 == w
    t = np.linspace(-2.0, 2.0, 9)
    assert np.max(np.abs(evaluate(w, t) - evaluate(w2, t))) == 0.0


@pytest.mark.parametrize("entry, key", [
    ({"op": "dilation", "a": 2.0, "omgea": 1.0}, "omgea"),
    ({"op": "fourier", "r": 3.0}, "r"),
    ({"op": "tfshift", "x": 0.5, "omega": 0.0, "y": 0.0}, "y"),
])
def test_parse_descriptor_rejects_unknown_operator_keys(entry, key):
    with pytest.raises(ValueError, match=f"'{entry['op']}' has no field '{key}'"):
        parse_descriptor({"hermite": 1, "chain": [entry]})


def test_each_interpolated_window_is_realized_once():
    # the envelope and the interpolation of a window share one realization
    from gaborkit.frames import GaborSystem, frame_bounds, reduce_to_multiwindow
    from gaborkit.lattices import PRESETS
    from gaborkit.zak import auto_truncation
    w = window(1, (FrFT(0.8), Chirp(0.7)))
    system = reduce_to_multiwindow(GaborSystem([w], PRESETS["Z2-union-half"]))
    for cached in (realize, envelope, auto_truncation, windows._fine_realization):
        cached.cache_clear()
    frame_bounds(system, 32)
    assert realize.cache_info().misses == len(set(system.windows)) == 2
