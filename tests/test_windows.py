import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from gaborkit.errors import UnboundedWindow
from gaborkit.operators import (Chirp, Dilation, Fourier, FrFT, TFShift,
                                apply_chain, apply_fourier)
from gaborkit.special import hermite
from gaborkit.windows import (descriptor, envelope, evaluate, is_real,
                              normal_form, parity, parse_descriptor, realize,
                              shifted, window)
from gaborkit.zak import verify_identities


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


def kinds(w):
    return [type(op) for op in w.chain]


def test_closed_form_detection():
    # a chain in the order (TFShift, Chirp, Dilation) is its own normal form,
    # the same object; every other chain is folded whole into that order
    for w in (window(2, (TFShift(1.0, 2.0), Chirp(0.3), Dilation(2.0))),
              window(1, (TFShift(0.5, 0.0), Dilation(0.7))), window(3)):
        assert normal_form(w) is w
    # FrFT on the bare base simplifies away, so this is canonical
    bare = window(2, (Chirp(0.3), FrFT(0.5)))
    assert normal_form(bare) is bare
    folded = normal_form(window(2, (Dilation(0.5), FrFT(0.5), Chirp(0.3))))
    assert kinds(folded) == [Chirp, Dilation]
    shifted_fold = normal_form(window(1, (Fourier(), TFShift(0.5, 0.25))))
    assert shifted_fold.chain[0] == TFShift(0.25, -0.5)
    assert kinds(shifted_fold) == [TFShift]
    # a pointwise chain out of that order is folded too:
    # D_2 C_0.3 pi(1, 2) h_2 (t) = 2^(-1/2) exp(i pi 0.3 u^2)
    # exp(2 pi i 2 u) h_2(u - 1), u = t / 2
    w = window(2, (Dilation(2.0), Chirp(0.3), TFShift(1.0, 2.0)))
    assert kinds(normal_form(w)) == [TFShift, Chirp, Dilation]
    t = np.linspace(-6.0, 10.0, 801)
    u = t / 2.0
    composed = np.exp(1j * math.pi * 0.3 * u * u) * np.exp(4j * math.pi * u) \
        * hermite(2, u - 1.0) / math.sqrt(2.0)
    assert np.max(np.abs(evaluate(w, t) - composed)) <= 1e-14


def test_folded_evaluation_matches_quadrature():
    # the normal form against the FrFT quadrature applied to sampled h_n
    for w in (window(2, (FrFT(0.5), Chirp(0.8))),
              window(3, (Chirp(-0.4), FrFT(2.2), TFShift(0.7, -0.3), Dilation(1.3))),
              window(1, (Fourier(), Chirp(0.5), FrFT(-2.5), Dilation(0.8)))):
        f = realize(window(w.n))
        numeric = w.phase * apply_chain(w.chain, f).values
        assert np.max(np.abs(evaluate(w, f.points) - numeric)) < 1e-10


@pytest.mark.parametrize("chain", [
    (FrFT(0.5), Dilation(5e-324)),
    (FrFT(0.5), Dilation(1e-200)),
    (Fourier(), Chirp(1.0), Dilation(1e300)),
], ids=["subnormal", "tiny", "huge"])
def test_fold_that_overflows_raises_unbounded_window(chain):
    with pytest.raises(UnboundedWindow, match="normal form"):
        normal_form(window(2, chain))


def test_realize_matches_closed_form():
    w = window(1, (TFShift(0.3, -0.7), Dilation(1.4)))
    f = realize(w)
    assert np.max(np.abs(f.values - evaluate(w, f.points))) < 1e-14


def test_fourier_window_against_quadrature():
    # the Fourier partner of a window is the window behind a Fourier link,
    # in closed form through the normal form
    for w in (window(3), window(2, (Dilation(1.5),)),
              window(1, (TFShift(0.4, -0.3), Dilation(0.8)))):
        fw = window(w.n, (Fourier(),) + w.chain, w.phase)
        numeric = apply_fourier(realize(w))
        exact = evaluate(fw, numeric.points)
        defect = math.sqrt(float(np.sum(np.abs(numeric.values - exact) ** 2))
                           * numeric.step)
        assert defect < 1e-9


def test_envelope_dominates_closed_form_windows():
    t = np.linspace(-10.0, 10.0, 3001)
    cases = [window(0), window(4),
             window(2, (Dilation(0.6),)),
             window(3, (TFShift(1.5, 0.3), Dilation(1.7))),
             window(5, (Chirp(0.9), Dilation(0.5)))]
    for w in cases:
        env = envelope(w)
        assert np.all(np.abs(evaluate(w, t)) <= env(t) + 1e-15)


def test_envelope_dominates_folded_window():
    t = np.linspace(-10.0, 10.0, 3001)
    for w in (window(2, (FrFT(0.5), Chirp(0.8))),
              window(4, (TFShift(1.0, 0.5), FrFT(1.1), Dilation(0.6)))):
        env = envelope(w)
        assert np.all(np.abs(evaluate(w, t)) <= env(t) + 1e-15)


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


def test_parity_and_reality_read_the_normal_form():
    # the two shifts cancel through the dilation: the chain folds to x = 0
    chain = (TFShift(0.6, 0.0), Dilation(2.0), TFShift(-0.3, 0.0))
    assert normal_form(window(3, chain)).chain == (Dilation(2.0),)
    assert parity(window(3, chain)) == -1 and parity(window(2, chain)) == 1
    assert is_real(window(3, chain))
    # a time shift keeps a window real but not even; a modulation, a chirp
    # or a complex phase makes it complex
    assert is_real(window(1, (TFShift(0.4, 0.0), Dilation(1.5))))
    assert parity(window(1, (TFShift(0.4, 0.0),))) is None
    assert not is_real(window(1, (TFShift(0.0, 0.4),)))
    assert not is_real(window(1, (Dilation(1.5),), phase=1j))
    rep = verify_identities(window(3, chain), [(0.1, 0.2), (0.7, 0.4)])
    assert rep["parity_zeros"] <= 1e-12 and rep["conjugate_symmetry"] <= 1e-12


def test_envelope_tail_of_a_high_order_is_summed_in_log_space():
    # (1 + j)^150 alone overflows a float from j of about 112; the tail still
    # matches a 40-digit sum of its 81 terms, and is warning-free past there
    env = envelope(window(150))
    with mp.workdps(40):
        for d in (0.0, 7.0):
            ref = 2 * mp.fsum(env.amplitude * mp.mpf(1 + d + j) ** 150
                              * mp.exp(-mp.pi * (d + j) ** 2) for j in range(81))
            assert env.tail(d) == pytest.approx(float(ref), rel=1e-13)
    assert env.tail(120.0) == 0.0


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


def test_each_fractional_window_is_folded_once():
    # the envelope and every evaluation of a window share one fold, and no
    # window is sampled
    from gaborkit.frames import GaborSystem, frame_bounds, reduce_to_multiwindow
    from gaborkit.lattices import PRESETS
    from gaborkit.zak import auto_truncation
    w = window(1, (FrFT(0.8), Chirp(0.7)))
    system = reduce_to_multiwindow(GaborSystem([w], PRESETS["Z2-union-half"]))
    for cached in (realize, envelope, auto_truncation, normal_form):
        cached.cache_clear()
    frame_bounds(system, 32)
    assert normal_form.cache_info().misses == len(set(system.windows)) == 2
    assert realize.cache_info().misses == 0
