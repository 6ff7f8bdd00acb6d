import math

import mpmath as mp
import numpy as np
import pytest

from gaborkit.special import (ThetaValue, hermite, hermite_envelope_constant,
                              hermite_stack, theta3)

# high-precision reference values (independent Rodrigues-form evaluation)
H5_AT_0P7 = -0.5004382942630994149365053
H3_AT_1P3 = 0.2017862081051937954213691
H8_AT_M2P1 = 0.03012295030639383539648013
THETA3_AT_1 = 1.086434811213308014575316


def hermite_rodrigues(n, t):
    """Independent oracle: n-th derivative Rodrigues form in 40-digit arithmetic.

    The n-th derivative of exp(-2 pi t^2) is P_n(t) exp(-2 pi t^2) with
    P_0 = 1 and P_{k+1} = P_k' - 4 pi t P_k; the coefficients are built
    exactly in extended precision, never touching the three-term recurrence
    under test.
    """
    with mp.workdps(40):
        four_pi = 4 * mp.pi
        coeffs = [mp.mpf(1)]
        for _ in range(n):
            nxt = [mp.mpf(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                if i >= 1:
                    nxt[i - 1] += i * c
                nxt[i + 1] -= four_pi * c
            coeffs = nxt
        tm = mp.mpf(t)
        poly = mp.fsum(c * tm ** i for i, c in enumerate(coeffs))
        norm = mp.mpf(2) ** mp.mpf("0.25") / mp.sqrt(
            (2 * mp.pi) ** n * 2 ** n * mp.factorial(n))
        return float((-1) ** n * norm * poly * mp.exp(-mp.pi * tm * tm))


def test_explicit_values_at_origin():
    assert hermite(0, 0.0) == pytest.approx(2.0 ** 0.25, abs=1e-15)
    assert hermite(2, 0.0) == pytest.approx(-(2.0 ** -0.25), abs=1e-15)
    assert hermite(3, 0.0) == 0.0
    assert hermite(1, 0.0) == 0.0


def test_second_order_closed_form():
    t = np.linspace(-4.0, 4.0, 41)
    expected = 2.0 ** -0.25 * (-1.0 + 4.0 * np.pi * t * t) * np.exp(-np.pi * t * t)
    assert np.max(np.abs(hermite(2, t) - expected)) < 1e-14


def test_frozen_oracle_values():
    assert hermite(5, 0.7) == pytest.approx(H5_AT_0P7, abs=1e-12)
    assert hermite(3, 1.3) == pytest.approx(H3_AT_1P3, abs=1e-12)
    assert hermite(8, -2.1) == pytest.approx(H8_AT_M2P1, abs=1e-12)


def test_recurrence_matches_rodrigues_oracle():
    rng = np.random.RandomState(101)
    ts = rng.uniform(-4.0, 4.0, 100)
    for n in range(9):
        vals = hermite(n, ts)
        for t, v in zip(ts, vals):
            assert abs(v - hermite_rodrigues(n, t)) <= 1e-11


def test_overflow_safety_at_large_argument():
    for n in (0, 4, 10):
        v = hermite(n, 50.0)
        assert np.isfinite(v)
        assert abs(v) < 1e-300 or v == 0.0


def test_orthonormality_by_quadrature():
    ts = np.arange(-10.0, 10.0 + 1e-3, 1e-3)
    stack = hermite_stack(6, ts)
    weights = np.full(ts.size, 1e-3)
    weights[0] = weights[-1] = 0.5e-3
    gram = (stack * weights) @ stack.T
    assert np.max(np.abs(gram - np.eye(7))) < 1e-8


def test_hermite_stack_matches_single_evaluations():
    ts = np.linspace(-3.0, 3.0, 17)
    stack = hermite_stack(8, ts)
    for n in range(9):
        assert np.max(np.abs(stack[n] - hermite(n, ts))) < 1e-14


def test_rejects_bad_order():
    with pytest.raises(ValueError):
        hermite(-1, 0.0)
    with pytest.raises(ValueError):
        hermite(2.5, 0.0)


def test_envelope_constant_bounds_the_function():
    t = np.linspace(-8.0, 8.0, 4001)
    for n in range(11):
        c = hermite_envelope_constant(n)
        bound = c * (1.0 + np.abs(t)) ** n * np.exp(-np.pi * t * t)
        assert np.all(np.abs(hermite(n, t)) <= bound * (1.0 + 1e-12))


def test_theta_value_and_structure():
    tv = theta3(1.0)
    assert isinstance(tv, ThetaValue)
    assert tv.value == pytest.approx(THETA3_AT_1, abs=1e-15)
    assert tv.value > 1.0
    assert tv.derivative < 0.0


def test_theta_combination_vanishes():
    tv = theta3(1.0)
    assert abs(tv.value + 4.0 * tv.derivative) <= 1e-13


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_jacobi_identity(alpha):
    lhs = math.sqrt(alpha) * theta3(alpha).value
    rhs = theta3(1.0 / alpha).value
    assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_logarithmic_derivative_relation(alpha):
    ta, tb = theta3(alpha), theta3(1.0 / alpha)
    lhs = alpha * ta.derivative / ta.value + tb.derivative / (alpha * tb.value)
    assert abs(lhs + 0.5) <= 1e-12


def test_derivative_matches_finite_difference():
    for alpha in (0.5, 1.0, 3.0):
        h = 1e-6
        fd = (theta3(alpha + h).value - theta3(alpha - h).value) / (2.0 * h)
        assert abs(theta3(alpha).derivative - fd) <= 1e-8


@pytest.mark.parametrize("alpha, value, derivative", [
    (0.25, 2.000013949369425, -3.9993267269547337),
    (0.5, 1.4194954880837662, -1.353120850749184),
    (1.0, 1.086434811213308, -0.271608702803327),
    (2.0, 1.003734885487739, -0.011733489039520206),
    (4.0, 1.0000069746847124, -2.1911618253637414e-05),
])
def test_theta_suite_arguments_keep_their_bits(alpha, value, derivative):
    tv = theta3(alpha)
    assert (tv.value, tv.derivative) == (value, derivative)


def test_theta_refuses_alpha_its_terms_do_not_certify():
    # 256 terms certify alpha from about 1.8843e-4 on; below, the sum was
    # returned short of theta_3 (479.74 at alpha = 1e-6, where theta_3 = 1000)
    assert theta3(1.9e-4).value == pytest.approx(1.0 / math.sqrt(1.9e-4), rel=1e-14)
    for alpha in (1.88e-4, 1e-6):
        with pytest.raises(ValueError, match=f"for alpha = {alpha!r}:"):
            theta3(alpha)


def test_theta_rejects_nonpositive():
    with pytest.raises(ValueError):
        theta3(0.0)
    with pytest.raises(ValueError):
        theta3(-1.0)


@pytest.mark.parametrize("n", range(9))
def test_hermite_is_a_row_of_the_stack(n):
    t = np.linspace(-6.0, 6.0, 35).reshape(5, 7)
    row = hermite_stack(n, t.ravel())[n]
    assert np.array_equal(hermite(n, t), row.reshape(t.shape))
