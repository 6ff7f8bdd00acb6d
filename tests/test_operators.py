import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from gaborkit import operators
from gaborkit.errors import ShiftExceedsGrid, SingularAngle, TruncationTooCoarse
from gaborkit.operators import (Chirp, Dilation, Fourier, FrFT, TFShift,
                                apply_chain, apply_chirp, apply_dilation,
                                apply_frft, apply_tf_shift,
                                matched_phase_residual, project_isomorphism,
                                support_radius)
from gaborkit.special import hermite
from gaborkit.windows import evaluate, realize, window


def l2(values, step=1.0 / 128):
    return math.sqrt(float(np.sum(np.abs(values) ** 2)) * step)


def test_zero_shift_is_identity():
    f = realize(window(1))
    g = apply_tf_shift((0.0, 0.0), f)
    assert np.array_equal(g.values, f.values)


def test_commutation_relation_scalar():
    # translating after modulating differs from the reverse order by the
    # unimodular factor exp(-2 pi i x omega)
    f = realize(window(0))
    for x, omega in [(0.5, 0.5), (0.3, -1.2), (-0.75, 0.4)]:
        tm = apply_tf_shift((x, 0.0), apply_tf_shift((0.0, omega), f))
        mt = apply_tf_shift((0.0, omega), apply_tf_shift((x, 0.0), f))
        scale = np.exp(-2j * np.pi * x * omega)
        assert np.max(np.abs(tm.values - scale * mt.values)) < 1e-12


def test_half_half_shift_closed_form():
    f = realize(window(0))
    g = apply_tf_shift((0.5, 0.5), f)
    t = f.points
    expected = np.exp(1j * np.pi * t) * evaluate(window(0), t - 0.5)
    assert np.max(np.abs(g.values - expected)) < 1e-14


def test_shift_exceeding_grid_raises():
    f = realize(window(0))
    for x in (11.0, -11.0):
        with pytest.raises(ShiftExceedsGrid, match=f"time shift {x}"):
            apply_tf_shift((x, 0.0), f)


def test_dilation_identity_and_norm():
    f = realize(window(0))
    assert np.array_equal(apply_dilation(1.0, f).values, f.values)
    g = apply_dilation(math.sqrt(2.0), f)
    assert abs(g.norm() - 1.0) < 1e-10
    expected = evaluate(window(0, (Dilation(math.sqrt(2.0)),)), f.points)
    assert np.max(np.abs(g.values - expected)) < 1e-13


def test_dilation_rejects_nonpositive():
    f = realize(window(0))
    with pytest.raises(ValueError):
        apply_dilation(0.0, f)
    with pytest.raises(ValueError):
        apply_dilation(-2.0, f)


def test_dilation_matrix_always_unimodular():
    rng = np.random.RandomState(5)
    for a in np.exp(rng.uniform(-1.5, 1.5, 20)):
        m = project_isomorphism(Dilation(a))
        assert abs(np.linalg.det(m) - 1.0) < 1e-14


def test_chirp_identity_and_modulus():
    f = realize(window(3))
    assert np.array_equal(apply_chirp(0.0, f).values, f.values)
    g = apply_chirp(1.7, f)
    # unimodular factor: moduli agree to the last rounding bit
    np.testing.assert_allclose(np.abs(g.values), np.abs(f.values), rtol=1e-15)


def test_chirp_matrix():
    assert np.array_equal(project_isomorphism(Chirp(0.8)),
                          np.array([[1.0, 0.0], [0.8, 1.0]]))


def test_frft_gaussian_invariance():
    f = realize(window(0))
    g = apply_frft(math.pi / 2.0, f)
    assert np.max(np.abs(g.values - f.values)) < 1e-10


@pytest.mark.parametrize("method", ["quadrature", "hermite"])
@pytest.mark.parametrize("r", [0.4, math.pi / 4.0, 1.2, 2.7])
def test_frft_eigenfunction_property(method, r):
    for n in (0, 1, 4, 6):
        f = realize(window(n))
        g = apply_frft(r, f, method=method)
        defect = l2(g.values - np.exp(-1j * n * r) * f.values)
        assert defect < 1e-8


@pytest.mark.parametrize("r", [0.05, 0.31, 0.6, math.pi / 2.0, 2.7])
def test_frft_quadrature_hermite_eigenvalues_pinned(r):
    # r = 0.05 refines the quadrature grid (refine > 1)
    for n in range(8):
        f = realize(window(n))
        g = apply_frft(r, f)
        assert np.max(np.abs(g.values - np.exp(-1j * n * r) * f.values)) <= 1e-10


def test_dilation_on_an_odd_grid_matches_closed_form():
    # 1535 samples: the spectrum runs over j in [-767, 767]
    f = operators.sample(lambda t: np.exp(-np.pi * t * t),
                         extent=6.0, step=12.0 / 1535)
    expected = np.exp(-np.pi * (f.points / 1.3) ** 2) / math.sqrt(1.3)
    assert np.max(np.abs(apply_dilation(1.3, f).values - expected)) <= 1e-14


@pytest.mark.parametrize("n", [0, 3])
def test_frft_refines_an_odd_grid(n):
    # 1535 samples: r = 0.05 refines the quadrature grid 4x, and the odd
    # spectrum keeps its 768 nonnegative and 767 negative bins
    f = operators.sample(lambda t: hermite(n, t), extent=6.0, step=12.0 / 1535)
    g = apply_frft(0.05, f)
    defect = np.linalg.norm(g.values - np.exp(-0.05j * n) * f.values)
    assert defect <= 1e-7 * np.linalg.norm(f.values)


@pytest.mark.parametrize("a", [0.7, 1.3, 5e-324, 1e300])
def test_dilation_kernel_phases_match_mpmath(a):
    # the reduced phases of the cached chirp-z factors, against the exact
    # phases of the float inputs at 40 digits
    n, step, extent = 3072, 1.0 / 128.0, 12.0
    pre, chirp_hat, post = operators._dilation_kernel(a, n, step, extent)
    chirp = np.fft.ifft(chirp_hat)[:2 * n - 1]
    alpha = 1 / (Fraction(a) * n)
    beta = 2 * Fraction(extent) / Fraction(step) * (1 - 1 / Fraction(a)) / n
    with mp.workdps(40):
        def expi_pi(theta):
            theta %= 2  # exact, then rounded to 40 digits
            return complex(mp.expjpi(mp.mpf(theta.numerator) / theta.denominator))

        for idx in (*range(0, n, 97), n - 1):
            j = idx - n // 2
            assert abs(pre[idx] - expi_pi(j * j * alpha + j * beta)) <= 2e-15
            assert abs(post[idx] * n * math.sqrt(a) - expi_pi(idx * idx * alpha)) \
                <= 2e-15 or post[idx] == 0.0
        for idx in (*range(0, 2 * n - 1, 97), 2 * n - 2):
            u = idx - (n - 1) + n // 2
            assert abs(chirp[idx] - expi_pi(-u * u * alpha)) <= 1e-14
    # the reduction itself, on integers far beyond the grid's
    m = np.array([0, 1, -7, 12345, 2 ** 26 - 1])
    theta = operators._pi_phase(m, alpha.numerator, alpha.denominator)
    with mp.workdps(40):
        for mi, th in zip(m.tolist(), theta):
            exact = mi * alpha % 2
            diff = (mp.mpf(th) - mp.mpf(exact.numerator) / exact.denominator) % 2
            assert min(diff, 2 - diff) <= 4e-16 * max(1.0, abs(th))


@pytest.mark.parametrize("r, refine, bound", [
    (0.6, 1, 4e-15), (math.pi / 2.0, 1, 4e-15), (2.7, 1, 4e-15), (-1.0, 1, 4e-15),
    (0.05, 4, 1e-14),
])
def test_frft_kernel_phases_match_mpmath(r, refine, bound):
    # the reduced phases of the cached quadrature factors, against the exact
    # phases of the float inputs at 40 digits, every 97th factor (every factor
    # of the refined kernel: test_refined_frft_kernel_phases_hold_the_unrefined_bound)
    n, step, extent = 3072 * refine, 1.0 / 128.0 / refine, 12.0
    pre, chirp_hat, post = operators._frft_kernel(r, n, step, extent, refine)
    chirp = np.fft.ifft(chirp_hat)[:2 * n - 1]
    cot = math.cos(r) / math.sin(r)
    d = Fraction(cot) - Fraction(1.0 / math.sin(r))
    csc_h2 = Fraction(1.0 / math.sin(r)) * Fraction(step) ** 2
    h, e = Fraction(step), Fraction(extent)
    amp = complex(np.sqrt(1.0 - 1j * cot)) * step
    with mp.workdps(40):
        def expi_pi(theta):
            theta %= 2  # exact, then rounded to 40 digits
            return complex(mp.expjpi(mp.mpf(theta.numerator) / theta.denominator))

        for j in (*range(0, n, 97), n - 1):
            assert abs(pre[j] - expi_pi(d * h * h * j * j - 2 * d * e * h * j)) <= bound
        for i in (*range(0, n // refine, 97), n // refine - 1):
            k = i * refine
            exact = expi_pi(2 * d * e * e + d * h * h * k * k - 2 * d * e * h * k)
            assert abs(post[i] / amp - exact) <= bound
        for idx in (*range(0, 2 * n - 1, 97), 2 * n - 2):
            u = idx - (n - 1)
            assert abs(chirp[idx] - expi_pi(csc_h2 * u * u)) <= 1e-14


@pytest.mark.parametrize("r, bound", [
    (0.6, 1e-14), (math.pi / 2.0, 1e-14), (2.7, 1e-14), (-1.0, 1e-14),
    (0.05, 1e-13),  # refined
    (0.01, 1e-11), (-0.002, 2e-11), (3.13, 5e-12),  # next to the singular angles
])
def test_frft_of_shifted_and_chirped_hermite_matches_closed_form(r, bound):
    for n in (0, 3, 7):
        for chain in ((TFShift(0.4, -0.3),), (Chirp(0.5), TFShift(-0.2, 0.3))):
            f = realize(window(n, chain))
            expected = evaluate(window(n, (FrFT(r),) + chain), f.points)
            assert np.max(np.abs(apply_frft(r, f).values - expected)) <= bound


@pytest.mark.parametrize("num, den", [
    (1, 2), (0, 1), (7, 1), (-3, 2 ** 60), (2 ** 70 + 1, 3 * 2 ** 75),
    (-(5 ** 40), 2 ** 90 * 7),
])
def test_pi_phase_is_the_float_fmod_reduction(num, den):
    # m num / den mod 2, against exact fractions: the int64 remainder of the
    # head and the tail are each rounded once, and their float sum once more,
    # so theta is within 2**-51 of the exact phase.  The squares reach 2**28,
    # as j**2 does on the FrFT grid refined 4x
    for m in (np.arange(-50, 50), np.array([-(2 ** 26) + 3, -12345, -1, 0, 2 ** 26 - 1]),
              np.arange(-3072, 3072) ** 2 * np.array([1, -1] * 3072),
              np.arange(-12288, 12288, 7) ** 2):
        theta = operators._pi_phase(m, num, den)
        for mi, th in zip(m.tolist(), theta.tolist()):
            diff = (Fraction(th) - Fraction(mi * num, den)) % 2
            assert min(diff, 2 - diff) <= 2.0 ** -51, (mi, th)


def test_refined_frft_kernel_phases_hold_the_unrefined_bound():
    # every factor of the 4x refined quadrature at r = 0.05, where j**2
    # reaches 2**28, within the 4e-15 of the unrefined kernels: the head of
    # _pi_phase keeps 61 - b bits, so its tail is too small to round away
    r, refine = 0.05, 4
    n, step, extent = 3072 * refine, 1.0 / 128.0 / refine, 12.0
    pre, _, post = operators._frft_kernel(r, n, step, extent, refine)
    d = Fraction(math.cos(r) / math.sin(r)) - Fraction(1.0 / math.sin(r))
    h, e = Fraction(step), Fraction(extent)
    amp = complex(np.sqrt(1.0 - 1j * math.cos(r) / math.sin(r))) * step
    with mp.workdps(40):
        def expi_pi(theta):
            theta %= 2  # exact, then rounded to 40 digits
            return complex(mp.expjpi(mp.mpf(theta.numerator) / theta.denominator))

        worst_pre = max(abs(pre[j] - expi_pi(d * h * h * j * j - 2 * d * e * h * j))
                        for j in range(n))
        worst_post = max(abs(post[i] / amp - expi_pi(
            2 * d * e * e + d * h * h * (i * refine) ** 2 - 2 * d * e * h * i * refine))
            for i in range(n // refine))
    assert max(worst_pre, worst_post) <= 4e-15


@pytest.mark.parametrize("a", [1e-300, 5e-324, 1e-12, 1e12, 1e300])
def test_dilation_by_extreme_factors_is_finite_and_silent(a):
    # a <= 1e-12 keeps only the t = 0 sample, f(0) / sqrt(a); a >= 1e12 maps
    # every sample next to t = 0
    w = window(2, (TFShift(0.3, -0.2),))
    f = realize(w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = apply_dilation(a, f).values
    assert np.isfinite(g).all()
    mid = f.values.size // 2
    if a < 1.0:
        assert np.flatnonzero(g).tolist() == [mid]
        assert abs(g[mid] / (f.values[mid] / math.sqrt(a)) - 1.0) <= 1e-12
    else:
        expected = evaluate(w, f.points / a) / math.sqrt(a)
        assert np.max(np.abs(g - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("a", [0.77, 0.8, 1.3, 0.7, 0.9, 1.0001, 2.0])
def test_dilation_of_shifted_hermite_matches_closed_form(a):
    for n in range(6):
        for x, omega in ((0.0, 0.0), (0.4, -0.7), (-1.1, 0.9)):
            f = realize(window(n, (TFShift(x, omega),)))
            expected = evaluate(window(n, (Dilation(a), TFShift(x, omega))), f.points)
            assert np.max(np.abs(apply_dilation(a, f).values - expected)) <= 1e-14


def test_operator_kernel_caches_keep_every_key_apart():
    # interleaved calls that hit, miss and evict the cached grid kernels
    # must give the bits of the same call made with empty caches
    f = realize(window(1, (TFShift(0.3, -0.2),)))
    coarse = realize(window(2), step=1.0 / 64.0)
    narrow = realize(window(0, (TFShift(-0.5, 0.4),)), extent=6.0, step=1.0 / 256.0)
    calls = [
        lambda: apply_dilation(1.3, f), lambda: apply_frft(0.6, f),
        lambda: apply_dilation(0.8, f), lambda: apply_frft(0.9, f),
        lambda: apply_frft(0.05, f),  # refine > 1
        # refined to step 1/128, so only refine tells this key from the next
        lambda: apply_frft(0.3, coarse), lambda: apply_frft(0.3, f),
        lambda: apply_dilation(1.3, coarse),
        lambda: apply_frft(0.6, narrow), lambda: apply_dilation(1.3, narrow),
        lambda: apply_chain((Fourier(),), f), lambda: apply_frft(0.9, f),
        lambda: apply_dilation(0.8, f), lambda: apply_frft(0.05, narrow),
    ]
    interleaved = [call().values for call in calls + calls]
    for i, call in enumerate(calls + calls):
        operators._dilation_kernel.cache_clear()
        operators._frft_kernel.cache_clear()
        assert np.array_equal(call().values, interleaved[i])


def test_frft_semigroup():
    f = realize(window(1))
    f = f.__class__(f.values + realize(window(2)).values, f.step, f.extent)
    g12 = apply_frft(0.3, apply_frft(0.5, f))
    g = apply_frft(0.8, f)
    assert l2(g12.values - g.values) < 1e-7


def test_frft_closed_form_multiples_of_pi():
    w = window(2, (TFShift(0.4, 0.7),))
    f = realize(w)
    g0 = apply_frft(0.0, f)
    assert np.array_equal(g0.values, f.values)
    gpi = apply_frft(math.pi, f)
    expected = evaluate(w, -f.points)
    assert np.max(np.abs(gpi.values - expected)) < 1e-10


def test_frft_singular_angle_guard():
    f = realize(window(0))
    with pytest.raises(SingularAngle):
        apply_frft(5e-4, f)
    with pytest.raises(SingularAngle):
        apply_frft(math.pi - 2e-4, f)


def test_frft_hermite_truncation_guard():
    f = realize(window(0, (TFShift(2.0, 2.0),)))
    with pytest.raises(TruncationTooCoarse):
        apply_frft(0.7, f, method="hermite", n_coeffs=8)


def test_frft_methods_cross_check():
    rng = np.random.RandomState(11)
    coeffs = rng.uniform(-1.0, 1.0, 7)
    f = realize(window(0))
    vals = np.zeros_like(f.values)
    for n, c in enumerate(coeffs):
        vals = vals + c * realize(window(n)).values
    f = f.__class__(vals, f.step, f.extent)
    for r in (0.4, math.pi / 4.0, 1.2):
        gq = apply_frft(r, f, method="quadrature")
        gh = apply_frft(r, f, method="hermite")
        assert l2(gq.values - gh.values) / f.norm() < 1e-6


def test_unitarity_of_all_operators():
    f = realize(window(2))
    ops = [Dilation(1.7), Chirp(-0.9), TFShift(0.6, -1.1), FrFT(0.8), Fourier()]
    for op in ops:
        g = apply_chain((op,), f)
        assert abs(g.norm() - f.norm()) < 1e-8


@pytest.mark.parametrize("op", [Dilation(1.3), Chirp(0.8), FrFT(0.6), Fourier()])
def test_intertwining_matched_phase(op):
    # the module's central contract: U pi(z) U^{-1} = c pi(Uz) with |c| = 1
    rng = np.random.RandomState(202)
    zs = rng.uniform(-2.0, 2.0, (50, 2))
    U = project_isomorphism(op)
    for n in (0, 1):
        f = realize(window(n))
        uf = apply_chain((op,), f)
        for z in zs:
            lhs = apply_chain((op,), realize(window(n, (TFShift(z[0], z[1]),))))
            uz = U @ z
            rhs = apply_chain((TFShift(uz[0], uz[1]),), uf)
            resid, c = matched_phase_residual(lhs, rhs)
            assert resid / f.norm() <= 1e-7
            assert abs(abs(c) - 1.0) <= 1e-7


def test_isomorphism_projection_examples():
    assert np.allclose(project_isomorphism(Dilation(2.0)),
                       [[2.0, 0.0], [0.0, 0.5]], atol=1e-15)
    s = math.sqrt(2.0) / 2.0
    assert np.allclose(project_isomorphism(FrFT(math.pi / 4.0)),
                       [[s, s], [-s, s]], atol=1e-15)
    assert np.array_equal(project_isomorphism(TFShift(3.0, -2.0)), np.eye(2))
    assert np.array_equal(project_isomorphism(Fourier()),
                          [[0.0, 1.0], [-1.0, 0.0]])
    chain = (FrFT(0.9), Chirp(-0.4), Dilation(1.8))
    m = project_isomorphism(chain)
    expected = project_isomorphism(FrFT(0.9)) @ project_isomorphism(Chirp(-0.4)) \
        @ project_isomorphism(Dilation(1.8))
    assert np.allclose(m, expected, atol=1e-15)
    assert abs(np.linalg.det(m) - 1.0) < 1e-14


def test_support_radius():
    f = realize(window(0))
    r = support_radius(f)
    assert 2.0 < r < 4.5


def test_operators_compare_by_kind():
    assert Chirp(0.7) != Dilation(0.7)
    assert FrFT(0.7) != Chirp(0.7)
    assert TFShift(0.5, 0.25) == TFShift(0.5, 0.25)
    assert Fourier() == Fourier()
    assert len({Chirp(0.7), Dilation(0.7), FrFT(0.7), Chirp(0.7)}) == 3


@pytest.mark.parametrize("make, message", [
    (lambda v: Dilation(v), "dilation requires a > 0"),
    (lambda v: Chirp(v), "chirp requires a finite q"),
    (lambda v: FrFT(v), "frft requires a finite r"),
    (lambda v: TFShift(v, 0.0), "tfshift requires a finite x"),
    (lambda v: TFShift(0.0, v), "tfshift requires a finite omega"),
], ids=["dilation", "chirp", "frft", "shift-x", "shift-omega"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_operator_fields_must_be_finite(make, message, value):
    with pytest.raises(ValueError, match=message):
        make(value)


@pytest.mark.parametrize("method", ["quadrature", "hermite"])
@pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
def test_frft_rejects_non_finite_angle(method, r):
    with pytest.raises(ValueError, match=f"frft requires a finite r, got {r!r}"):
        apply_frft(r, realize(window(0)), method=method)
