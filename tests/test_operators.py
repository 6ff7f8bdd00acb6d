import math

import numpy as np
import pytest

from gaborkit import operators
from gaborkit.errors import ShiftExceedsGrid, SingularAngle, TruncationTooCoarse
from gaborkit.operators import (Chirp, Dilation, Fourier, FrFT, TFShift,
                                apply_chain, apply_chirp, apply_dilation,
                                apply_frft, apply_tf_shift,
                                matched_phase_residual, project_isomorphism,
                                resample, sinc_interpolate, support_radius)
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
    with pytest.raises(ShiftExceedsGrid):
        apply_tf_shift((11.0, 0.0), f)


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


@pytest.mark.parametrize("a", [0.77, 0.8, 1.3])
def test_dilation_of_shifted_hermite_matches_closed_form(a):
    for n in (0, 1, 3):
        for x, omega in ((0.0, 0.0), (0.4, -0.7), (-1.1, 0.9)):
            f = realize(window(n, (TFShift(x, omega),)))
            expected = evaluate(window(n, (Dilation(a), TFShift(x, omega))), f.points)
            assert np.max(np.abs(apply_dilation(a, f).values - expected)) <= 1e-13


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
        operators._dilation_stencil.cache_clear()
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


def test_resample_matches_sinc():
    f = realize(window(4))
    rng = np.random.RandomState(33)
    where = rng.uniform(-9.0, 9.0, 500)
    assert np.max(np.abs(resample(f, where) - sinc_interpolate(f, where))) < 1e-12


def test_interpolators_take_a_scalar_point():
    f = realize(window(3))
    for interp in (resample, sinc_interpolate):
        value = interp(f, 0.3)
        assert isinstance(value, complex)
        assert value == interp(f, np.array([0.3]))[0]
    assert resample(f, 12.5) == 0.0


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
