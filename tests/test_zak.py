import json
import math

import numpy as np
import pytest

from gaborkit import windows
from gaborkit.errors import UnboundedWindow
from gaborkit.frames import (GaborSystem, finite_frame_spectrum, frame_bounds,
                             reduce_to_multiwindow)
from gaborkit.lattices import PRESETS
from gaborkit.operators import Chirp, Dilation, FrFT, TFShift
from gaborkit.special import theta3
from gaborkit.windows import envelope, evaluate, window
from gaborkit.zak import (ZakSurface, auto_truncation, verify_identities,
                          write_surface_csv, zak_point, zak_scaled,
                          zak_surface, zak_tail_bound)

SQRT2 = math.sqrt(2.0)


def dilated_h2():
    return window(2, (Dilation(1.0 / SQRT2),))


def test_structural_zeros():
    assert abs(zak_point(window(0), 0.5, 0.5)) < 1e-12
    assert abs(zak_point(window(2), 0.0, 0.0)) < 1e-12
    assert abs(zak_point(window(2), 0.5, 0.5)) < 1e-12
    w = dilated_h2()
    assert abs(zak_point(w, 0.25, 0.5)) < 1e-12
    assert abs(zak_point(w, 0.75, 0.5)) < 1e-12
    assert abs(zak_point(w, 0.5, 0.5)) < 1e-12


def test_forced_zeros_at_origin_off_the_4n_ladder():
    for n in (1, 2, 3, 5, 6, 7):
        assert abs(zak_point(window(n), 0.0, 0.0)) < 1e-12


def test_no_zero_for_h4_and_dilated_origin():
    assert abs(zak_point(window(4), 0.0, 0.0)) == pytest.approx(
        2.5261240990023198709, abs=1e-9)
    assert abs(zak_point(dilated_h2(), 0.0, 0.0)) > 0.5


def test_gaussian_origin_matches_theta_series():
    tv = theta3(1.0)
    expected = 2.0 ** 0.25 * tv.value
    assert zak_point(window(0), 0.0, 0.0).real == pytest.approx(expected, abs=1e-13)


def test_truncation_monotonicity():
    rng = np.random.RandomState(55)
    pts = rng.uniform(0.0, 1.0, (100, 2))
    for w in (window(2), dilated_h2()):
        for K in (8, 12):
            a = zak_point(w, pts[:, 0], pts[:, 1], trunc=K)
            b = zak_point(w, pts[:, 0], pts[:, 1], trunc=K + 4)
            bound = zak_tail_bound(w, K)
            assert float(np.max(np.abs(a - b))) <= bound


def test_auto_truncation_floor():
    assert 8 <= auto_truncation(window(0)) <= 64
    assert auto_truncation(window(0, (Dilation(3.0),))) >= 8


def test_scaled_zak_reduces_to_plain():
    w = window(1)
    a = zak_scaled(1.0, w, 0.3, 0.4)
    assert a == pytest.approx(zak_point(w, 0.3, 0.4), abs=1e-15)
    with pytest.raises(ValueError):
        zak_scaled(0.0, w, 0.1, 0.1)


def test_scaled_zak_dilation_identity():
    w = window(0)
    for x, omega in [(0.3, 0.7), (0.85, 0.2)]:
        lhs = zak_scaled(SQRT2, w, x, omega)
        rhs = zak_point(window(0, (Dilation(1.0 / SQRT2),)), x / SQRT2,
                        SQRT2 * omega)
        assert abs(lhs - rhs) < 1e-12


def test_scaled_zak_matches_the_direct_sum():
    # zak_scaled sums D_{1/a} w through zak_point; the reference sums
    # sqrt(a) w(a k - x) exp(2 pi i a k omega) from the window's values
    w = window(2, (TFShift(3.7, -1.2), Chirp(0.6), Dilation(1.3)))
    k = np.arange(-40.0, 41.0)
    for a, x, omega in [(SQRT2, 0.3, 0.7), (0.6, -1.1, 0.25), (2.5, 4.2, -0.4)]:
        direct = math.sqrt(a) * np.sum(evaluate(w, a * k - x)
                                       * np.exp(2j * np.pi * a * k * omega))
        assert abs(zak_scaled(a, w, x, omega) - direct) <= 1e-12


def test_scaled_zak_quasi_periodicity():
    w = window(0)
    x, omega = 0.3, 0.7
    lhs = zak_scaled(SQRT2, w, x + SQRT2, omega)
    rhs = np.exp(2j * np.pi * SQRT2 * omega) * zak_scaled(SQRT2, w, x, omega)
    assert abs(lhs - rhs) < 1e-12


def test_identity_defects_small():
    rng = np.random.RandomState(9)
    pts = rng.uniform(0.0, 1.0, (50, 2))
    for n in range(4):
        report = verify_identities(window(n), pts)
        assert max(report.values()) <= 1e-10


def test_poisson_fallback_and_error():
    # the Fourier partner of a chirped window is the window behind a Fourier
    # link, in closed form through the normal form
    chirped = window(2, (Chirp(0.5),))
    pts = [(0.2, 0.4), (0.7, 0.1)]
    report = verify_identities(chirped, pts)
    assert report["poisson"] <= 1e-9


def test_parity_zero_points():
    odd = verify_identities(window(1), [(0.1, 0.2)])
    assert odd["parity_zeros"] <= 1e-12
    even = verify_identities(window(0), [(0.1, 0.2)])
    assert even["parity_zeros"] <= 1e-12


def test_conjugate_symmetry_for_real_windows():
    rng = np.random.RandomState(4)
    pts = rng.uniform(0.0, 1.0, (30, 2))
    rep = verify_identities(window(2, (Dilation(1.3),)), pts)
    assert rep["conjugate_symmetry"] <= 1e-12


def test_surface_grid_and_consistency():
    surf = zak_surface(window(2), 64)
    assert isinstance(surf, ZakSurface)
    assert surf.values.shape == (64, 64)
    assert surf.values[0, 0] == pytest.approx(zak_point(window(2), 0.0, 0.0),
                                              abs=1e-13)
    assert surf.values[13, 40] == pytest.approx(
        zak_point(window(2), 13.0 / 64, 40.0 / 64), abs=1e-12)
    with pytest.raises(ValueError):
        zak_surface(window(2), 4)


def test_surface_minimum_at_structural_zeros():
    surf = zak_surface(window(2), 64)
    mags = np.abs(surf.values)
    i, j = np.unravel_index(np.argmin(mags), mags.shape)
    node = (i / 64.0, j / 64.0)
    assert node in [(0.0, 0.0), (0.5, 0.5)]


def test_dilated_surface_zero_rows_stay_positive():
    surf = zak_surface(dilated_h2(), 64)
    mags = np.abs(surf.values)
    # zeros sit on the omega = 1/2 row only
    order = np.argsort(mags.ravel())
    smallest = [np.unravel_index(k, mags.shape) for k in order[:3]]
    nodes = sorted((i / 64.0, j / 64.0) for i, j in smallest)
    assert nodes == [(0.25, 0.5), (0.5, 0.5), (0.75, 0.5)]
    assert mags[0, :].min() > 5e-3
    assert mags[:, 0].min() > 5e-3


def test_surface_tail_bound_certifies_closed_form():
    for w in (window(0), window(2), dilated_h2()):
        surf = zak_surface(w, 32)
        assert surf.tail_bound <= 1e-12 * np.abs(surf.values).max()


def test_surface_quasi_periodic_across_seam():
    w = window(3)
    surf = zak_surface(w, 32)
    xs = np.arange(32) / 32.0
    oms = np.arange(32) / 32.0
    # re-evaluate one row and one column shifted by a full period
    row = zak_point(w, xs + 1.0, np.full(32, oms[5]))
    assert np.max(np.abs(row - np.exp(2j * np.pi * oms[5]) * surf.values[:, 5])) \
        <= 1e-10
    col = zak_point(w, np.full(32, xs[7]), oms + 1.0)
    assert np.max(np.abs(col - surf.values[7, :])) <= 1e-10


def test_at_least_one_zero_proxy():
    # every in-scope window shows a grid minimum below the Lipschitz slack
    windows = [window(n) for n in range(6)] + [dilated_h2(),
                                               window(2, (Chirp(0.7),))]
    for w in windows:
        surf = zak_surface(w, 256)
        mags = np.abs(surf.values)
        slack = max(np.abs(np.diff(mags, axis=0)).max(),
                    np.abs(np.diff(mags, axis=1)).max())
        assert mags.min() <= 10.0 * slack


def test_interpolated_window_satisfies_identities():
    # a fractional link after a chirp is folded into the normal form; the
    # structural identities must hold for its values
    w = window(2, (FrFT(0.5), Chirp(0.8)))
    assert any(isinstance(op, FrFT) for op in w.chain)
    rng = np.random.RandomState(21)
    pts = rng.uniform(0.0, 1.0, (10, 2))
    report = verify_identities(w, pts)
    assert report["quasi_periodicity_x"] <= 1e-9
    assert report["quasi_periodicity_omega"] <= 1e-9
    assert report["shift_covariance"] <= 1e-9


def test_envelope_and_truncation_built_once_per_window():
    # polishing evaluates the Zak transform of a folded window many times;
    # its fold, envelope and truncation are built once per window
    cached = (windows.normal_form, envelope, auto_truncation)
    for fn in cached:
        fn.cache_clear()
    w = window(0, (FrFT(0.5), Chirp(0.7)))
    system = reduce_to_multiwindow(GaborSystem(windows=[w], point_set=PRESETS["Z2"]))
    frame_bounds(system, resolution=32)
    assert [fn.cache_info().misses for fn in cached] \
        == [len(set(system.windows))] * 3 == [1] * 3
    env, K = envelope(w), auto_truncation(w)
    envelope.cache_clear()
    auto_truncation.cache_clear()
    assert envelope(w) == env
    assert auto_truncation(w) == K
    # the rebuilt envelope found the fold in its cache
    assert windows.normal_form.cache_info().misses == 1


def test_surface_csv_writer(tmp_path):
    surf = zak_surface(window(2), 8)
    csv_path = tmp_path / "surface.csv"
    meta_path = tmp_path / "surface.meta.json"
    write_surface_csv(surf, csv_path, meta_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,omega,re,im,abs"
    assert len(lines) == 65
    meta = json.loads(meta_path.read_text())
    assert meta["resolution"] == 8
    assert meta["window"]["hermite"] == 2
    assert meta["tail_bound"] <= 1e-10
    # determinism: a second write is byte-identical
    first = csv_path.read_bytes()
    write_surface_csv(surf, csv_path, meta_path)
    assert csv_path.read_bytes() == first


def per_element_csv(surface):
    """The surface CSV written one numpy scalar at a time, as a reference."""
    N = surface.resolution
    grid = np.arange(N) / N
    lines = ["x,omega,re,im,abs\n"]
    for i in range(N):
        for j in range(N):
            v = surface.values[i, j]
            lines.append(f"{float(grid[i])!r},{float(grid[j])!r},"
                         f"{float(v.real)!r},{float(v.imag)!r},{float(abs(v))!r}\n")
    return "".join(lines).encode()


def signed_zero_surface():
    """Hand-built values: the Zak surfaces tried hold exact but no signed zeros."""
    special = [0.0, -0.0, 5e-324, -1e308, 1.0 / 3.0, -2.5e-17, 1e300, 7.0]
    values = np.empty((8, 8), dtype=complex)
    values.real = np.resize(special, 64).reshape(8, 8)
    values.imag = np.resize(special[::-1], 64).reshape(8, 8)
    return ZakSurface(values=values, window_desc=window(0), resolution=8,
                      truncation=8, tail_bound=0.0)


@pytest.mark.parametrize("make", [
    lambda: zak_surface(window(3, (Dilation(1.1), Chirp(0.4), TFShift(0.3, -0.2))), 64),
    lambda: zak_surface(window(1), 64),
    signed_zero_surface,
], ids=["chained", "h1", "signed-zeros"])
def test_surface_csv_bytes_match_per_element_rule(tmp_path, make):
    surf = make()
    path = tmp_path / "s.csv"
    write_surface_csv(surf, path)
    assert path.read_bytes() == per_element_csv(surf)


@pytest.mark.parametrize("x, omega, name", [
    (math.nan, 0.0, "x"), (math.inf, 0.0, "x"), (0.2, -math.inf, "omega"),
    (np.array([0.1, math.nan]), 0.3, "x"), (0.1, np.array([0.0, math.nan]), "omega"),
])
def test_zak_point_rejects_non_finite_arguments(x, omega, name):
    with pytest.raises(ValueError, match=f"requires a finite {name}, got"):
        zak_point(window(0), x, omega)


def test_non_finite_window_values_raise_unbounded_window():
    # the chirp after the dilation folds to Chirp(1 / a^2), which overflows;
    # the canonical shift's modulation phase 2 pi omega overflows in the sum
    # (warning-free: numpy RuntimeWarnings fail the suite)
    for w, message in ((window(0, (Dilation(4e-210), Chirp(1.0))), "normal form"),
                       (window(0, (TFShift(0.0, 1e308),)), "non-finite values")):
        with pytest.raises(UnboundedWindow, match=message):
            zak_surface(w, 8)
        with pytest.raises(UnboundedWindow, match=message):
            zak_point(w, 0.25, 0.5)
        with pytest.raises(UnboundedWindow, match=message):
            zak_point(w, np.array([0.0, 0.5]), 0.5)
        with pytest.raises(UnboundedWindow, match=message):
            zak_scaled(1.0, w, 0.1, 0.2)
        with pytest.raises(UnboundedWindow, match=message):
            finite_frame_spectrum(GaborSystem([w], PRESETS["Z2"]), lattice_window=1.0)


@pytest.mark.parametrize("x, omega, name", [
    (math.nan, 0.2, "x"), (0.1, math.inf, "omega"),
])
def test_zak_scaled_rejects_non_finite_arguments(x, omega, name):
    with pytest.raises(ValueError, match=f"zak_scaled requires a finite {name}, got"):
        zak_scaled(1.0, window(0), x, omega)
    with pytest.raises(ValueError, match="requires a finite a > 0"):
        zak_scaled(math.inf, window(0), 0.1, 0.2)


def test_auto_truncation_refuses_an_uncertified_cap():
    # D_30 h_0: the envelope tail at K = 64 is about 1e-6
    w = window(0, (Dilation(30.0),))
    with pytest.raises(UnboundedWindow, match=r"up to 64 .* tail there is 1\.\d+e-06"):
        auto_truncation(w)
    # an explicit truncation still sums it: the frame bounds of D_30 h_0 over
    # Z^2 are 30 sqrt 2 at the top
    report = frame_bounds(GaborSystem([w], PRESETS["Z2"]), 32, trunc=150)
    assert report.B_est == pytest.approx(30.0 * SQRT2, rel=1e-12)


def test_envelope_tail_bounds_the_rest_of_a_wide_window():
    # D_100 h_0 at K = 64: the 81 summed terms end where the Gaussian of
    # scale 100 is still large, so the rest needs the geometric bound
    env = envelope(window(0, (Dilation(100.0),)))
    j = np.arange(63.0, 5000.0)
    exact = 2.0 * float(np.sum(env.amplitude * np.exp(-math.pi * j * j / 1e4)))
    assert exact <= env.tail(63.0) <= 1.01 * exact


@pytest.mark.parametrize("trunc", [0, -5])
def test_every_zak_evaluation_rejects_truncation_below_one(trunc):
    message = f"truncation must be at least 1, got {trunc}"
    w = window(0)
    with pytest.raises(ValueError, match=message):
        zak_point(w, 0.25, 0.5, trunc)
    with pytest.raises(ValueError, match=message):
        zak_surface(w, 8, trunc)
    with pytest.raises(ValueError, match=message):
        zak_scaled(SQRT2, w, 0.25, 0.5, trunc)
    assert zak_surface(w, 8, 1).truncation == 1


@pytest.mark.parametrize("shift", [1e17, 8e15])
def test_sums_past_float_integers_raise_unbounded_window(shift):
    # from 2**52 on floats are at least 1 apart, so k - x misses the sum's
    # points; at 1e17 the sums read h_0 at the wrong points entirely
    w = window(0, (TFShift(shift, 0.0),))
    for evaluate_zak in (lambda: zak_point(w, 0.25, 0.5),
                         lambda: zak_point(w, np.array([0.0, 0.5]), 0.5),
                         lambda: zak_surface(w, 8),
                         lambda: zak_scaled(SQRT2, w, 0.25, 0.5)):
        with pytest.raises(UnboundedWindow, match=r"\|k\| >= 2\*\*52"):
            evaluate_zak()


@pytest.mark.parametrize("N, heights", [
    (200, [81, 81, 38]),  # 19 sum points a row: window values a tile at a time
    (600, [27] * 22 + [6]),  # ... and three tiles, 81 rows, at a time
])
def test_surface_tiles_cover_the_grid(N, heights):
    from gaborkit.zak import _surface_tiles
    w = window(3, (Dilation(1.1), Chirp(0.4), TFShift(0.3, -0.2)))
    tiles = list(_surface_tiles(w, N, None))
    assert [(i0, len(tile)) for i0, tile in tiles] == \
        list(zip(np.cumsum([0] + heights[:-1]).tolist(), heights))
    values = zak_surface(w, N).values
    assert np.array_equal(np.concatenate([tile for _, tile in tiles]), values)
    i = np.array([0, 80, 81, N // 2, N - 34, N - 33, N - 1])
    j = (7 * i + 3) % N
    assert np.max(np.abs(values[i, j] - zak_point(w, i / N, j / N))) <= 1e-12
