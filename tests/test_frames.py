import math

import numpy as np
import pytest

from gaborkit.errors import IrreducibleSet
from gaborkit.frames import (GaborSystem, equivalence_transport, find_zak_zeros,
                             finite_frame_spectrum, frame_bounds,
                             reduce_to_multiwindow, report_to_json,
                             theta_zero_certificate)
from gaborkit.lattices import PRESETS, point_set
from gaborkit.operators import Chirp, Dilation, FrFT, TFShift, project_isomorphism
from gaborkit.special import hermite
from gaborkit.windows import evaluate, window
from gaborkit.zak import zak_point, zak_surface

SQRT2 = math.sqrt(2.0)


def system(n, preset):
    return GaborSystem(windows=[window(n)], point_set=PRESETS[preset])


def test_reduce_union_half_to_two_windows():
    reduced = reduce_to_multiwindow(system(2, "Z2-union-half"))
    assert len(reduced.windows) == 2
    chains = sorted(w.chain for w in reduced.windows)
    assert chains[0] == ()
    assert chains[1] == (TFShift(0.5, 0.5),)
    assert reduced.point_set == PRESETS["Z2"]


def test_reduce_square_density_two_lattice():
    reduced = reduce_to_multiwindow(system(2, "sqrt2-square"))
    assert len(reduced.windows) == 2
    short, long = sorted(reduced.windows, key=lambda w: len(w.chain))
    assert len(short.chain) == 1
    assert isinstance(short.chain[0], Dilation)
    assert short.chain[0].a == pytest.approx(1.0 / SQRT2, abs=1e-12)
    shift, dil = long.chain
    assert isinstance(shift, TFShift)
    assert shift.x == pytest.approx(0.5, abs=1e-9)
    assert abs(shift.omega) <= 1e-9
    assert isinstance(dil, Dilation)
    assert dil.a == pytest.approx(1.0 / SQRT2, abs=1e-12)


def test_reduce_integer_lattice_is_identity():
    reduced = reduce_to_multiwindow(system(1, "Z2"))
    assert len(reduced.windows) == 1
    assert reduced.windows[0] == window(1)


def test_reduce_rejects_sparse_sets():
    sparse = GaborSystem(windows=[window(0)],
                         point_set=point_set(np.diag([2.0, 1.0])))
    with pytest.raises(IrreducibleSet):
        reduce_to_multiwindow(sparse)


def test_frame_bounds_requires_reduction():
    # frame_bounds reduces the system itself, and a reduced one is left as it is
    unreduced = system(0, "sqrt2-square")
    assert frame_bounds(unreduced) == frame_bounds(reduce_to_multiwindow(unreduced))


def test_gaussian_critical_density_verdict():
    report = frame_bounds(reduce_to_multiwindow(system(0, "Z2")), 64)
    assert report.verdict == "NotFrame"
    assert report.A_est <= 1e-20
    assert len(report.zeros) == 1
    z = report.zeros[0]
    assert (z.x, z.omega) == (0.5, 0.5)
    assert z.residual <= 1e-10


def test_union_half_joint_zeros():
    report = frame_bounds(reduce_to_multiwindow(system(2, "Z2-union-half")), 64)
    assert report.verdict == "NotFrame"
    nodes = sorted((z.x, z.omega) for z in report.zeros)
    assert nodes == [(0.0, 0.0), (0.5, 0.5)]
    assert all(z.residual <= 1e-10 for z in report.zeros)


def test_two_window_shifted_system_zero_pair():
    w1 = window(2, (TFShift(0.25, 0.5), Dilation(1.0 / SQRT2)))
    w2 = window(2, (TFShift(0.75, 0.5), Dilation(1.0 / SQRT2)))
    sys2 = GaborSystem(windows=[w1, w2], point_set=PRESETS["Z2"])
    report = frame_bounds(sys2, 64)
    assert report.verdict == "NotFrame"
    nodes = sorted((z.x, z.omega) for z in report.zeros)
    # the joint zeros appear as a pair (x0, w0), (x0 + 1/2, w0)
    assert nodes == [(0.0, 0.0), (0.5, 0.0)]


def test_find_zeros_gaussian():
    zeros = find_zak_zeros(window(0), resolution=64)
    assert len(zeros) == 1
    assert abs(zeros[0].x - 0.5) <= 1e-8
    assert abs(zeros[0].omega - 0.5) <= 1e-8
    with pytest.raises(ValueError):
        find_zak_zeros(window(0), resolution=16)


def test_find_zeros_h2_high_resolution():
    zeros = find_zak_zeros(window(2), resolution=256)
    nodes = sorted((round(z.x, 8), round(z.omega, 8)) for z in zeros)
    assert nodes == [(0.0, 0.0), (0.5, 0.5)]


def test_find_zeros_dilated():
    zeros = find_zak_zeros(window(2, (Dilation(1.0 / SQRT2),)), resolution=64)
    nodes = sorted((round(z.x, 6), round(z.omega, 6)) for z in zeros)
    # besides the three known zeros on the omega = 1/2 row, the omega = 0
    # row carries a symmetric zero pair that coarse grids miss entirely
    # (node values there stay above 5e-3); the locations were confirmed by
    # an independent 30-digit evaluation of the real series on that row
    assert nodes == [(0.170751, 0.0), (0.25, 0.5), (0.5, 0.5),
                     (0.75, 0.5), (0.829249, 0.0)]
    assert all(z.residual <= 1e-10 for z in zeros)


def test_multiwindow_additivity():
    w1, w2 = window(2), window(2, (TFShift(0.5, 0.5),))
    sys2 = GaborSystem(windows=[w1, w2], point_set=PRESETS["Z2"])
    N = 16
    total = np.abs(zak_surface(w1, N).values) ** 2 \
        + np.abs(zak_surface(w2, N).values) ** 2
    for i in (0, 3, 9):
        for j in (1, 8, 12):
            direct = sum(abs(zak_point(w, i / N, j / N)) ** 2 for w in (w1, w2))
            assert abs(total[i, j] - direct) <= 1e-12


def test_translation_covariance_of_objective():
    # |Z pi(z) g| is the translate of |Z g| on node-aligned shifts
    N = 32
    base = np.abs(zak_surface(window(2), N).values)
    shifted = np.abs(zak_surface(window(2, (TFShift(0.25, 0.5),)), N).values)
    rolled = np.roll(np.roll(base, -N // 4, axis=0), -N // 2, axis=1)
    assert np.max(np.abs(shifted - rolled)) <= 1e-12


def test_equivalence_transport_identity():
    sys0 = system(2, "Z2")
    out = equivalence_transport(sys0, ())
    assert out.windows == sys0.windows
    assert out.point_set == sys0.point_set


def test_transport_preserves_bounds_and_verdicts():
    rng = np.random.RandomState(321)
    base_reports = {}
    for n in (0, 2):
        base_reports[n] = frame_bounds(reduce_to_multiwindow(system(n, "Z2")), 64)
    for trial in range(10):
        kind = trial % 4
        if kind == 0:
            chain = (Dilation(math.exp(rng.uniform(-0.5, 0.5))),)
        elif kind == 1:
            chain = (Chirp(rng.uniform(-1.0, 1.0)),)
        elif kind == 2:
            chain = (FrFT(rng.uniform(0.3, 1.2)),)
        else:
            chain = (Dilation(math.exp(rng.uniform(-0.4, 0.4))),
                     Chirp(rng.uniform(-0.8, 0.8)),
                     FrFT(rng.uniform(0.3, 1.0)))
        for n in (0, 2):
            moved = equivalence_transport(system(n, "Z2"), chain)
            report = frame_bounds(reduce_to_multiwindow(moved), 64)
            assert abs(report.A_est - base_reports[n].A_est) <= 2e-6
            assert report.verdict == base_reports[n].verdict


def test_transport_rotates_square_lattice_system():
    # rotating the density-2 square-lattice system leaves a bare window
    # (eigenvalue absorption) over the rotated lattice; still not a frame
    from gaborkit.lattices import rotation, sets_equal
    base = system(2, "sqrt2-square")
    for r in (math.pi / 6.0, 0.9):
        moved = equivalence_transport(base, (FrFT(r),))
        target = point_set(rotation(r) / SQRT2)
        assert sets_equal(moved.point_set, target, window=3.0)
        assert moved.windows[0].chain == ()
        assert abs(abs(moved.windows[0].phase) - 1.0) < 1e-14
        report = frame_bounds(reduce_to_multiwindow(moved), 64)
        assert report.verdict == "NotFrame"


def test_transport_reproduces_lattice_decomposition():
    # dilating the rectangular-union system by sqrt(2) recovers the
    # density-2 square lattice with the bare window, with equal bounds
    from gaborkit.lattices import sets_equal
    rect_union = point_set(np.eye(2), [(0.0, 0.0), (0.5, 0.0)])
    sys0 = GaborSystem([window(2, (Dilation(1.0 / SQRT2),))], rect_union)
    moved = equivalence_transport(sys0, (Dilation(SQRT2),))
    # the dilations cancel: the moved window is the bare h_2
    t = np.linspace(-6.0, 6.0, 49)
    assert np.max(np.abs(evaluate(moved.windows[0], t) - evaluate(window(2), t))) <= 1e-15
    assert sets_equal(moved.point_set, PRESETS["sqrt2-square"], window=3.0)
    r0 = frame_bounds(reduce_to_multiwindow(sys0), 64)
    r1 = frame_bounds(reduce_to_multiwindow(moved), 64)
    assert abs(r0.A_est - r1.A_est) <= 2e-6
    assert abs(r0.B_est - r1.B_est) <= 2e-6
    assert r0.verdict == r1.verdict == "NotFrame"


def test_reduce_combines_cosets_with_existing_shifts():
    # a shifted union of density-2 lattices reduces to four windows; the
    # quadruple over-sampling is comfortably frame-like
    ps = point_set(np.eye(2) / SQRT2, [(0.0, 0.0), (0.25, 0.25)])
    reduced = reduce_to_multiwindow(GaborSystem([window(2)], ps))
    assert len(reduced.windows) == 4
    report = frame_bounds(reduced, 256)
    assert report.verdict == "LikelyFrame"
    assert report.A_est > 1.0


def test_transport_by_rational_shift():
    # pi(z) transport keeps the point set and shifts the window; the zero
    # moves by -z, staying certifiable when z is a small rational
    base = frame_bounds(reduce_to_multiwindow(system(0, "Z2")), 64)
    moved = equivalence_transport(system(0, "Z2"), (TFShift(0.25, 0.25),))
    report = frame_bounds(reduce_to_multiwindow(moved), 64)
    assert report.verdict == base.verdict == "NotFrame"
    assert abs(report.A_est - base.A_est) <= 2e-6
    nodes = [(z.x, z.omega) for z in report.zeros]
    assert nodes == [(0.25, 0.25)]


def test_transport_through_interpolated_windows():
    # chirp before the fractional link: the transported window evaluates
    # through its normal form, and the bounds must agree with the system
    # moved onto the point set
    w = window(2, (FrFT(0.5), Chirp(0.8)))
    sys_folded = GaborSystem(windows=[w], point_set=PRESETS["Z2"])
    rep_folded = frame_bounds(sys_folded, 64)
    from gaborkit.operators import project_isomorphism
    U = project_isomorphism((FrFT(0.5), Chirp(0.8)))
    sys_closed = GaborSystem(windows=[window(2)],
                             point_set=point_set(np.linalg.inv(U)))
    rep_closed = frame_bounds(reduce_to_multiwindow(sys_closed), 64)
    assert abs(rep_folded.B_est - rep_closed.B_est) <= 2e-6
    assert abs(rep_folded.A_est - rep_closed.A_est) <= 2e-6
    assert rep_folded.verdict == rep_closed.verdict == "NotFrame"


def test_verdict_gating_is_exclusive():
    reports = [
        frame_bounds(reduce_to_multiwindow(system(0, "Z2")), 64),
        frame_bounds(reduce_to_multiwindow(
            GaborSystem([window(2)],
                        point_set(np.eye(2), [(0.0, 0.0), (0.25, 0.25)]))), 1024),
    ]
    for report in reports:
        certified = [z for z in report.zeros if z.residual <= 1e-10]
        if report.verdict == "NotFrame":
            assert certified
        if report.verdict == "LikelyFrame":
            assert not certified
            assert report.A_est > 0
    assert reports[1].verdict == "LikelyFrame"


def test_theta_zero_certificate():
    cert = theta_zero_certificate()
    assert cert["zak_origin"] <= 1e-12
    assert cert["theta_combination"] <= 1e-12
    assert cert["difference"] <= 1e-13
    assert cert["zak_half_half"] <= 1e-12
    assert cert["theta3_at_1"] > 1.0


def test_report_json_schema():
    report = frame_bounds(reduce_to_multiwindow(system(0, "Z2")), 64)
    payload = report_to_json(report)
    assert set(payload) == {"A_est", "B_est", "zeros", "verdict", "resolution",
                            "refinement_tol"}
    assert payload["zeros"][0].keys() == {"x", "omega", "residual"}


def test_finite_frame_oracle_brackets_grid_bounds():
    sys0 = reduce_to_multiwindow(system(0, "Z2"))
    report = frame_bounds(sys0, 64)
    lo, hi = finite_frame_spectrum(sys0)
    scale = report.B_est
    assert abs(report.A_est - lo) <= 0.05 * scale
    assert abs(report.B_est - hi) <= 0.05 * scale


def counting_zak_calls(monkeypatch):
    """Count the Zak evaluations that frame analysis makes: zak_point calls,
    batched or scalar, and the polish's batched _zak_jet calls."""
    from gaborkit import frames
    calls = {"batched": 0, "scalar": 0, "jet": 0}
    jet = frames._zak_jet

    def counted(w, x, omega, trunc=None):
        calls["batched" if np.ndim(x) else "scalar"] += 1
        return zak_point(w, x, omega, trunc)

    def counted_jet(w, x, omega, trunc):
        calls["jet"] += 1
        return jet(w, x, omega, trunc)

    monkeypatch.setattr(frames, "zak_point", counted)
    monkeypatch.setattr(frames, "_zak_jet", counted_jet)
    return calls


def test_tilted_valley_zeros_found_with_bounded_work(monkeypatch):
    # h_1 after FrFT(0.3) and Chirp(0.64): a window folded into its normal
    # form, whose two non-rational zeros sit in tilted valleys of the objective
    chain = (FrFT(0.3), Chirp(0.64))
    calls = counting_zak_calls(monkeypatch)
    report = frame_bounds(GaborSystem([window(1, chain)], PRESETS["Z2"]), 64)
    assert report.verdict == "NotFrame"
    assert calls["batched"] <= 101 and calls["batched"] + calls["scalar"] <= 500
    assert 0 < calls["jet"] <= 12
    # the same function in closed form: undo the chain on the lattice and
    # reduce back to Z^2, which gives a dilated, chirped h_1 up to a phase
    U = project_isomorphism(chain)
    closed = reduce_to_multiwindow(
        GaborSystem([window(1)], point_set(np.linalg.inv(U)))).windows[0]
    dilation, chirp = closed.chain
    assert (type(dilation), type(chirp)) == (Dilation, Chirp)
    ks = np.arange(-40.0, 41.0)
    for x0, om0 in ((0.389505449, 0.951266236), (0.610494551, 0.048733764)):
        z = min(report.zeros, key=lambda z: math.hypot(z.x - x0, z.omega - om0))
        assert math.hypot(z.x - x0, z.omega - om0) <= 1e-8
        # D_a C_q h_1 written out, apart from the normal form
        u = (ks - z.x) / dilation.a
        composed = closed.phase * np.exp(1j * np.pi * chirp.q * u * u) \
            * hermite(1, u) / math.sqrt(dilation.a)
        assert np.max(np.abs(evaluate(closed, ks - z.x) - composed)) <= 1e-14
        direct = np.sum(composed * np.exp(2j * np.pi * z.omega * ks))
        assert abs(direct) <= 1e-10
    assert all(0.0 <= v < 1.0 for z in report.zeros for v in (z.x, z.omega))


def test_denominator_eight_double_oversampling_with_bounded_work(monkeypatch):
    # h_4 over Z^2 u (Z^2 + (3/8, 1/8)): two positive minima, no zero
    calls = counting_zak_calls(monkeypatch)
    union = point_set(np.eye(2), [(0.0, 0.0), (0.375, 0.125)])
    report = frame_bounds(reduce_to_multiwindow(GaborSystem([window(4)], union)), 256)
    assert calls["batched"] <= 2 * 101 and calls["batched"] + calls["scalar"] <= 150
    # two windows, one jet call each a local model (the stencil took 28 models)
    assert 0 < calls["jet"] <= 2 * 12
    assert report.verdict == "Inconclusive" and not report.zeros
    assert abs(report.A_est - 7.956578648398731e-3) <= 1e-12 * report.A_est


def test_polish_ends_at_once_on_a_minimum_at_a_grid_node(monkeypatch):
    # h_0 over Z^2 u (Z^2 + (1/2, 1/2)) at N = 256 has its minimum on a grid
    # node: the first step from it returns an equal F, which is accepted and
    # ends the polish (a rejection would raise the damping 15 times)
    from gaborkit import frames
    model, points = frames._local_model, []

    def counted(windows, pts, trunc):
        points.append(len(pts))
        return model(windows, pts, trunc)

    monkeypatch.setattr(frames, "_local_model", counted)
    report = frame_bounds(system(0, "Z2-union-half"), 256)
    assert report.verdict == "LikelyFrame" and not report.zeros
    assert points[0] > 0 and len(points) <= 3


def eight_neighbour_minima(F):
    mask = np.ones_like(F, dtype=bool)
    for dx in (-1, 0, 1):
        for dom in (-1, 0, 1):
            if dx or dom:
                mask &= F <= np.roll(np.roll(F, dx, axis=0), dom, axis=1)
    return mask


def padded(F, i0, i1):
    # rows i0 .. i1 - 1 of F with one torus halo row and column on each side:
    # rows i0 - 1 .. i1 mod N, wrapped by one column each way
    P = F[np.arange(i0 - 1, i1 + 1) % len(F)]
    return np.concatenate([P[:, -1:], P, P[:, :1]], axis=1)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 33])
def test_local_minima_mask_matches_eight_neighbour_reference(N):
    from gaborkit.frames import _local_minima_mask
    rng = np.random.default_rng(N)
    plateau = np.ones((N, N))
    plateau[N // 2:, : N // 2 + 1] = 0.5  # a flat valley with a flat rim
    grids = [rng.random((N, N)),
             rng.integers(0, 3, (N, N)).astype(float),  # many ties
             np.full((N, N), 2.0), plateau]
    for F in grids:
        assert np.array_equal(_local_minima_mask(padded(F, 0, N)),
                              eight_neighbour_minima(F))


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 33])
def test_padded_tiles_reassemble_the_whole_grid(N):
    # the grid stage reads F in tiles of whole rows; tiles of any height
    # give the whole grid's minima mask and slack
    from gaborkit.frames import _grid_slack, _local_minima_mask
    rng = np.random.default_rng(200 + N)
    for F in (rng.random((N, N)), rng.integers(0, 3, (N, N)).astype(float)):
        for rows in (1, 2, N):
            tiles = [padded(F, i0, min(i0 + rows, N)) for i0 in range(0, N, rows)]
            assert np.array_equal(np.vstack([_local_minima_mask(P) for P in tiles]),
                                  eight_neighbour_minima(F))
            assert max(_grid_slack(P) for P in tiles) == roll_grid_slack(F)


def test_small_rational_rule():
    from gaborkit.frames import _small_rational
    assert _small_rational(0.5 + 5e-7) == 0.5
    assert _small_rational(2.0 / 6.0 + 1e-9) == 1.0 / 3.0
    assert _small_rational(0.875 - 9e-7) == 0.875
    assert _small_rational(1.0 / 9.0) is None
    assert _small_rational(0.5 + 2e-6) is None


def test_snap_evaluates_each_point_once(monkeypatch):
    # three polished candidates near parity zeros of a folded h_1;
    # each costs one residual evaluation and at most three snap candidates
    from gaborkit import frames
    from gaborkit.frames import _torus_dist
    calls = counting_zak_calls(monkeypatch)
    starts = []
    polish = frames._polish

    def counted_polish(windows, pts, *rest):
        starts.append(len(pts))
        return polish(windows, pts, *rest)

    monkeypatch.setattr(frames, "_polish", counted_polish)
    zeros = find_zak_zeros(window(1, (FrFT(0.8), Chirp(0.7))), 32)
    assert sum(starts) >= 3 and calls["scalar"] <= 4 * sum(starts)
    # the three parity zeros of the odd window
    assert len(zeros) == 3
    for x0, om0 in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5)):
        assert any(max(_torus_dist(z.x, x0), _torus_dist(z.omega, om0)) <= 1e-12
                   and z.residual <= 1e-13 for z in zeros)


@pytest.mark.parametrize("w", [window(2), window(1, (FrFT(0.8), Chirp(0.7)))],
                         ids=["closed-form", "interpolated"])
def test_zero_search_makes_only_batched_zak_calls(monkeypatch, w):
    # the polish (its jets), the snap and the residuals all evaluate the
    # objective in batches
    calls = counting_zak_calls(monkeypatch)
    union = reduce_to_multiwindow(GaborSystem([w], PRESETS["Z2-union-half"]))
    frame_bounds(union, 32)
    zeros = find_zak_zeros(w, 32)
    assert zeros and calls["batched"] > 0 and calls["jet"] > 0 and calls["scalar"] == 0


@pytest.mark.parametrize("search", [
    lambda N: find_zak_zeros(window(0), N),
    lambda N: frame_bounds(system(0, "Z2-union-half"), N)], ids=["find-zeros", "frame-bounds"])
def test_zero_search_refuses_grids_finer_than_2_16(monkeypatch, search):
    # the check comes before anything of size N: above 2**16 the Zak sum's
    # factors are not reached, and at 2**16 the search goes on to build them
    from gaborkit import zak

    def reached(k_lo, k_hi):
        raise AssertionError("the Zak sum's factors were built")
    monkeypatch.setattr(zak, "_indices", reached)
    with pytest.raises(ValueError, match="must be at most 65536, got 65537$"):
        search(2 ** 16 + 1)
    with pytest.raises(AssertionError, match="factors were built"):
        search(2 ** 16)


def test_find_zeros_rejects_non_finite_tol():
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"needs a finite tol, got {tol!r}"):
            find_zak_zeros(window(0), 32, tol=tol)


def test_unit_representative():
    from gaborkit.frames import _unit
    assert _unit(-1e-17) == 0.0
    assert _unit(1.0) == 0.0
    assert _unit(-0.25) == 0.75
    assert _unit(0.9999999999999825) == 0.9999999999999825


# the grid stage as it was written with np.roll copies: the in-place passes
# of frames must reproduce it bit for bit

def roll_grid_slack(F):
    return max(float(np.max(np.abs(F - np.roll(F, 1, axis=0)))),
               float(np.max(np.abs(F - np.roll(F, 1, axis=1)))))


def roll_grid_candidates(windows, N, trunc):
    F = np.zeros((N, N))
    for g in windows:
        F += np.abs(zak_surface(g, N, trunc).values) ** 2
    A_grid, B_grid = float(F.min()), float(F.max())
    slack = roll_grid_slack(F)
    amp_slack = roll_grid_slack(np.sqrt(F))
    threshold = max(3.0 * A_grid, (4.0 * amp_slack) ** 2, 1e-24)
    m = np.minimum(F, np.minimum(np.roll(F, 1, axis=0), np.roll(F, -1, axis=0)))
    m = np.minimum(m, np.minimum(np.roll(m, 1, axis=1), np.roll(m, -1, axis=1)))
    cand = np.argwhere((F <= m) & (F <= threshold))
    return A_grid, B_grid, slack, amp_slack, cand


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 33])
def test_grid_slack_matches_roll_reference(N):
    from gaborkit.frames import _grid_slack
    rng = np.random.default_rng(100 + N)
    ramp = np.arange(N, dtype=float)
    grids = [rng.standard_normal((N, N)),  # steps of both signs
             rng.integers(-2, 3, (N, N)).astype(float),  # many ties
             np.full((N, N), -3.0),
             np.repeat(ramp[:, None], N, axis=1),  # largest jump across the wrap row
             np.repeat(-ramp[None, :], N, axis=0),  # ... and the wrap column
             np.add.outer(ramp, 2.0 * ramp[::-1])]
    for F in grids:
        assert _grid_slack(padded(F, 0, N)) == roll_grid_slack(F)
    if N > 2:
        assert _grid_slack(padded(grids[3], 0, N)) \
            == _grid_slack(padded(grids[4], 0, N)) == N - 1.0


def union_systems():
    cases = [pytest.param(reduce_to_multiwindow(system(n, "Z2-union-half")),
                          id=f"h{n}-Z2-union-half") for n in range(5)]
    union = point_set(np.eye(2), [(0.0, 0.0), (0.375, 0.125)])
    cases.append(pytest.param(reduce_to_multiwindow(GaborSystem([window(4)], union)),
                              id="h4-eighths"))
    return cases


# 129 rows are tiles of 127 and 2, and 181 rows tiles of 90, 90 and 1
@pytest.mark.parametrize("N", [33, 64, 129, 181, 255])
@pytest.mark.parametrize("sys_", union_systems())
def test_grid_stage_matches_roll_reference_bit_for_bit(monkeypatch, N, sys_):
    from gaborkit import frames
    got = frames._grid_candidates(sys_.windows, N, None)
    expected = roll_grid_candidates(sys_.windows, N, None)
    assert got[:4] == expected[:4]
    assert np.array_equal(got[4], expected[4])
    zeros = frames._search_zeros(sys_.windows, N, None, 1e-10)
    monkeypatch.setattr(frames, "_grid_candidates", roll_grid_candidates)
    assert zeros == frames._search_zeros(sys_.windows, N, None, 1e-10)


# tiles of 1 row, as from N = 2**14 on, and of 2 and 3 rows: 33 rows are
# tiles of 2 and a last 1, 64 rows tiles of 3 and a last 1
@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("N", [33, 64])
@pytest.mark.parametrize("sys_", union_systems())
def test_grid_stage_matches_roll_reference_with_short_tiles(monkeypatch, rows, N, sys_):
    from gaborkit import frames, zak
    for module in (zak, frames):
        monkeypatch.setattr(module, "_tile_rows", lambda N: min(N, rows))
    got = frames._grid_candidates(sys_.windows, N, None)
    expected = roll_grid_candidates(sys_.windows, N, None)
    assert got[:4] == expected[:4]
    assert np.array_equal(got[4], expected[4])
    zeros = frames._search_zeros(sys_.windows, N, None, 1e-10)
    monkeypatch.setattr(frames, "_grid_candidates", roll_grid_candidates)
    assert zeros == frames._search_zeros(sys_.windows, N, None, 1e-10)


def test_grid_stage_holds_one_grid_sized_array():
    # no N x N array is made: the Zak surfaces arrive in row tiles of 2**14
    # values, from window values evaluated on about 2**11 points at a time,
    # and F is summed and read a row tile at a time
    import tracemalloc
    from gaborkit import frames
    union = point_set(np.eye(2), [(0.0, 0.0), (0.25, 0.25)])
    windows = reduce_to_multiwindow(GaborSystem([window(4)], union)).windows
    N = 512
    frames._grid_candidates(windows, N, None)  # fill the per-window caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        frames._grid_candidates(windows, N, None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * N * N


def test_grid_stage_memory_grows_with_n_not_n_squared():
    # one row tile of F, one padded work tile and O(N) work arrays, about
    # 3.3 MB at N = 2048 for the system above, where F alone would take
    # 8N^2 = 34 MB
    import tracemalloc
    from gaborkit import frames
    union = point_set(np.eye(2), [(0.0, 0.0), (0.25, 0.25)])
    windows = reduce_to_multiwindow(GaborSystem([window(4)], union)).windows
    N = 2048
    frames._grid_candidates(windows, N, None)  # fill the per-window caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        frames._grid_candidates(windows, N, None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * N * N / 4
