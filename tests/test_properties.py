"""Property tests over random operator chains (hypothesis)."""

import cmath
import contextlib
import io
import json
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from gaborkit.cli import main
from gaborkit.frames import _grid_candidates
from gaborkit.operators import (Chirp, Dilation, Fourier, FrFT, TFShift,
                                apply_chain, project_isomorphism)
from gaborkit.windows import (descriptor, evaluate, parse_descriptor, realize,
                              window)
from gaborkit.zak import zak_point, zak_surface

# seeded, so that every run of the suite draws the same examples
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

orders = st.integers(0, 6)
dilations = st.floats(0.5, 2.0).map(Dilation)
chirps = st.floats(-2.0, 2.0).map(Chirp)
shifts = st.builds(TFShift, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
any_op = st.one_of(dilations, chirps, shifts, st.floats(-4.0, 4.0).map(FrFT),
                   st.just(Fourier()))
chains = st.lists(any_op, max_size=5).map(tuple)
pointwise_chains = st.lists(st.one_of(dilations, chirps, shifts), max_size=3).map(tuple)


def expected_matrix(op):
    # the documented projections, written out apart from the op classes
    if isinstance(op, Dilation):
        return np.array([[op.a, 0.0], [0.0, 1.0 / op.a]])
    if isinstance(op, Chirp):
        return np.array([[1.0, 0.0], [op.q, 1.0]])
    if isinstance(op, FrFT):
        c, s = math.cos(op.r), math.sin(op.r)
        return np.array([[c, s], [-s, c]])
    if isinstance(op, Fourier):
        return np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.eye(2)


@SETTINGS
@given(orders, chains, st.floats(-math.pi, math.pi))
def test_descriptor_round_trip(n, chain, angle):
    w = window(n, chain, cmath.exp(1j * angle))
    assert window(w.n, w.chain, w.phase) == w
    assert parse_descriptor(json.loads(json.dumps(descriptor(w)))) == w


@SETTINGS
@given(chains)
def test_projection_is_the_product_of_op_matrices(chain):
    m = project_isomorphism(chain)
    expected = np.eye(2)
    for op in chain:
        expected = expected @ expected_matrix(op)
    assert np.allclose(m, expected, rtol=1e-12, atol=1e-12)
    assert abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1.0) <= 1e-12


@SETTINGS
@given(orders, chains, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_zak_quasi_periodicity(n, chain, x, omega):
    w = window(n, chain)
    base = zak_point(w, x, omega)
    step_x = zak_point(w, x + 1.0, omega)
    assert abs(step_x - cmath.exp(2j * math.pi * omega) * base) <= 1e-12
    assert abs(zak_point(w, x, omega + 1.0) - base) <= 1e-12


# chains that stay resolved on the default sampling grid through every link,
# for the FrFT quadrature oracle
oracle_chains = st.lists(st.one_of(
    st.floats(0.7, 1.4).map(Dilation), st.floats(-1.0, 1.0).map(Chirp),
    st.builds(TFShift, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.floats(-7.0, 7.0).map(FrFT), st.just(Fourier())),
    min_size=1, max_size=4).map(tuple)


def _off_multiples_of_pi(r):
    return abs(r - math.pi * round(r / math.pi)) >= 1e-2


@SETTINGS
@given(orders, oracle_chains)
def test_normal_form_matches_quadrature_chain(n, chain):
    # the quadrature raises SingularAngle within 1e-3 of a multiple of pi and
    # loses digits next to it; merged links count by their merged angle
    w = window(n, chain)
    assume(all(_off_multiples_of_pi(op.r) for op in w.chain if isinstance(op, FrFT)))
    f = realize(window(n))
    numeric = w.phase * apply_chain(w.chain, f).values
    assert np.max(np.abs(evaluate(w, f.points) - numeric)) <= 1e-10


_FIELDS = {"dilation": ("a",), "chirp": ("q",), "frft": ("r",),
           "tfshift": ("x", "omega"), "fourier": ()}
_fuzz_values = st.one_of(st.floats(-10.0, 10.0),
                         st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]))
_fuzz_entries = st.sampled_from(sorted(_FIELDS)).flatmap(
    lambda tag: st.tuples(*(_fuzz_values for _ in _FIELDS[tag])).map(
        lambda values: {"op": tag, **dict(zip(_FIELDS[tag], values))}))


@SETTINGS
@given(st.lists(_fuzz_entries, max_size=4))
def test_cli_fuzz_exit_codes(tmp_path_factory, chain):
    out = tmp_path_factory.getbasetemp() / "fuzz.csv"
    argv = ["zak-surface", "--n", "8", "--chain", json.dumps(chain), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2, 3, 4, 5)


@SETTINGS
@given(st.integers(0, 4), pointwise_chains, st.sampled_from([16, 24, 32]), st.data())
def test_grid_stage_is_shift_covariant(n, chain, N, data):
    # |Z pi(x, omega) g| (u, v) = |Z g| (u + x, v + omega), so on the grid
    # a shift by (a/N, b/N) rolls G = |Z g|^2 back by (a, b)
    a, b = data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1))
    g = window(n, chain)
    shifted = window(n, (TFShift(a / N, b / N),) + chain)
    G = np.abs(zak_surface(g, N).values) ** 2
    rolled = np.roll(G, (-a, -b), axis=(0, 1))
    assert np.max(np.abs(np.abs(zak_surface(shifted, N).values) ** 2 - rolled)) \
        <= 1e-12 * G.max()
    # A may be a zero at rounding level, so both bounds are held to B's scale
    A, B, *_ = _grid_candidates([g, shifted], N, None)
    F = G + rolled
    assert abs(A - F.min()) <= 1e-12 * F.max()
    assert abs(B - F.max()) <= 1e-12 * F.max()
