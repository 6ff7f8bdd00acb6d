import math

import numpy as np
import pytest

from gaborkit.errors import NotASublattice, NotUnimodular, SingularMatrix
from gaborkit.lattices import (PRESETS, coset_split, dilation_matrix,
                               enumerate_points, from_json, iwasawa_factor,
                               point_set, recompose, rotation, sets_equal,
                               shear, to_json, transform, translate)

SQRT2 = math.sqrt(2.0)


def random_sl2(rng):
    r = rng.uniform(-math.pi, math.pi)
    q = rng.uniform(-2.0, 2.0)
    a = math.exp(rng.uniform(-1.0, 1.0))
    return rotation(r) @ shear(q) @ dilation_matrix(a)


def test_identity_factorization():
    r, q, a = iwasawa_factor(np.eye(2))
    assert (r, q, a) == (0.0, 0.0, 1.0)


def test_square_union_generator_factorization():
    # [[1/2, 1/2], [-1/2, 1/2]] is the rotation by pi/4 scaled by 1/sqrt(2)
    M = np.array([[0.5, 0.5], [-0.5, 0.5]])
    r, q, a = iwasawa_factor(M)
    assert abs(q) < 1e-14
    assert a == pytest.approx(1.0 / SQRT2, abs=1e-14)
    assert abs(abs(r) - math.pi / 4.0) < 1e-14
    rebuilt = recompose(r, q, a, det=float(np.linalg.det(M)))
    assert np.max(np.abs(rebuilt - M)) < 1e-14


def test_factorization_recomposes_on_random_sl2():
    rng = np.random.RandomState(88)
    worst = 0.0
    for _ in range(200):
        M = random_sl2(rng)
        r, q, a = iwasawa_factor(M)
        assert a > 0
        rebuilt = recompose(r, q, a, det=float(np.linalg.det(M)))
        worst = max(worst, float(np.max(np.abs(rebuilt - M))))
    assert worst <= 1e-9


def test_factorization_rejects_nonpositive_determinant():
    with pytest.raises(NotUnimodular):
        iwasawa_factor([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotUnimodular):
        iwasawa_factor([[1.0, 0.0], [0.0, 0.0]])


def test_coset_split_rect_in_square():
    # the square lattice of density 2 splits into the side-ratio-2
    # rectangular lattice and one shifted copy
    ps = coset_split(PRESETS["D-sqrt2"].generator_matrix,
                     PRESETS["sqrt2-square"].generator_matrix)
    assert len(ps.shifts) == 2
    expected = np.array([[0.0, 0.0], [SQRT2 / 2.0, 0.0]])
    assert np.max(np.abs(ps.shift_array - expected)) < 1e-12


def test_coset_split_integer_in_union():
    target = np.array([[0.5, 0.5], [-0.5, 0.5]])
    ps = coset_split(np.eye(2), target)
    assert len(ps.shifts) == 2
    expected = np.array([[0.0, 0.0], [0.5, 0.5]])
    assert np.max(np.abs(ps.shift_array - expected)) < 1e-12


def test_coset_split_trivial_and_errors():
    ps = coset_split(np.eye(2), np.eye(2))
    assert len(ps.shifts) == 1
    with pytest.raises(NotASublattice):
        coset_split(np.eye(2), 0.6 * np.eye(2))
    with pytest.raises(NotASublattice):
        # index 2 but not actually contained
        coset_split(np.array([[2.0, 0.0], [0.0, 1.0]]),
                    np.array([[0.7, 0.0], [0.0, 1.0]]))


def test_coset_split_union_covers_target_exactly():
    split = coset_split(PRESETS["D-sqrt2"].generator_matrix,
                        PRESETS["sqrt2-square"].generator_matrix)
    assert sets_equal(split, PRESETS["sqrt2-square"], window=5.0)
    # disjointness: per-coset counts add up to the union count
    total = enumerate_points(split, 5.0).shape[0]
    parts = sum(
        enumerate_points(point_set(split.generator_matrix, [s]), 5.0).shape[0]
        for s in split.shifts)
    assert total == parts


def test_enumerate_counts_and_density():
    assert enumerate_points(PRESETS["Z2"], 1.5).shape[0] == 9
    union = PRESETS["Z2-union-half"]
    assert enumerate_points(union, 1.0).shape[0] == 13
    assert PRESETS["sqrt2-square"].density == pytest.approx(2.0, abs=1e-12)
    assert union.density == pytest.approx(2.0, abs=1e-12)


def test_enumerate_is_sorted_and_duplicate_free():
    pts = enumerate_points(PRESETS["Z2-union-half"], 3.0)
    keys = [tuple(p) for p in pts]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    with pytest.raises(ValueError):
        enumerate_points(PRESETS["Z2"], -1.0)


def test_transform_examples():
    assert sets_equal(transform(PRESETS["Z2"], np.eye(2)), PRESETS["Z2"], 3.0)
    rotated = transform(PRESETS["sqrt2-square"], rotation(math.pi / 4.0))
    assert sets_equal(rotated, PRESETS["Z2-union-half"], window=3.0, tol=1e-9)
    moved = translate(PRESETS["Z2"], np.array([0.25, 0.25]))
    assert np.max(np.abs(moved.shift_array - np.array([[0.25, 0.25]]))) < 1e-12
    with pytest.raises(SingularMatrix):
        transform(PRESETS["Z2"], np.zeros((2, 2)))


def test_density_invariant_under_unimodular_maps():
    rng = np.random.RandomState(17)
    for _ in range(20):
        M = random_sl2(rng)
        ps = transform(PRESETS["Z2-union-half"], M)
        assert ps.density == pytest.approx(2.0, rel=1e-12)


def test_shift_canonicalization():
    ps = point_set(np.eye(2), [(0.0, 0.0), (1.0, 2.0), (0.5, -0.5), (1.5, 0.5)])
    # (1, 2) is the origin coset; (1.5, .5) duplicates (.5, -.5) ~ (.5, .5)
    assert len(ps.shifts) == 2
    assert np.max(np.abs(ps.shift_array - np.array([[0.0, 0.0], [0.5, 0.5]]))) \
        < 1e-12


def test_json_round_trip():
    ps = PRESETS["Z2-union-half"]
    d = to_json(ps)
    assert d["generator"] == [[1.0, 0.0], [0.0, 1.0]]
    assert d["shifts"] == [[0.0, 0.0], [0.5, 0.5]]
    assert from_json(d) == ps


@pytest.mark.parametrize("generator, shifts, message", [
    ([[math.inf, 0.0], [0.0, 1.0]], [(0.0, 0.0)],
     r"generator entry \(0, 0\) must be finite, got inf"),
    ([[1.0, 0.0], [math.nan, 1.0]], [(0.0, 0.0)],
     r"generator entry \(1, 0\) must be finite, got nan"),
    (np.eye(2), [(0.0, 0.0), (math.nan, 0.5)], r"shift \(nan, 0.5\) must be finite"),
    (np.eye(2), [(0.0, -math.inf)], r"shift \(0.0, -inf\) must be finite"),
])
def test_point_set_rejects_non_finite_entries(generator, shifts, message):
    with pytest.raises(ValueError, match=message):
        point_set(generator, shifts)
