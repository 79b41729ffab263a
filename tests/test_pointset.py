import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from cellbounds.pointset import (HardcoreSpec, MarkedPointSet, Rect,
                                 UnsupportedReuseError, ball_count, ball_counts,
                                 color_lattice, from_csv, gen_matern_ii,
                                 gen_triangular_lattice, hardcore_family,
                                 nearest_point, to_csv, verify_hardcore)

A_HEX = 4 / math.sqrt(3.0)  # hexagon edge giving inter-site distance 4


def brute_min_same_mark(ps):
    """Exhaustive pairwise oracle for the same-mark minimum distance."""
    best = np.inf
    for mark in np.unique(ps.marks):
        sub = ps.points[ps.marks == mark]
        if len(sub) >= 2:
            best = min(best, pdist(sub).min())
    return best


def test_rect_rejects_degenerate():
    with pytest.raises(ValueError):
        Rect(0, 0, 0, 1)
    with pytest.raises(ValueError):
        Rect(0, 1, 2, 2)


def test_lattice_contains_expected_sites():
    ps = gen_triangular_lattice(A_HEX, Rect(-0.1, 4.1, -0.1, 4.1))
    coords = {tuple(np.round(p, 9)) for p in ps.points}
    assert (0.0, 0.0) in coords
    assert (4.0, 0.0) in coords
    assert pdist(ps.points).min() == pytest.approx(4.0, rel=1e-12)


def test_lattice_tiny_window_single_site():
    ps = gen_triangular_lattice(1.0, Rect(-0.1, 0.1, -0.1, 0.1))
    assert len(ps) == 1
    assert ps.points[0] == pytest.approx([0.0, 0.0])


def test_lattice_minimum_distance_is_twice_h1():
    ps = gen_triangular_lattice(A_HEX, Rect(-20, 20, -20, 20))
    assert pdist(ps.points).min() == pytest.approx(4.0, rel=1e-12)
    assert verify_hardcore(ps, 4.0)


def test_reuse3_coloring_separation():
    lattice = gen_triangular_lattice(A_HEX, Rect(-20, 20, -20, 20))
    colored = color_lattice(lattice, 3)
    assert set(np.unique(colored.marks)) == {1, 2, 3}
    sep = brute_min_same_mark(colored)
    assert sep == pytest.approx(3 * A_HEX, rel=1e-12)       # = 4*sqrt(3)
    h3 = 3 * A_HEX / 2
    assert h3 == pytest.approx(2 * math.sqrt(3.0), rel=1e-12)
    assert verify_hardcore(colored, 2 * h3)
    assert not verify_hardcore(colored, 2 * h3 * (1 + 1e-9))
    assert not verify_hardcore(colored, 4 * math.sqrt(3.0) + 0.01)


def test_reuse4_coloring_separation():
    lattice = gen_triangular_lattice(A_HEX, Rect(-20, 20, -20, 20))
    colored = color_lattice(lattice, 4)
    assert set(np.unique(colored.marks)) == {1, 2, 3, 4}
    sep = brute_min_same_mark(colored)
    assert sep == pytest.approx(8.0, rel=1e-12)             # = 2*sqrt(3)*a
    h4 = math.sqrt(3.0) * A_HEX
    assert h4 == pytest.approx(4.0, rel=1e-12)
    assert verify_hardcore(colored, 2 * h4)
    assert not verify_hardcore(colored, 2 * h4 * (1 + 1e-9))


def test_reuse1_coloring_is_identity():
    lattice = gen_triangular_lattice(1.0, Rect(-5, 5, -5, 5))
    colored = color_lattice(lattice, 1)
    assert np.all(colored.marks == 1)
    assert brute_min_same_mark(colored) == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_color_lattice_rejects_unsupported_reuse():
    lattice = gen_triangular_lattice(1.0, Rect(-5, 5, -5, 5))
    with pytest.raises(UnsupportedReuseError):
        color_lattice(lattice, 2)


def test_color_lattice_needs_lattice_indices():
    ps = MarkedPointSet(np.array([[0.0, 0.0]]), np.array([1]),
                        Rect(-1, 1, -1, 1))
    with pytest.raises(ValueError):
        color_lattice(ps, 3)


def test_matern_respects_hardcore_distance():
    window = Rect(0, 100, 0, 100)
    for seed in range(20):
        ps = gen_matern_ii(0.1, 4.0, window, seed)
        assert verify_hardcore(ps, 4.0)
        if len(ps) >= 2:
            assert pdist(ps.points).min() >= 4.0 * (1 - 1e-12)


def test_matern_deterministic_per_seed():
    window = Rect(0, 100, 0, 100)
    first = gen_matern_ii(0.1, 4.0, window, 7)
    second = gen_matern_ii(0.1, 4.0, window, 7)
    assert np.array_equal(first.points, second.points)
    other = gen_matern_ii(0.1, 4.0, window, 8)
    assert len(other) == 0 or not np.array_equal(first.points, other.points)


def test_matern_empty_sample_is_valid():
    ps = gen_matern_ii(1e-9, 4.0, Rect(0, 100, 0, 100), 3)
    assert len(ps) == 0
    assert verify_hardcore(ps, 4.0)


def test_matern_density_matches_thinning_formula():
    # retained intensity of age-based thinning: (1 - exp(-lam*pi*r^2))/(pi*r^2)
    lam, radius = 0.1, 4.0
    window = Rect(0, 200, 0, 200)
    expected = (1 - math.exp(-lam * math.pi * radius ** 2)) / (math.pi * radius ** 2)
    counts = [len(gen_matern_ii(lam, radius, window, seed)) for seed in range(100)]
    mean_density = np.mean(counts) / window.area
    assert abs(mean_density - expected) / expected < 0.15


# fractions of the inner window, with its edges drawn explicitly
_EDGE_OR_INSIDE = st.one_of(st.sampled_from([0.0, 1.0]),
                            st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), intensity=st.floats(0.02, 0.5),
       radius=st.floats(0.5, 6.0), reach=st.floats(0.0, 18.0),
       fx=_EDGE_OR_INSIDE, fy=_EDGE_OR_INSIDE)
def test_matern_near_is_full_sample_restricted(seed, intensity, radius, reach,
                                               fx, fy):
    window = Rect(0, 40, 0, 40)
    inner = window.shrink(reach)
    center = (inner.xmin + fx * inner.width, inner.ymin + fy * inner.height)
    full = gen_matern_ii(intensity, radius, window, seed)
    near = gen_matern_ii(intensity, radius, window, seed,
                         near=(center, reach))
    inside = (np.abs(full.points - center) <= reach).all(axis=1)
    assert np.array_equal(near.points, full.points[inside])
    assert near.window == window


def test_nearest_point_at_cell_vertex():
    ps = gen_triangular_lattice(A_HEX, Rect(-20, 20, -20, 20))
    vertex = (2.0, 4.0 * math.sqrt(3.0) / 6)
    point, d = nearest_point(ps, vertex)
    assert d == pytest.approx(A_HEX, rel=1e-12)
    assert point == pytest.approx([0.0, 0.0])  # lexicographic winner of the tie


def test_nearest_point_exact_hit_and_tie_break():
    ps = MarkedPointSet(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, 1]),
                        Rect(-2, 2, -2, 2))
    point, d = nearest_point(ps, (1.0, 0.0))
    assert d == 0.0
    point, d = nearest_point(ps, (0.0, 0.0))
    assert d == 1.0
    assert point == pytest.approx([-1.0, 0.0])


def test_nearest_point_empty_raises():
    empty = MarkedPointSet(np.zeros((0, 2)), np.zeros(0, dtype=int),
                           Rect(0, 1, 0, 1))
    with pytest.raises(ValueError):
        nearest_point(empty, (0.5, 0.5))


def test_ball_count_open_ball_convention():
    ps = gen_triangular_lattice(A_HEX, Rect(-20, 20, -20, 20))
    # neighbors sit at distance exactly 4: excluded by the open ball
    assert ball_count(ps, (0.0, 0.0), 4.0) == 1
    assert ball_count(ps, (0.0, 0.0), 4.01) == 7


def test_ball_count_empty_and_monotone():
    empty = MarkedPointSet(np.zeros((0, 2)), np.zeros(0, dtype=int),
                           Rect(0, 1, 0, 1))
    assert ball_count(empty, (0.5, 0.5), 10.0) == 0
    ps = gen_triangular_lattice(A_HEX, Rect(-20, 20, -20, 20))
    counts = [ball_count(ps, (0.3, 0.2), r) for r in np.linspace(0, 15, 40)]
    assert all(c1 <= c2 for c1, c2 in zip(counts, counts[1:]))


def test_ball_count_mark_filter():
    lattice = color_lattice(gen_triangular_lattice(A_HEX, Rect(-20, 20, -20, 20)), 3)
    total = ball_count(lattice, (0.0, 0.0), 10.0)
    per_mark = sum(ball_count(lattice, (0.0, 0.0), 10.0, mark=m) for m in (1, 2, 3))
    assert total == per_mark


def test_ball_counts_match_pointwise_reference():
    lattice = color_lattice(gen_triangular_lattice(A_HEX, Rect(-20, 20, -20, 20)), 3)
    # radii 4 and 8 hit lattice sites exactly, which the open ball excludes
    radii = [0.0, 4.0, 4.01, 2.0, 8.0, 10.0, 16.0]
    for center in ((0.0, 0.0), (0.3, 0.2)):
        for mark in (None, 1, 2):
            expected = [
                sum(1 for (x, y), m in zip(lattice.points, lattice.marks)
                    if mark in (None, m)
                    and math.hypot(x - center[0], y - center[1])
                    < r * (1 - 1e-12))
                for r in radii]
            assert ball_counts(lattice, center, radii, mark) == expected
    assert ball_counts(lattice, (0.0, 0.0), []) == []
    with pytest.raises(ValueError):
        ball_counts(lattice, (0.0, 0.0), [2.0, -1.0])


def test_marked_point_set_validation():
    window = Rect(0, 1, 0, 1)
    with pytest.raises(ValueError):
        MarkedPointSet(np.array([[0.5, 0.5]]), np.array([1, 2]), window)
    with pytest.raises(ValueError):
        MarkedPointSet(np.array([[0.5, 0.5]]), np.array([2]), window, num_marks=1)
    with pytest.raises(ValueError):
        MarkedPointSet(np.array([[1.5, 0.5]]), np.array([1]), window)


def test_csv_round_trip():
    window = Rect(0, 100, 0, 100)
    ps = gen_matern_ii(0.05, 4.0, window, 11)
    buf = io.StringIO()
    to_csv(ps, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "x,y,mark"
    back = from_csv(io.StringIO(text), window=window)
    assert np.array_equal(back.points, ps.points)
    assert np.array_equal(back.marks, ps.marks)


def test_hardcore_spec_validation():
    with pytest.raises(ValueError):
        HardcoreSpec(0, 1.0)
    with pytest.raises(ValueError):
        HardcoreSpec(3, 0.0)
    specs = hardcore_family([(1, 2.0), (3, 2 * math.sqrt(3.0)), (4, 4.0)])
    assert [s.k for s in specs] == [1, 3, 4]
    with pytest.raises(ValueError):
        hardcore_family([(1, 2.0), (3, 1.5)])
