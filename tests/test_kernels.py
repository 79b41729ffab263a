import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellbounds import kernels
from cellbounds.pointset import Rect, color_lattice, gen_triangular_lattice


def random_cloud(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 60, size=(n, 2))
    ages = rng.random(n)
    marks = rng.integers(1, 4, size=n)
    return pts, ages, marks


def matern_mask_reference(pts, ages, radius):
    """Direct transcription of the retention rule, O(n^2) python loops."""
    n = len(pts)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            closer_rank = ages[j] < ages[i] or (ages[j] == ages[i] and j < i)
            if closer_rank and np.hypot(*(pts[j] - pts[i])) < radius:
                keep[i] = False
                break
    return keep


def test_matern_mask_matches_reference():
    pts, ages, _ = random_cloud(60, seed=2)
    expected = matern_mask_reference(pts, ages, 5.0)
    assert np.array_equal(kernels.matern_keep_mask(pts, ages, 5.0), expected)


@pytest.mark.parametrize("seed", range(4))
def test_matern_mask_matches_reference_on_larger_clouds(seed):
    pts, ages, _ = random_cloud(300, seed=10 + seed)
    if seed % 2:
        # few distinct ages: the index tie-break decides most pairs
        ages = np.floor(ages * 3)
    expected = matern_mask_reference(pts, ages, 6.0)
    assert np.array_equal(kernels.matern_keep_mask(pts, ages, 6.0), expected)


def test_matern_mask_pair_at_exact_radius_survives():
    pts = np.array([[0.0, 0.0], [4.0, 0.0]])
    assert kernels.matern_keep_mask(pts, [0.2, 0.1], 4.0).tolist() == [True, True]
    # just inside the radius the younger point goes
    assert kernels.matern_keep_mask(pts, [0.2, 0.1], 4.0 + 1e-12).tolist() == \
        [False, True]


def min_same_mark_brute_force(pts, marks):
    best = np.inf
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if marks[i] == marks[j]:
                dx = pts[i, 0] - pts[j, 0]
                dy = pts[i, 1] - pts[j, 1]
                best = min(best, dx * dx + dy * dy)
    return best


def test_min_same_mark_matches_brute_force():
    for seed in (4, 5, 6):
        pts, _, marks = random_cloud(200, seed=seed)
        assert kernels.min_same_mark_sq_dist(pts, marks) == \
            min_same_mark_brute_force(pts, marks)


@pytest.mark.parametrize("copies", [2, 3])
def test_min_same_mark_coincident_points(copies):
    pts, _, marks = random_cloud(50, seed=7)
    pts = np.vstack([pts] + [pts[marks == 2][:1]] * (copies - 1))
    marks = np.concatenate([marks, [2] * (copies - 1)])
    assert min_same_mark_brute_force(pts, marks) == 0.0
    assert kernels.min_same_mark_sq_dist(pts, marks) == 0.0
    # copies that each carry a mark of their own pair with nothing
    marks[-(copies - 1):] = 10 + np.arange(copies - 1)
    expected = min_same_mark_brute_force(pts, marks)
    assert expected > 0.0
    assert kernels.min_same_mark_sq_dist(pts, marks) == expected


def test_min_same_mark_degenerate_inputs():
    empty = np.zeros((0, 2))
    assert kernels.min_same_mark_sq_dist(empty, np.zeros(0)) == np.inf
    single = np.array([[1.0, 2.0]])
    assert kernels.min_same_mark_sq_dist(single, np.array([1])) == np.inf
    # distinct marks only: no same-mark pair exists
    two = np.array([[0.0, 0.0], [0.1, 0.0]])
    assert kernels.min_same_mark_sq_dist(two, np.array([1, 2])) == np.inf


def test_power_law_sum_matches_direct_formula():
    pts, _, _ = random_cloud(150, seed=8)
    origin = (30.0, 30.0)
    d = np.hypot(pts[:, 0] - origin[0], pts[:, 1] - origin[1])
    att = np.minimum(1.0, d ** -4.0)
    assert kernels.bounded_power_law_sum(pts, origin, 4.0) == pytest.approx(
        att.sum(), rel=1e-12)
    assert kernels.bounded_power_law_sum(pts, origin, 4.0, exclude=5) == \
        pytest.approx(att.sum() - att[5], rel=1e-12)


# Clouds with every shape the cell grid treats specially; each entry is
# (points, radius).  Pairs exactly one radius apart are at distance 4 or 5
# along an axis or a 3-4-5 diagonal, and must survive.
EDGE_CLOUDS = {
    "empty": (np.zeros((0, 2)), 1.0),
    "one point": (np.array([[3.0, -2.0]]), 1.0),
    "coincident": (np.full((7, 2), 2.5), 1.0),
    "exactly r apart": (np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0],
                                  [7.0, 8.0], [-1.0, 8.0]]), 4.0),
    "3-4-5 diagonal": (np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]]), 5.0),
    "collinear": (np.column_stack([np.arange(40.0) * 0.75,
                                   np.full(40, 1.5)]), 2.0),
    "vertical": (np.column_stack([np.full(30, -3.0),
                                  np.linspace(0, 20, 30)]), 1.0),
    "integer grid": (np.array([[i, j] for i in range(-4, 5)
                               for j in range(3)], dtype=float), 1.0),
    "squares overflow": (np.array([[0.0, 0.0], [1e200, 0.0],
                                   [-1e200, 5.0]]), 1.0),
}


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("name", sorted(EDGE_CLOUDS))
def test_kernels_match_brute_force_on_edge_clouds(name):
    pts, radius = EDGE_CLOUDS[name]
    rng = np.random.default_rng(len(pts))
    for ages in (rng.random(len(pts)), np.zeros(len(pts))):
        assert np.array_equal(kernels.matern_keep_mask(pts, ages, radius),
                              matern_mask_reference(pts, ages, radius))
    for marks in (np.ones(len(pts), dtype=int), rng.integers(1, 3, len(pts))):
        assert kernels.min_same_mark_sq_dist(pts, marks) == \
            min_same_mark_brute_force(pts, marks)


def test_pair_exactly_r_apart_survives_and_sets_the_minimum():
    pts, radius = EDGE_CLOUDS["exactly r apart"]
    ages = np.arange(len(pts), dtype=float)
    assert kernels.matern_keep_mask(pts, ages, radius).all()
    assert kernels.min_same_mark_sq_dist(pts, np.ones(len(pts))) == 16.0


@pytest.mark.parametrize("height", [1e9, 0.0])
def test_widely_spread_cloud_needs_no_dense_grid(height):
    # cells of side 1e-3 would number 1e24 over a 1e9 square, and 1e12
    # along a 1e9 segment
    rng = np.random.default_rng(11)
    pts = rng.uniform(-5e8, 5e8, size=(2000, 2))
    pts[:, 1] *= height / 1e9
    pts[1] = pts[0] + (6e-4, 0.0)
    pts[3] = pts[2] + (2e-3, 0.0)
    ages = rng.random(len(pts))
    tracemalloc.start()
    try:
        keep = kernels.matern_keep_mask(pts, ages, 1e-3)
        best = kernels.min_same_mark_sq_dist(pts, np.ones(len(pts)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    assert (~keep).sum() == 1
    # row by row, the direct rule on the same squared distances
    expected = np.ones(len(pts), dtype=bool)
    smallest = np.inf
    rank = np.arange(len(pts))
    for i in range(len(pts)):
        d2 = ((pts - pts[i]) ** 2).sum(axis=1)
        older = (ages < ages[i]) | ((ages == ages[i]) & (rank < i))
        expected[i] = not (older & (d2 < 1e-6)).any()
        smallest = min(smallest, d2[i + 1:].min(initial=np.inf))
    assert np.array_equal(keep, expected)
    assert best == smallest


@pytest.mark.parametrize("batch", [1, 7, 100])
def test_batches_leave_results_unchanged(batch, monkeypatch):
    pts, ages, marks = random_cloud(300, seed=21)
    expected_mask = kernels.matern_keep_mask(pts, ages, 6.0)
    expected_min = kernels.min_same_mark_sq_dist(pts, marks)
    monkeypatch.setattr(kernels, "_BATCH", batch)
    assert np.array_equal(kernels.matern_keep_mask(pts, ages, 6.0),
                          expected_mask)
    assert kernels.min_same_mark_sq_dist(pts, marks) == expected_min
    assert np.array_equal(expected_mask, matern_mask_reference(pts, ages, 6.0))


def test_cluster_far_from_the_rest_stays_in_bounded_memory():
    # the outlier stretches the cells until the cluster shares one, so
    # about 2 million candidate pairs are tested, a batch at a time
    rng = np.random.default_rng(12)
    pts = np.vstack([rng.uniform(0, 50, size=(2000, 2)), [[1e9, 1e9]]])
    ages = rng.random(len(pts))
    tracemalloc.start()
    try:
        keep = kernels.matern_keep_mask(pts, ages, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    expected = np.ones(len(pts), dtype=bool)
    expected[:-1] = kernels.matern_keep_mask(pts[:-1], ages[:-1], 2.0)
    assert np.array_equal(keep, expected)


_COORD = st.integers(-24, 24).map(lambda k: k / 4)


@settings(max_examples=200, deadline=None)
@given(pts=st.lists(st.tuples(_COORD, _COORD), max_size=40),
       ages=st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1),
                     min_size=40, max_size=40),
       radius=st.sampled_from([0.25, 1.0, 2.5, 5.0, 13.0]))
def test_matern_mask_property(pts, ages, radius):
    # quarter-integer coordinates make the squared distances exact, so the
    # reference's hypot and the kernels' dx*dx + dy*dy rank every pair alike
    pts = np.array(pts, dtype=float).reshape(-1, 2)
    ages = np.array(ages[:len(pts)])
    assert np.array_equal(kernels.matern_keep_mask(pts, ages, radius),
                          matern_mask_reference(pts, ages, radius))
    marks = (ages * 2).astype(int)
    assert kernels.min_same_mark_sq_dist(pts, marks) == \
        min_same_mark_brute_force(pts, marks)


@pytest.mark.parametrize("k", [1, 3, 4])
def test_min_same_mark_on_reuse_lattices(k):
    lattice = color_lattice(
        gen_triangular_lattice(4 / np.sqrt(3.0), Rect(-20, 20, -20, 20)), k)
    assert kernels.min_same_mark_sq_dist(lattice.points, lattice.marks) == \
        min_same_mark_brute_force(lattice.points, lattice.marks)


def test_kernels_reject_non_finite_points():
    pts = np.array([[0.0, 0.0], [np.nan, 1.0], [2.0, np.inf]])
    with pytest.raises(ValueError):
        kernels.matern_keep_mask(pts, np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        kernels.min_same_mark_sq_dist(pts, np.ones(3))


def test_wrappers_validate_lengths():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kernels.matern_keep_mask(pts, np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        kernels.min_same_mark_sq_dist(pts, np.ones(4))
