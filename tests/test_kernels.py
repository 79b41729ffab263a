import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellbounds import kernels, pointset
from cellbounds.hexnet import REUSE
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


def test_matern_mask_edge_radii():
    # a radius of 0 or below keeps every point, an infinite one only the
    # oldest
    pts, ages, _ = random_cloud(20, seed=3)
    for radius in (0.0, -1.0, np.inf):
        assert np.array_equal(kernels.matern_keep_mask(pts, ages, radius),
                              matern_mask_reference(pts, ages, radius))


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


def test_min_same_mark_exact_across_densities():
    # a dense mark, a mark of two points far apart and a mark of one point;
    # the search radius starts from the spacing of all points together
    rng = np.random.default_rng(13)
    dense = rng.uniform(0, 10, size=(300, 2))
    pts = np.vstack([dense, [[-400.0, 5.0], [600.0, 5.0]], [[5.0, 5.0]]])
    marks = np.array([9] * 300 + [40, 40] + [5])
    assert kernels.min_same_mark_sq_dist(pts, marks) == \
        min_same_mark_brute_force(pts, marks)
    # the dense points in marks of their own: only the far pair is left
    marks[:300] = 100 + np.arange(300)
    assert min_same_mark_brute_force(pts, marks) == 1000.0 ** 2
    assert kernels.min_same_mark_sq_dist(pts, marks) == 1000.0 ** 2


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
    d2 = kernels.sq_dists(pts, origin)
    assert kernels.bounded_power_law_sum(d2, 4.0) == pytest.approx(
        att.sum(), rel=1e-12)
    assert kernels.bounded_power_law_sum(d2, 4.0, exclude=5) == \
        pytest.approx(att.sum() - att[5], rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_sq_dists_equal_the_summed_squares(seed):
    # integer coordinates give exact ties; the centers sit on, between and
    # off the points, at negative coordinates too.  Each form that decides
    # a result is checked: one point against many (balls, receivers), rows
    # against rows (a center per sample) and the rows of two index arrays
    # (the pair test of the thinning and the same-mark search)
    rng = np.random.default_rng(seed)
    clouds = [rng.uniform(-50, 50, size=(300, 2)),
              rng.integers(-6, 7, size=(300, 2)).astype(float)]
    for pts in clouds:
        for center in (pts[7], (-3.0, 2.0), (-0.1, -17.25), (1e-8, 3.5)):
            ctr = np.asarray(center, dtype=float)
            assert np.array_equal(kernels.sq_dists(pts, ctr),
                                  ((pts - ctr) ** 2).sum(axis=1))
            assert np.array_equal(kernels.sq_dists(pts[7:8], ctr)[0],
                                  ((pts[7] - ctr) ** 2).sum())
        assert np.array_equal(kernels.sq_dists(pts, pts[::-1]),
                              ((pts - pts[::-1]) ** 2).sum(axis=1))
        i, j = rng.integers(0, len(pts), size=(2, 1000))
        a, b = pts.take(i, axis=0), pts.take(j, axis=0)
        assert np.array_equal(kernels.sq_dists(a, b),
                              ((a - b) ** 2).sum(axis=1))


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
    # r = 3 in cells of side 3(1 + 1e-9) cut into sub-rows of a third of
    # that: points on the sub-row boundaries, in three columns, the middle
    # one on a column boundary
    "sub-row boundaries": (np.array(
        [[x, k * 3 * (1 + kernels._SEARCH_SLACK) / kernels._SUBROWS]
         for x in (0.0, 2.0, 3 * (1 + kernels._SEARCH_SLACK))
         for k in range(12)]), 3.0),
    # pairs with dy = r - 2**-40, from just above a sub-row boundary to just
    # below one three sub-rows away: up a column, and up and down across
    # a column boundary, 2**-27 wide; a pair exactly r apart across three
    # sub-rows; 18 points over 9 x 15.5 keep the cells at side r(1 + 1e-9)
    "3 sub-rows apart": (np.array(
        [[0.0, 0.0], [1.0, 0.5], [1.0, 3.5 - 2 ** -40],
         [3.0, 9.5], [3.0 + 2 ** -27, 6.5 + 2 ** -40],
         [3.0, 12.5], [3.0 + 2 ** -27, 15.5 - 2 ** -40],
         [6.5, 0.25], [6.5, 3.25]]
        + [[9.0, 3.5 * k] for k in range(5)]
        + [[7.75, 3.5 * k + 1.75] for k in range(4)]), 3.0),
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


def matern_mask_by_rows(pts, ages, radius):
    """The retention rule row by row, on the squared distances of
    kernels.sq_dists; fast enough for a few thousand points."""
    rank = np.arange(len(pts))
    keep = np.empty(len(pts), dtype=bool)
    for i in range(len(pts)):
        d2 = ((pts - pts[i]) ** 2).sum(axis=1)
        older = (ages < ages[i]) | ((ages == ages[i]) & (rank < i))
        keep[i] = not (older & (d2 < radius * radius)).any()
    return keep


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
    assert np.array_equal(keep, matern_mask_by_rows(pts, ages, 1e-3))
    assert best == min(((pts[i + 1:] - pts[i]) ** 2).sum(axis=1).min()
                       for i in range(len(pts) - 1))


@pytest.mark.parametrize("batch", [1, 7, 100, kernels._BATCH, 1 << 12])
def test_batches_leave_results_unchanged(batch, monkeypatch):
    # two samples of 200 points on one 30 x 30 square, thinned at r = 10:
    # about 48k candidate pairs unlabelled and 24k labelled, so batches of
    # each size cut through the runs of a label
    rng = np.random.default_rng(21)
    pts = rng.uniform(0, 30, size=(400, 2))
    ages = rng.random(400)
    marks = rng.integers(1, 4, size=400)
    label = np.arange(2).repeat(200)
    monkeypatch.setattr(kernels, "_BATCH", batch)
    assert np.array_equal(kernels.matern_keep_mask(pts, ages, 10.0),
                          matern_mask_reference(pts, ages, 10.0))
    assert np.array_equal(
        kernels.matern_keep_mask(pts, ages, 10.0, label),
        np.concatenate([matern_mask_reference(pts[label == k],
                                              ages[label == k], 10.0)
                        for k in (0, 1)]))
    assert kernels.min_same_mark_sq_dist(pts, marks) == \
        min_same_mark_brute_force(pts, marks)


# Thins a group of verify's Matern interference suite in a fresh
# interpreter: the 7 samples of about 1,170 points at intensity 0.1 on a
# 108 x 108 window that reach pointset.GROUP_POINTS, at r = 4.  Prints the
# minor page faults of 20 calls after 5 warming ones.
_FAULTS_SCRIPT = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from cellbounds import kernels, pointset
rng = np.random.default_rng(8)
sizes = rng.poisson(0.1 * 108 * 108, size=7)
pts = rng.uniform(0, 108, size=(sizes.sum(), 2))
ages = rng.random(len(pts))
cloud = np.arange(7).repeat(sizes)
assert sizes[:-1].sum() < pointset.GROUP_POINTS <= sizes.sum()
for _ in range(5):
    kernels.matern_keep_mask(pts, ages, 4.0, cloud)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    kernels.matern_keep_mask(pts, ages, 4.0, cloud)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="counts page faults under glibc's allocator")
def test_repeated_thinning_reuses_its_pages():
    # each call writes its arrays into pages that earlier calls faulted in;
    # batches of 128 KiB arrays, glibc's mmap threshold, took about 360
    # faults per call.  A fresh interpreter gives every run the same heap.
    src = Path(kernels.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT, str(src)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert int(done.stdout.split()[-1]) <= 100


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


@pytest.mark.parametrize("k", sorted(REUSE))
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
    # a NaN radius decides no pair, so it would keep every point
    with pytest.raises(ValueError, match="NaN"):
        kernels.matern_keep_mask(np.zeros((3, 2)), np.zeros(3), np.nan)


def test_wrappers_validate_lengths():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kernels.matern_keep_mask(pts, np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        kernels.min_same_mark_sq_dist(pts, np.ones(4))


def labelled_clouds():
    """Clouds on overlapping squares, with their sizes: an empty one, a
    one-point one whose point repeats a point of another cloud, and equal
    ages across clouds."""
    rng = np.random.default_rng(31)
    clouds = []
    for n in (120, 0, 1, 80, 200):
        pts = rng.uniform(-10, 30, size=(n, 2))
        ages = np.floor(rng.random(n) * 4) / 4
        clouds.append((pts, ages))
    clouds[2] = (clouds[0][0][:1].copy(), np.zeros(1))
    return clouds


@pytest.mark.parametrize("labels", [[0, 1, 2, 3, 4], [3, 0, 4, 2, 1],
                                    [7, 2, 11, 0, 5]])
@pytest.mark.parametrize("interleave", [False, True])
def test_labelled_clouds_thin_as_separate_calls(labels, interleave):
    clouds = labelled_clouds()
    pts = np.vstack([p for p, _ in clouds])
    ages = np.concatenate([a for _, a in clouds])
    cloud = np.repeat(labels, [len(p) for p, _ in clouds])
    order = np.arange(len(pts))
    if interleave:  # shuffled, but each cloud keeps the order of its points
        order = np.random.default_rng(5).permutation(len(pts))
        for lab in labels:
            mine = cloud[order] == lab
            order[mine] = np.sort(order[mine])
    mask = kernels.matern_keep_mask(pts[order], ages[order], 6.0,
                                    cloud[order])
    expected = np.concatenate([kernels.matern_keep_mask(p, a, 6.0)
                               for p, a in clouds])
    assert np.array_equal(mask, expected[order])
    assert not np.array_equal(kernels.matern_keep_mask(pts, ages, 6.0),
                              expected)


def test_many_labels_widen_the_cells_without_changing_masks(monkeypatch):
    clouds = [random_cloud(30, seed=40 + k)[:2] for k in range(40)]
    pts = np.vstack([p for p, _ in clouds])
    ages = np.concatenate([a for _, a in clouds])
    cloud = np.arange(len(clouds)).repeat(30)
    expected = np.concatenate([kernels.matern_keep_mask(p, a, 5.0)
                               for p, a in clouds])
    for blocks in (1, 8, 100):
        monkeypatch.setattr(kernels, "_LABEL_BLOCKS", blocks)
        assert np.array_equal(
            kernels.matern_keep_mask(pts, ages, 5.0, cloud), expected)
    # labels far above the number of points are renumbered first
    assert np.array_equal(
        kernels.matern_keep_mask(pts, ages, 5.0, cloud * 10 ** 12), expected)


@pytest.mark.parametrize("height, over", [(20.2, False), (20.5, True)])
def test_cell_counts_either_side_of_16_bits_thin_alike(height, over,
                                                       monkeypatch):
    # 16 labels of 200 points on a 62.5 x height box at r = 1: 64 columns
    # of 64 sub-rows (2**16 cells, ids that fit in 16 bits) at height 20.2,
    # and of 65 sub-rows (66,560 cells) at height 20.5.  Either sort of the
    # cell ids must give the direct rule's masks
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 1, size=(3200, 2)) * (62.5, height)
    pts[:2] = [[0.0, 0.0], [62.5, height]]
    ages = np.floor(rng.random(3200) * 8) / 8
    label = np.arange(16).repeat(200)
    seen, cell_order = [], kernels._cell_order
    monkeypatch.setattr(kernels, "_cell_order", lambda cell, cells:
                        seen.append(cells) or cell_order(cell, cells))
    mask = kernels.matern_keep_mask(pts, ages, 1.0, label)
    assert (seen[0] > 1 << 16) == over and abs(seen[0] - (1 << 16)) < 1100
    for k in range(16):
        mine = label == k
        assert np.array_equal(mask[mine],
                              matern_mask_by_rows(pts[mine], ages[mine], 1.0))


def test_cloud_labels_are_validated():
    pts, ages, _ = random_cloud(5, seed=3)
    for bad in ([0, 1, -1, 0, 0], [0.0, 1.0, 1.0, 0.0, 0.0], [0, 1, 2]):
        with pytest.raises(ValueError):
            kernels.matern_keep_mask(pts, ages, 1.0, np.array(bad))
    assert kernels.matern_keep_mask(np.zeros((0, 2)), [], 1.0,
                                    np.zeros(0, dtype=int)).shape == (0,)


def test_labels_past_the_int64_range_are_renumbered():
    pts, ages, _ = random_cloud(60, seed=9)
    halves = np.arange(60) % 2
    expected = np.empty(60, dtype=bool)
    for lab in (0, 1):
        expected[halves == lab] = kernels.matern_keep_mask(
            pts[halves == lab], ages[halves == lab], 8.0)
    huge = np.where(halves == 1, np.uint64(2 ** 64 - 1), np.uint64(5))
    assert np.array_equal(kernels.matern_keep_mask(pts, ages, 8.0, huge),
                          expected)
