import numpy as np
import pytest

from cellbounds import kernels


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


def test_wrappers_validate_lengths():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kernels.matern_keep_mask(pts, np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        kernels.min_same_mark_sq_dist(pts, np.ones(4))
