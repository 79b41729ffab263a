import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import matern_oracle
from scipy.spatial.distance import pdist

from cellbounds import _seeding, pointset
from cellbounds.hexnet import UnsupportedReuseError
from cellbounds.pointset import (MarkedPointSet, MaternSource, Rect,
                                 SampleGroup, ball_count, color_lattice,
                                 from_csv, gen_matern_ii,
                                 gen_triangular_lattice, nearest_index,
                                 to_csv, verify_hardcore)

A_HEX = 4 / math.sqrt(3.0)  # hexagon edge giving inter-site distance 4


def stream(seed):
    """The PCG64 seeding words of ``np.random.default_rng(seed)``."""
    return _seeding.states([(seed,)])[0]


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


def test_lattice_rejects_non_positive_or_non_finite_edge():
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="edge length"):
            gen_triangular_lattice(bad, Rect(0, 1, 0, 1))


def test_lattice_over_the_grid_cap_is_refused_before_it_is_built(
        monkeypatch):
    # a half-width of 1e9 asks for about 4.6e17 grid points, and the other
    # two for more than a float holds; each is refused with next to nothing
    # allocated
    tracemalloc.start()
    try:
        for a, half_width in ((A_HEX, 1e9), (1e-310, 40.0), (A_HEX, 1e300)):
            with pytest.raises(ValueError, match=r"needs \S+ grid points, "
                                                 r"over 10000000$"):
                gen_triangular_lattice(a, Rect.square((0, 0), half_width))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    window = Rect.square((0, 0), 40.0)
    assert len(gen_triangular_lattice(A_HEX, window)) > 0
    monkeypatch.setattr(pointset, "_MAX_LATTICE_GRID", 100)
    with pytest.raises(ValueError, match="lattice of edge length"):
        gen_triangular_lattice(A_HEX, window)


def lattice_reference(a, window):
    """Row-by-row loop over the sites i*u + j*v, in gen_triangular_lattice's
    order, with its arithmetic."""
    s = math.sqrt(3.0) * a
    row = 0.5 * math.sqrt(3.0) * s
    pts, ij = [], []
    for j in range(math.floor(window.ymin / row) - 1,
                   math.ceil(window.ymax / row) + 2):
        off = 0.5 * s * j
        for i in range(math.floor((window.xmin - off) / s) - 1,
                       math.ceil((window.xmax - off) / s) + 2):
            pts.append((i * s + off, j * row))
            ij.append((i, j))
    pts, ij = np.array(pts), np.array(ij)
    inside = window.contains(pts)
    return pts[inside], ij[inside]


def test_lattice_matches_row_loop_bit_for_bit():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.uniform(0.05, 5.0)
        x0, y0 = rng.uniform(-100, 100, size=2)
        w, h = rng.uniform(0.01, 60, size=2)
        window = Rect(x0, x0 + w, y0, y0 + h)
        pts, ij = lattice_reference(a, window)
        ps = gen_triangular_lattice(a, window)
        assert ps.points.tobytes() == pts.tobytes()
        assert np.array_equal(ps.lattice_ij, ij)


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


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**70])
def test_matern_equals_the_numpy_oracle(seed):
    # multi-word seeds included: the sampler seeds its stream through its
    # own copy of numpy's seeding, the oracle through default_rng
    points = gen_matern_ii(0.1, 4.0, Rect(0, 60, 0, 50), seed).points
    expected = matern_oracle(0.1, 4.0, (0, 60, 0, 50), seed)
    assert len(expected) > 20
    assert np.array_equal(points, expected)


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
    (near,) = MaternSource(intensity, radius, window).groups(
        [(stream(seed), (center, reach))])
    inside = (np.abs(full.points - center) <= reach).all(axis=1)
    assert np.array_equal(near.points, full.points[inside])


def test_nearest_point_at_cell_vertex():
    ps = gen_triangular_lattice(A_HEX, Rect(-20, 20, -20, 20))
    vertex = (2.0, 4.0 * math.sqrt(3.0) / 6)
    point = ps.points[nearest_index(ps, vertex)]
    assert math.dist(point, vertex) == pytest.approx(A_HEX, rel=1e-12)
    assert point == pytest.approx([0.0, 0.0])  # lexicographic winner of the tie


def test_nearest_point_exact_hit_and_tie_break():
    ps = MarkedPointSet(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, 1]),
                        Rect(-2, 2, -2, 2))
    assert nearest_index(ps, (1.0, 0.0)) == 0
    assert nearest_index(ps, (0.0, 0.0)) == 1  # tie: the smaller x wins


def test_nearest_point_empty_raises():
    empty = MarkedPointSet(np.zeros((0, 2)), np.zeros(0, dtype=int),
                           Rect(0, 1, 0, 1))
    with pytest.raises(ValueError):
        nearest_index(empty, (0.5, 0.5))


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


def test_ball_counts_match_pointwise_reference(monkeypatch):
    lattice = gen_triangular_lattice(A_HEX, Rect(-20, 20, -20, 20))
    # radii 4 and 8 hit lattice sites exactly, which the open ball excludes
    radii = [0.0, 4.0, 4.01, 2.0, 8.0, 10.0, 16.0]
    centers = [(0.0, 0.0), (0.3, 0.2), (-7.5, 11.0)]
    expected = [[sum(1 for x, y in lattice.points
                     if math.hypot(x - center[0], y - center[1])
                     < r * (1 - 1e-12))
                 for r in radii]
                for center in centers]
    assert [[ball_count(lattice, center, r) for r in radii]
            for center in centers] == expected
    # a copy of the lattice per center: all in one group, two and one a group
    for budget, sizes in ((pointset.GROUP_POINTS, [3]),
                          (2 * len(lattice), [2, 1]), (1, [1, 1, 1])):
        monkeypatch.setattr(pointset, "GROUP_POINTS", budget)
        groups = list(lattice.groups(centers))
        assert [len(group) for group in groups] == sizes
        counts = []
        for group in groups:
            counts += group.ball_counts(
                centers[len(counts):len(counts) + len(group)], radii)
        assert counts == expected
        assert groups[0].ball_counts(centers[:len(groups[0])], []) == (
            [[]] * len(groups[0]))
    assert list(lattice.groups([])) == []
    with pytest.raises(ValueError):
        groups[0].ball_counts(centers[:1], [2.0, -1.0])
    for radius in (-1.0, math.nan):
        with pytest.raises(ValueError, match="non-negative"):
            ball_count(lattice, (0.0, 0.0), radius)


def test_marked_point_set_validation():
    window = Rect(0, 1, 0, 1)
    with pytest.raises(ValueError):
        MarkedPointSet(np.array([[0.5, 0.5]]), np.array([1, 2]), window)
    with pytest.raises(ValueError):
        MarkedPointSet(np.array([[0.5, 0.5]]), np.array([2]), window, num_marks=1)
    with pytest.raises(ValueError):
        MarkedPointSet(np.array([[1.5, 0.5]]), np.array([1]), window)
    # rejected before the int cast, which truncates 1.5 and warns on the rest
    for mark in (1.5, 0.5, math.nan, math.inf, 1e300, -1e300):
        with pytest.raises(ValueError, match="integers in 1..2"):
            MarkedPointSet(np.array([[0.5, 0.5]]), [mark], window,
                           num_marks=2)
    ps = MarkedPointSet(np.array([[0.5, 0.5]]), [2.0], window, num_marks=2)
    assert ps.marks.dtype == np.int64 and ps.marks.tolist() == [2]
    with pytest.raises(ValueError, match="lattice indices must match"):
        MarkedPointSet(np.array([[0.5, 0.5]]), [1], window,
                       lattice_ij=np.array([[0, 0], [1, 0]]))


@pytest.mark.parametrize("text, match", [
    ("x,y,mark\n0,0,1.5\n5,0,2", "integers"),
    ("x,y,mark\n0,0,nan\n5,0,2", "integers"),
    ("x,y,mark\n0,0,1e300", "integers"),
    ("x,y,mark\n0,0", "three columns"),
    ("x,y,mark\n0,0,1,4", "three columns"),
    ("x,y,m\n0,0,1", "header 'x,y,mark'"),
    ("", "header 'x,y,mark'"),
    # no row and no window: no bounding box to take
    ("x,y,mark\n", "cannot infer a window"),
])
def test_from_csv_rejects_bad_rows(text, match):
    with pytest.raises(ValueError, match=match):
        from_csv(io.StringIO(text))


def test_from_csv_infers_a_window_around_any_finite_set():
    # today's 1e-9 margin where it moves the bound, so these are unchanged
    ps = from_csv(io.StringIO("x,y,mark\n0,0,1\n5,0,2"))
    assert ps.window == Rect(0.0, 5.0, 0.0, 1e-9)
    assert ps.num_marks == 2
    ps = from_csv(io.StringIO("x,y,mark\n-3,7,1"))
    assert ps.window == Rect(-3.0, -3.0 + 1e-9, 7.0, 7.0 + 1e-9)
    # where 1e-9 rounds back to the point, the next float up, and at the
    # largest float the one below
    big = float(np.finfo(float).max)
    for x, y in ((1e9, 1e9), (-1e300, 2.5e15), (big, -big)):
        ps = from_csv(io.StringIO(f"x,y,mark\n{x!r},{y!r},1"))
        assert ps.points.tolist() == [[x, y]]
        assert ps.window.width > 0 and ps.window.height > 0


def test_csv_round_trip():
    window = Rect(0, 100, 0, 100)
    ps = gen_matern_ii(0.05, 4.0, window, 11)
    buf = io.StringIO()
    to_csv(ps, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "x,y,mark"
    buf = io.StringIO(text)
    back = from_csv(buf, window=window)
    assert not buf.closed  # an open file is the caller's to close
    assert np.array_equal(back.points, ps.points)
    assert np.array_equal(back.marks, ps.marks)
    # CRLF endings and # lines before, between and after the rows
    lines = text.splitlines()
    edited = "\r\n".join(["# sites", lines[0], "# first", *lines[1:3],
                           "# rest", "", *lines[3:], "# end"]) + "\r\n"
    back = from_csv(io.StringIO(edited), window=window)
    assert np.array_equal(back.points, ps.points)
    assert np.array_equal(back.marks, ps.marks)
    # a header-only file is the empty set on an explicit window
    empty = from_csv(io.StringIO("# none\r\nx,y,mark\r\n"), window=window)
    assert empty.points.shape == (0, 2) and len(empty) == 0
    assert empty.window == window


def test_opened_closes_only_the_file_it_opened(tmp_path):
    from cellbounds._textio import opened
    with opened(tmp_path / "a.txt", "w") as fh:
        fh.write("a\n")
    assert fh.closed
    with opened(str(tmp_path / "a.txt")) as fh:
        assert fh.read() == "a\n"
    assert fh.closed
    buf = io.StringIO()
    with opened(buf, "w") as fh:
        assert fh is buf
    assert not buf.closed


def test_to_csv_writes_its_lines_as_it_formats_them(tmp_path):
    # 30,000 points make about 1 MB of text; no more than one write's chunk
    # of lines is held at once, and reading it back holds little more than
    # the parsed arrays, 0.69 MiB
    import tracemalloc
    rng = np.random.default_rng(3)
    window = Rect(0, 1000, 0, 1000)
    ps = MarkedPointSet(rng.uniform(0, 1000, (30000, 2)),
                        rng.integers(1, 4, 30000), window, num_marks=3)
    tracemalloc.start()
    try:
        to_csv(ps, tmp_path / "sites.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    tracemalloc.start()
    try:
        back = from_csv(tmp_path / "sites.csv", window=window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    assert np.array_equal(back.points, ps.points)
    assert np.array_equal(back.marks, ps.marks)


@pytest.mark.parametrize("bounds", [(0, math.inf, 0, 1), (-math.inf, 0, 0, 1),
                                    (0, 1, math.nan, 1), (0, 1, 0, math.nan)])
def test_rect_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="finite"):
        Rect(*bounds)
    with pytest.raises(ValueError, match="finite"):
        Rect.square((0.0, 0.0), math.inf)


@pytest.mark.parametrize("intensity, radius", [(math.nan, 4.0),
                                               (math.inf, 4.0),
                                               (0.1, math.nan)])
def test_matern_rejects_non_finite_parameters(intensity, radius):
    with pytest.raises(ValueError, match="finite"):
        gen_matern_ii(intensity, radius, Rect(0, 10, 0, 10), 1)


@pytest.mark.parametrize("intensity, radius, match", [
    (0.0, 4.0, "intensity must be positive"),
    (-0.1, 4.0, "intensity must be positive"),
    (0.1, 0.0, "hardcore radius must be positive"),
    (0.1, -4.0, "hardcore radius must be positive"),
])
def test_matern_rejects_non_positive_parameters(intensity, radius, match):
    with pytest.raises(ValueError, match=match):
        MaternSource(intensity, radius, Rect(0, 10, 0, 10))


@pytest.mark.parametrize("window", [Rect(0, 1e200, 0, 1e200),
                                    Rect(-1e308, 1e308, 0, 1)])
def test_matern_rejects_a_poisson_mean_that_is_not_finite(window):
    # the mean, not numpy's poisson, says what is wrong
    with pytest.raises(ValueError,
                       match="intensity 0.1 times area inf, is not finite"):
        MaternSource(0.1, 4.0, window)


def test_matern_rejects_a_poisson_mean_above_2_to_the_62():
    # numpy's own error for a mean above its limit, about 9.2e18, names
    # neither the intensity nor the area
    window = Rect(0, 1e10, 0, 1e10)
    with pytest.raises(ValueError, match=r"intensity 0\.1 times area "
                                         r"1\.0000000016e\+20, is above 2\*\*62"):
        MaternSource(0.1, 4.0, window)
    # a finite mean at the limit is accepted; only its draw runs out of memory
    MaternSource(2.0 ** 62 / window.expand(4.0).area, 4.0, window)


def test_sample_group_queries_match_single_sets():
    rng = np.random.default_rng(3)
    sets = [rng.integers(-5, 6, size=(n, 2)).astype(float)
            for n in (40, 0, 1, 25, 60)]
    centers = [(0.0, 0.0), (1.0, 1.0), (-2.0, 3.0), (0.5, -1.0), (2.0, 2.0)]
    group = SampleGroup.of(np.concatenate(sets), [len(p) for p in sets])
    radii = [0.0, 1.5, 3.0, 20.0]
    nearest, d2 = group.nearest(centers)
    counts = group.ball_counts(centers, radii)
    for k, (pts, center) in enumerate(zip(sets, centers)):
        ps = MarkedPointSet(pts, np.ones(len(pts), dtype=int),
                            Rect(-6, 6, -6, 6))
        first = group.starts[k]
        assert np.array_equal(group.points[first:first + len(pts)], pts)
        expected = [sum(math.dist(p, center) < r for p in pts) for r in radii]
        assert counts[k] == [ball_count(ps, center, r) for r in radii]
        assert counts[k] == expected
        if len(pts):
            assert nearest[k] - first == nearest_index(ps, center)
            assert d2[nearest[k]] == min(((pts - center) ** 2).sum(axis=1))
        else:
            assert nearest[k] == -1


def test_matern_groups_equal_gen_matern_ii(monkeypatch):
    window = Rect(0, 60, 0, 60)
    draws = [(seed, None if seed % 3 else ((20.0 + seed, 30.0), 12.0))
             for seed in range(12)]
    expected = []
    for seed, near in draws:
        points = gen_matern_ii(0.1, 4.0, window, seed).points
        if near is not None:  # the full sample restricted to the square
            points = points[(np.abs(points - near[0]) <= near[1]).all(axis=1)]
        expected.append(points)
    for budget in (1, 500, 10 ** 6):
        monkeypatch.setattr(pointset, "GROUP_POINTS", budget)
        groups = list(MaternSource(0.1, 4.0, window).groups(
            (stream(seed), near) for seed, near in draws))
        assert sum(len(group) for group in groups) == len(draws)
        got = [group.points[group.starts[k]:group.starts[k + 1]]
               for group in groups for k in range(len(group))]
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        if budget == 10 ** 6:
            assert len(groups) == 1


def test_groups_close_at_the_first_sample_reaching_the_budget(monkeypatch):
    # a budget of 1.5 lattices: each group of copies closes at its second
    lattice = gen_triangular_lattice(A_HEX, Rect(-20, 20, -20, 20))
    monkeypatch.setattr(pointset, "GROUP_POINTS", 3 * len(lattice) // 2)
    groups = list(lattice.groups(range(5)))
    assert [len(group) for group in groups] == [2, 2, 1]
    # full Matern samples, grouped by the Poisson points each draws
    window = Rect(0, 60, 0, 60)
    area = window.expand(4.0).area
    drawn = [int(np.random.default_rng(seed).poisson(0.1 * area))
             for seed in range(9)]
    budget = drawn[0] + drawn[1] // 2
    monkeypatch.setattr(pointset, "GROUP_POINTS", budget)
    groups = list(MaternSource(0.1, 4.0, window).groups(
        (stream(seed), None) for seed in range(9)))
    assert len(groups[0]) == 2
    first = 0
    for group in groups:
        sizes = drawn[first:first + len(group)]
        first += len(group)
        assert sum(sizes[:-1]) < budget
        assert sum(sizes) >= budget or group is groups[-1]
    assert first == len(drawn)
