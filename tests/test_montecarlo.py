import argparse
import io
import math

import numpy as np
import pytest

from cellbounds import cli, kernels, montecarlo, pointset
from cellbounds.bounds import (ball_count_bound, exclusion_radius,
                               interference_bound)
from cellbounds.guarantees import LinkBudget, theta
from cellbounds.hexnet import REUSE, hardcore_for_reuse
from cellbounds.montecarlo import (ConfigurationError, TrialRecord,
                                   _finalize,
                                   ball_regulation_suite,
                                   check_ball_regulation,
                                   check_interference_bound,
                                   check_scheduled_bound, interference_suite,
                                   lattice_factory, matern_factory,
                                   run_suites, scheduled_suite, trial_seed)
from cellbounds.pathloss import BoundedPowerLaw
from cellbounds.pointset import (MarkedPointSet, Rect, ball_count,
                                 color_lattice, gen_triangular_lattice,
                                 nearest_index)

A_HEX = 4 / math.sqrt(3.0)
MODEL = BoundedPowerLaw(4)
R_GRID = [2.0, 4.0, 8.0, 16.0]


def numpy_trial_seed(seed, index):
    """The trial seed of the stream contract, straight from numpy."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def ball_oracle(source, h, seed, trials):
    """The ball suite's records and skipped count over ``trials``, each
    trial counted on the source's whole sample of its seed, with its seed
    and center drawn straight from numpy."""
    bounds = [ball_count_bound(h, r) for r in R_GRID]
    inner = source.window.shrink(max(R_GRID))
    records = []
    for i in trials:
        tseed = numpy_trial_seed(seed, i)
        ps = source(tseed)
        rng = np.random.default_rng([seed, i, 1])
        center = (rng.uniform(inner.xmin, inner.xmax),
                  rng.uniform(inner.ymin, inner.ymax))
        records += [TrialRecord(tseed, r, r, float(ball_count(ps, center, r)),
                                bound) for r, bound in zip(R_GRID, bounds)]
    return records, 0


def interference_record(seed, ps, receiver, h):
    """The record of the receiver served by its nearest point of ps."""
    i0 = nearest_index(ps, receiver)
    d = math.sqrt(((ps.points[i0] - receiver) ** 2).sum())
    realized = kernels.bounded_power_law_sum(
        kernels.sq_dists(ps.points, receiver), MODEL.alpha, i0)
    return TrialRecord(seed, d, exclusion_radius(d, h), realized,
                       interference_bound(MODEL, h, d))


def interference_oracle(source, h, seed, trials):
    """The interference suite's records and skipped count over ``trials``,
    each trial on the source's whole sample of its seed, drawn straight
    from numpy."""
    samples = [(tseed, source(tseed))
               for tseed in (numpy_trial_seed(seed, i) for i in trials)]
    return ([interference_record(tseed, ps, ps.window.center, h)
             for tseed, ps in samples if len(ps)],
            sum(1 for _, ps in samples if not len(ps)))


def test_trial_seed_stable():
    assert trial_seed(42, 0) == trial_seed(42, 0)
    assert trial_seed(42, 0) != trial_seed(42, 1)


def test_lattice_ball_regulation_clean():
    report = check_ball_regulation(lattice_factory(A_HEX, 40.0), 2.0, R_GRID,
                                   trials=50, seed=7)
    assert report.violations == 0
    assert report.max_ratio <= 1.0
    assert len(report.records) == 50 * len(R_GRID)


def test_ball_regulation_window_too_small():
    with pytest.raises(ConfigurationError):
        check_ball_regulation(lattice_factory(A_HEX, 40.0), 2.0, [100.0],
                              trials=1, seed=0)
    # refused when the suite is built, so at zero trials too
    with pytest.raises(ConfigurationError, match="cannot contain balls"):
        ball_regulation_suite(lattice_factory(A_HEX, 40.0), 2.0, [100.0],
                              trials=0, seed=0)


def test_matern_ball_regulation_clean():
    factory = matern_factory(0.1, 4.0, Rect(0, 100, 0, 100))
    report = check_ball_regulation(factory, 2.0, R_GRID, trials=100, seed=11)
    assert report.violations == 0
    assert report.max_ratio <= 1.0


def test_single_point_ball_regulation_trivial():
    ps = MarkedPointSet(np.array([[50.0, 50.0]]), np.array([1]),
                        Rect(0, 100, 0, 100))
    report = check_ball_regulation(ps, 2.0, R_GRID, trials=5, seed=1)
    assert report.violations == 0


def test_lattice_interference_at_vertex():
    report = check_interference_bound(lattice_factory(A_HEX, 40.0), 2.0, MODEL,
                                      trials=1, seed=0)
    assert report.violations == 0
    (rec,) = report.records
    assert rec.d == pytest.approx(A_HEX, rel=1e-12)
    assert rec.bound == pytest.approx(0.18319661562315995, rel=1e-12)
    assert rec.realized <= rec.bound
    assert rec.ratio < 1.0  # the bound is not tight for the lattice


def test_readme_csv_configuration_is_certified(tmp_path, monkeypatch):
    # README's path for an outside configuration, from a file on disk
    import cellbounds
    pointset.to_csv(lattice_factory(A_HEX, 40.0), tmp_path / "sites.csv")
    monkeypatch.chdir(tmp_path)
    # a point set read from a file is a source as it stands
    report = cellbounds.check_interference_bound(
        cellbounds.from_csv("sites.csv"), 2.0, BoundedPowerLaw(4), trials=1,
        seed=0)
    assert report.violations == 0
    assert len(report.records) == 1


def test_matern_interference_clean_and_reproducible():
    factory = matern_factory(0.1, 4.0, Rect(0, 100, 0, 100))
    first = check_interference_bound(factory, 2.0, MODEL, trials=200, seed=5)
    assert first.violations == 0
    assert first.skipped == 0
    assert first.max_ratio <= 1.0
    second = check_interference_bound(factory, 2.0, MODEL, trials=200, seed=5)
    assert first.records == second.records


def test_single_point_interference_is_zero():
    ps = MarkedPointSet(np.array([[49.0, 52.0]]), np.array([1]),
                        Rect(0, 100, 0, 100))
    report = check_interference_bound(ps, 2.0, MODEL, trials=1, seed=0)
    (rec,) = report.records
    assert rec.realized == 0.0
    assert report.violations == 0


def test_interference_skips_empty_samples():
    # about one point per sample: seed 0 leaves two of four samples empty
    factory = matern_factory(1e-4, 4.0, Rect(0, 100, 0, 100))
    report = check_interference_bound(factory, 2.0, MODEL, trials=4, seed=0)
    assert report.skipped == 2
    assert len(report.records) == 2
    assert report.violations == 0
    assert report.summary().endswith(" violations=0 max_ratio=0.000869 "
                                     "skipped=2")


@pytest.mark.parametrize("source", [
    matern_factory(1e-9, 4.0, Rect(0, 100, 0, 100)),
    MarkedPointSet(np.zeros((0, 2)), np.zeros(0), Rect(0, 10, 0, 10)),
], ids=["empty-samples", "empty-set"])
def test_interference_that_checks_nothing_raises(source):
    # every sample was skipped, so the run certified nothing
    with pytest.raises(ConfigurationError, match=r"^suite 1 \(interference-"
                       r"bound\) checked nothing: skipped=3 of trials=3$"):
        check_interference_bound(source, 2.0, MODEL, trials=3, seed=3)


def test_negative_trials_raise_before_any_trial():
    with pytest.raises(ConfigurationError, match=r"^suite 2 \(ball-"
                       r"regulation\) needs trials >= 0, got -5$"):
        run_suites([interference_suite(lattice_factory(A_HEX, 40.0), 2.0,
                                       MODEL, 1, 0),
                    ball_regulation_suite(lattice_factory(A_HEX, 40.0), 2.0,
                                          R_GRID, -5, 0)])
    with pytest.raises(ConfigurationError, match="got -5"):
        check_ball_regulation(lattice_factory(A_HEX, 40.0), 2.0, [2, 4],
                              trials=-5, seed=0)


@pytest.mark.parametrize("r_grid", [[], [2.0, -1.0], [2.0, math.nan]],
                         ids=["empty", "negative", "nan"])
def test_ball_suite_rejects_its_radii(r_grid):
    with pytest.raises(ConfigurationError, match="non-negative radii"):
        ball_regulation_suite(lattice_factory(A_HEX, 40.0), 2.0, r_grid,
                              trials=1, seed=0)


def test_scheduled_check_needs_a_point_of_every_class():
    lattice = lattice_factory(A_HEX, 40.0, 3)
    two_classes = MarkedPointSet(lattice.points, np.minimum(lattice.marks, 2),
                                 lattice.window, num_marks=3)
    with pytest.raises(ConfigurationError,
                       match="reuse-3 point set has no point of mark 3"):
        check_scheduled_bound(two_classes, hardcore_for_reuse(A_HEX, 3),
                              MODEL, seed=0)


@pytest.mark.parametrize("realized, ratio", [(0.0, 0.0), (0.5, math.inf)])
def test_ratio_against_a_zero_bound(realized, ratio):
    assert TrialRecord(1, 2.0, 2.0, realized, 0.0).ratio == ratio


def test_interference_negative_control():
    # claiming a hardcore half-distance the lattice does not have must
    # surface as violations: the bound becomes far too small
    report = check_interference_bound(lattice_factory(A_HEX, 40.0), 6.0, MODEL,
                                      trials=1, seed=0)
    assert report.violations >= 1


def scheduled_args(k, seed):
    """The arguments of the scheduled check on the reuse-k lattice of
    ``verify``'s defaults."""
    return (lattice_factory(A_HEX, 40.0, k), hardcore_for_reuse(A_HEX, k),
            MODEL, seed)


@pytest.mark.parametrize("k", sorted(REUSE))
def test_scheduled_bounds_clean_for_all_reuse_factors(k):
    report = check_scheduled_bound(*scheduled_args(k, 0))
    assert report.violations == 0
    assert report.max_ratio <= 1.0
    assert len(report.records) == k + 1  # per-class rows plus the SINR row


@pytest.mark.parametrize("k", [3, 4])
def test_scheduled_bound_matches_per_class_oracle(k):
    # each class on its own: its nearest site serves the vertex user, and
    # the class of the site nearest overall gives the SINR record at P = 1
    # and an SNR of 0 dB, where the noise equals l(d)
    lattice, h_k, _, _ = scheduled_args(k, 7)
    user = lattice.window.center
    expected = []
    for mark in range(1, k + 1):
        pts = lattice.points[lattice.marks == mark]
        sub = MarkedPointSet(pts, np.ones(len(pts), dtype=int), lattice.window)
        expected.append(interference_record(7, sub, user, h_k))
    serving = expected[int(lattice.marks[nearest_index(lattice, user)]) - 1]
    signal = MODEL.eval(serving.d)
    expected.append(TrialRecord(
        7, serving.d, serving.t,
        theta(LinkBudget(1, signal, serving.d, MODEL), h_k),
        signal / (serving.realized + signal)))
    report = check_scheduled_bound(lattice, h_k, MODEL, seed=7)
    assert report.records == expected
    assert report.violations == 0


def test_scheduled_k1_matches_interference_check():
    sched = check_scheduled_bound(*scheduled_args(1, 0))
    plain = check_interference_bound(lattice_factory(A_HEX, 40.0), 2.0, MODEL,
                                     trials=1, seed=0)
    assert sched.records[0].realized == pytest.approx(
        plain.records[0].realized, rel=1e-12)
    assert sched.records[0].bound == pytest.approx(
        plain.records[0].bound, rel=1e-12)


@pytest.mark.parametrize("k", sorted(REUSE))
def test_lattice_factory_is_the_colored_lattice(k):
    s = 2 * hardcore_for_reuse(A_HEX, 1)
    window = Rect.square((0.5 * s, s * math.sqrt(3.0) / 6), 40.0)
    expected = color_lattice(gen_triangular_lattice(A_HEX, window), k)
    lattice = lattice_factory(A_HEX, 40.0, k)
    assert isinstance(lattice, MarkedPointSet)
    assert lattice.window == expected.window == window
    assert lattice.num_marks == k
    assert np.array_equal(lattice.points, expected.points)
    assert np.array_equal(lattice.marks, expected.marks)
    assert np.array_equal(lattice.lattice_ij, expected.lattice_ij)
    # a point set is a source whose sample is itself for every seed
    assert all(lattice(seed) is lattice for seed in (0, 1, 42, 2 ** 63))


def test_vertex_window_centers_on_cell_corner():
    center = lattice_factory(A_HEX, 40.0).window.center
    # the vertex is equidistant from three lattice sites at distance a
    assert np.hypot(center[0], center[1]) == pytest.approx(A_HEX, rel=1e-12)


@pytest.mark.parametrize("check, suite, args", [
    (check_ball_regulation, ball_regulation_suite,
     (lattice_factory(A_HEX, 40.0), 2.0, R_GRID, 7, 3)),
    (check_interference_bound, interference_suite,
     (matern_factory(0.1, 4.0, Rect(0, 100, 0, 100)), 2.0, MODEL, 7, 3)),
    (check_scheduled_bound, scheduled_suite, scheduled_args(3, 5)),
], ids=["ball", "interference", "scheduled"])
def test_each_check_is_its_suite_run_alone(check, suite, args):
    assert check(*args) == run_suites([suite(*args)])[0]


@pytest.mark.parametrize("k", [3, 4])
def test_scheduled_check_of_a_lattice_read_back_from_csv(tmp_path, k):
    # the file holds every coordinate to 17 digits and the marks, so with
    # the lattice's own window the read-back set gives the same records
    lattice, h_k, _, _ = scheduled_args(k, 0)
    pointset.to_csv(lattice, tmp_path / "sites.csv")
    read = pointset.from_csv(tmp_path / "sites.csv", window=lattice.window)
    report = check_scheduled_bound(read, h_k, MODEL, seed=0)
    assert report == check_scheduled_bound(lattice, h_k, MODEL, seed=0)
    assert report.label == f"scheduled-bound-k{k}"
    assert report.violations == 0


def test_report_csv_format_and_determinism():
    factory = matern_factory(0.1, 4.0, Rect(0, 100, 0, 100))
    report = check_interference_bound(factory, 2.0, MODEL, trials=5, seed=9)
    header = ["seed", "d", "t", "realized", "bound", "ratio"]
    buf1, buf2 = io.StringIO(), io.StringIO()
    for buf in (buf1, buf2):
        cli._write_csv(argparse.Namespace(subcommand="report", out=buf),
                       header, [(*r, r.ratio) for r in report.records])
    assert buf1.getvalue() == buf2.getvalue()
    echo, *lines = buf1.getvalue().splitlines()
    assert echo == "# command = report"
    assert lines[0] == "seed,d,t,realized,bound,ratio"
    assert len(lines) == 1 + len(report.records)
    # every number of a row is printed to 12 significant digits
    for line, r in zip(lines[1:], report.records):
        assert line == (f"{r.seed},{r.d:.12g},{r.t:.12g},{r.realized:.12g},"
                        f"{r.bound:.12g},{r.ratio:.12g}")
    assert "violations=0" in report.summary()


def test_max_ratio_reflects_worst_record():
    factory = matern_factory(0.1, 4.0, Rect(0, 100, 0, 100))
    report = check_interference_bound(factory, 2.0, MODEL, trials=20, seed=13)
    assert report.max_ratio == pytest.approx(
        max(r.realized / r.bound for r in report.records), rel=1e-12)


def test_non_finite_records_are_violations():
    records = [TrialRecord(1, 2.0, 2.0, math.nan, 1.0),
               TrialRecord(2, 2.0, 2.0, 0.5, math.inf),
               TrialRecord(3, 2.0, 2.0, 0.5, 1.0)]
    report = _finalize("non-finite", 3, records)
    assert report.violations == 2


def test_max_ratio_is_nan_whatever_the_record_order():
    records = [TrialRecord(1, 2.0, 2.0, 0.5, 1.0),
               TrialRecord(2, 2.0, 2.0, math.nan, 1.0)]
    for ordered in (records, records[::-1]):
        report = _finalize("nan-ratio", 2, ordered)
        assert math.isnan(report.max_ratio)
        assert report.violations == 1


def test_matern_ball_check_local_path_matches_full_samples():
    # the suite thins only the points near each ball; the oracle counts
    # on the whole sample of each trial seed
    factory = matern_factory(0.1, 4.0, Rect(0, 100, 0, 100))
    local = check_ball_regulation(factory, 2.0, R_GRID, trials=40, seed=21)
    assert local.records == ball_oracle(factory, 2.0, 21, range(40))[0]
    assert sum(r.realized for r in local.records) > 0


def shard_records(suites, trials):
    """Each suite's records and skipped count over ``trials``, from the
    shard that runs them in ``verify``: two seeding passes for all of them."""
    done, exc = montecarlo._run_shard(suites, trials)
    assert exc is None
    return [([TrialRecord(*r) for r in zip(*columns)], skipped)
            for columns, skipped in done]


@pytest.mark.parametrize("intensity, budget", [
    (0.1, pointset.GROUP_POINTS), (0.1, 2000), (0.1, 1), (1.2e-4, 3)])
def test_grouped_suites_match_plain_factory(monkeypatch, intensity, budget):
    # the default budget puts the 40 local ball samples in one group of
    # 84,240 cells, past the 2**16 of the radix sort, so numpy's default
    # argsort orders their cell ids (30 samples span only 59,250); budget
    # 2000 puts about two full samples or a dozen local ones in a group; at
    # intensity 1.2e-4 a sample holds about one point, so some groups hold
    # an empty sample.  The two suites' streams come from the shard's two
    # seeding passes, which derive ball centers for both
    cells = []

    def cell_order(cell, count):
        cells.append(count)
        return sorted_cells(cell, count)

    sorted_cells = kernels._cell_order
    monkeypatch.setattr(kernels, "_cell_order", cell_order)
    monkeypatch.setattr(pointset, "GROUP_POINTS", budget)
    factory = matern_factory(intensity, 4.0, Rect(0, 100, 0, 100))
    suites = [ball_regulation_suite(factory, 2.0, R_GRID, 40, 21),
              interference_suite(factory, 2.0, MODEL, 40, 22)]
    for a, b in [(0, 40), (1, 4), (3, 30), (5, 6), (7, 7), (11, 29)]:
        assert shard_records(suites, range(a, b)) == [
            ball_oracle(factory, 2.0, 21, range(a, b)),
            interference_oracle(factory, 2.0, 22, range(a, b))]
    skipped = shard_records(suites, range(40))[1][1]
    assert (skipped > 0) == (intensity < 0.01)
    assert (max(cells, default=0) > 1 << 16) == (budget > 2000)


@pytest.mark.parametrize("budget", [pointset.GROUP_POINTS, 4000, 1000, 1])
def test_lattice_ball_suite_matches_plain_factory(monkeypatch, budget):
    # a group holds 17, 9, 3 or 1 copies of the 472-site lattice, one per
    # center, at the default budget of 8,000 points and at 4,000, 1,000 and
    # 1: it closes at the first copy that reaches the budget.  The two
    # suites' streams, centers included, come from the shard's two seeding
    # passes
    monkeypatch.setattr(pointset, "GROUP_POINTS", budget)
    lattice = lattice_factory(A_HEX, 40.0)
    suites = [ball_regulation_suite(lattice, 2.0, R_GRID, 30, seed)
              for seed in (4, 5)]
    for a, b in [(0, 30), (1, 4), (7, 7), (11, 29)]:
        assert shard_records(suites, range(a, b)) == [
            ball_oracle(lattice, 2.0, seed, range(a, b)) for seed in (4, 5)]


def test_check_wrappers_are_the_same_for_any_worker_count(monkeypatch):
    # 7 trials leave uneven shards over 2 and 3 workers
    factory = matern_factory(0.1, 4.0, Rect(0, 100, 0, 100))
    lattice = lattice_factory(A_HEX, 40.0)
    reports = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "default_workers",
                            lambda trials: workers)
        reports.append((
            check_ball_regulation(lattice, 2.0, R_GRID, trials=7, seed=3),
            check_ball_regulation(factory, 2.0, R_GRID, trials=7, seed=3),
            check_interference_bound(factory, 2.0, MODEL, trials=7, seed=3)))
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]
    assert [len(rep.records) for rep in reports[0]] == [28, 28, 7]


def test_matern_factory_rejects_a_poisson_mean_that_is_not_finite():
    # at once, not at the first sample
    with pytest.raises(ValueError, match="area inf, is not finite"):
        matern_factory(0.1, 4.0, Rect(0, 1e200, 0, 1e200))


def test_matern_ball_check_window_too_small():
    factory = matern_factory(0.1, 4.0, Rect(0, 30, 0, 30))
    with pytest.raises(ConfigurationError):
        check_ball_regulation(factory, 2.0, [15.0], trials=1, seed=0)


def test_realized_interference_never_tops_bound_across_h():
    # empirical dominance of the analytic bound for sampled hardcore sets
    for claimed_h in (1.0, 1.5, 2.0):
        factory = matern_factory(0.1, 2 * claimed_h, Rect(0, 100, 0, 100))
        report = check_interference_bound(factory, claimed_h, MODEL,
                                          trials=50, seed=17)
        assert report.violations == 0
