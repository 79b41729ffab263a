"""Empirical certification of the almost-sure bounds.

Every check compares a realized quantity from a sampled (or deterministic)
point configuration against the corresponding analytical bound.  The
bounds are almost-sure statements, so a single violation is a defect, not
noise; a 1e-12 relative slack absorbs floating-point summation order.

Realized sums run over the finite window while the bounds address the
infinite plane; since the attenuation is non-negative this only makes the
checks conservative, never unsound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, ClassVar, Iterator, NamedTuple

import numpy as np

from . import kernels
from ._shards import default_workers, map_shards
from ._textio import write_lines
from .bounds import exclusion_radius, hardcore_regulation_constants, interference_bound
from .guarantees import LinkBudget, theta
from .hexnet import hardcore_for_reuse
from .pathloss import BoundedPowerLaw
from .pointset import (GROUP_POINTS, MarkedPointSet, Rect, SampleGroup,
                       ball_counts_around, check_matern, color_lattice,
                       gen_matern_ii, gen_triangular_lattice, matern_groups,
                       nearest_index, sq_dists)

VIOLATION_REL_TOL = 1e-12


class ConfigurationError(ValueError):
    """Check configuration is unusable (e.g. window too small for the radii)."""


@dataclass(frozen=True)
class TrialRecord:
    """One checked inequality: realized value against its bound."""

    seed: int
    d: float
    t: float
    realized: float
    bound: float

    CSV_FIELDS: ClassVar[tuple[str, ...]] = ("seed", "d", "t", "realized",
                                             "bound", "ratio")

    @property
    def ratio(self) -> float:
        if self.bound == 0:
            return 0.0 if self.realized == 0 else math.inf
        return self.realized / self.bound

    def csv_row(self) -> str:
        """The record as a CSV row of its ``CSV_FIELDS``."""
        return (f"{self.seed},{self.d:.12g},{self.t:.12g},{self.realized:.12g},"
                f"{self.bound:.12g},{self.ratio:.12g}")


@dataclass
class VerificationReport:
    label: str
    trials: int
    violations: int
    max_ratio: float
    records: list[TrialRecord] = field(default_factory=list)
    skipped: int = 0

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def summary(self) -> str:
        line = (f"{self.label}: trials={self.trials} checks={len(self.records)} "
                f"violations={self.violations} max_ratio={self.max_ratio:.6f}")
        if self.skipped:
            line += f" skipped={self.skipped}"
        return line

    def write_csv(self, path_or_file) -> None:
        """Records as CSV with header ``seed,d,t,realized,bound,ratio``."""
        write_lines(path_or_file, [",".join(TrialRecord.CSV_FIELDS),
                                   *map(TrialRecord.csv_row, self.records)])


def _violates(r: TrialRecord) -> bool:
    # a non-finite value certifies nothing, so it never passes
    if not (math.isfinite(r.realized) and math.isfinite(r.bound)):
        return True
    return r.realized > r.bound * (1 + VIOLATION_REL_TOL)


def _finalize(label: str, trials: int, records: list[TrialRecord],
              skipped: int = 0) -> VerificationReport:
    violations = sum(1 for r in records if _violates(r))
    ratios = [r.ratio for r in records]
    # max() skips a NaN unless it comes first; any NaN ratio must show
    max_ratio = (math.nan if any(math.isnan(x) for x in ratios)
                 else max(ratios, default=0.0))
    return VerificationReport(label, trials, violations, max_ratio,
                              records, skipped)


def trial_seed(seed: int, index: int) -> int:
    """Per-trial seed, stable in (seed, index) and independent of call order."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def matern_factory(intensity: float, hardcore_radius: float, window: Rect):
    """Factory of Matern type-II samples for the checks below.

    ``make(seed, near=(center, reach))`` gives only the part of the sample
    within ``reach`` of ``center`` (see :func:`gen_matern_ii`);
    ``make.window`` is the sampling window, and ``make.groups(draws)``
    gives the samples of ``(seed, near)`` pairs a group at a time (see
    :func:`cellbounds.pointset.matern_groups`).
    """
    check_matern(intensity, hardcore_radius)

    def make(seed: int, near=None) -> MarkedPointSet:
        return gen_matern_ii(intensity, hardcore_radius, window, seed,
                             near=near)
    make.window = window
    make.groups = partial(matern_groups, intensity, hardcore_radius, window)
    return make


def vertex_window(a: float, half_width: float) -> Rect:
    """Square window centered on a cell vertex of the lattice with edge a."""
    s = math.sqrt(3.0) * a
    vertex = (0.5 * s, s * math.sqrt(3.0) / 6)
    return Rect.square(vertex, half_width)


def lattice_factory(a: float, half_width: float, k: int = 1):
    """Factory of the (deterministic) colored lattice on a vertex-centered window.

    Every seed gives the same point set, ``make.point_set``.
    """
    window = vertex_window(a, half_width)
    lattice = color_lattice(gen_triangular_lattice(a, window), k)

    def make(seed: int) -> MarkedPointSet:
        return lattice
    make.point_set = lattice
    return make


def _ball_center(window: Rect, r_max: float, seed: int, index: int):
    try:
        inner = window.shrink(r_max)
    except ValueError:
        raise ConfigurationError(
            f"window {window} cannot contain balls of radius {r_max}"
        ) from None
    rng = np.random.default_rng([seed, index, 1])
    return (rng.uniform(inner.xmin, inner.xmax),
            rng.uniform(inner.ymin, inner.ymax))


class Suite(NamedTuple):
    """A trial-indexed check, to be run whole or in shards of its trials.

    ``records(trial_range)`` gives the records of the trials with those
    indices and how many of them were skipped.  A record depends only on
    the suite's seed and its trial index, so the records of contiguous
    ranges, concatenated in order, are those of ``range(trials)``.
    """

    label: str
    trials: int
    records: Callable[[range], tuple[list[TrialRecord], int]]

    def run(self) -> VerificationReport:
        return _finalize(self.label, self.trials,
                         *self.records(range(self.trials)))


def run_suites(suites: list[Suite],
               workers: int | None = None) -> list[VerificationReport]:
    """Reports of the suites, their trials split over ``workers`` processes.

    By default there is one process per usable CPU and at most one per
    trial (see :func:`cellbounds._shards.worker_count`).  Each process
    runs one contiguous range of trial indices of every suite (see
    :func:`cellbounds._shards.map_shards`), and the ranges are merged in
    trial order, so the reports are the same for any ``workers``.  If
    trials raise, the exception raised is the one a single process raises:
    that of the earliest suite, then of the earliest trial.
    """
    trials = max((suite.trials for suite in suites), default=0)
    if workers is None:
        workers = default_workers(trials)
    shards = map_shards(partial(_run_shard, suites), trials, workers)
    failures = [(len(done), exc) for done, exc in shards if exc is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    reports = []
    for j, suite in enumerate(suites):
        records = [r for done, _ in shards for r in done[j][0]]
        skipped = sum(done[j][1] for done, _ in shards)
        reports.append(_finalize(suite.label, suite.trials, records, skipped))
    return reports


def _run_shard(suites: list[Suite], shard: range):
    """Records and skipped counts of each suite over the trials in shard,
    up to the first suite that raises, and that exception or None."""
    done = []
    for suite in suites:
        try:
            done.append(suite.records(
                range(shard.start, min(shard.stop, suite.trials))))
        except Exception as exc:  # run_suites raises it if no earlier one
            return done, exc
    return done, None


def ball_regulation_suite(factory, h: float, r_grid, trials: int,
                          seed: int) -> Suite:
    """The trials of :func:`check_ball_regulation` as a :class:`Suite`."""
    r_grid = [float(r) for r in r_grid]
    if not r_grid or min(r_grid) < 0:
        raise ConfigurationError("need a non-empty grid of non-negative radii")
    reg = hardcore_regulation_constants(h)
    bounds = [reg.count_bound(r) for r in r_grid]
    return Suite("ball-regulation", trials,
                 partial(_ball_records, factory, r_grid, bounds, seed))


def _point_set_groups(point_sets) -> Iterator[SampleGroup]:
    """The point sets, concatenated in groups of about GROUP_POINTS points."""
    batch = []
    held = 0
    for ps in point_sets:
        batch.append(ps.points)
        held += len(ps)
        if held >= GROUP_POINTS:
            yield SampleGroup.of(np.concatenate(batch), [len(p) for p in batch])
            batch = []
            held = 0
    if batch:
        yield SampleGroup.of(np.concatenate(batch), [len(p) for p in batch])


def _sample_groups(factory, seeds: list[int], locate, near=None):
    """The factory's samples of ``seeds`` in groups, and their points.

    ``locate(window, k)`` gives the point of sample ``k`` (a ball center
    or a user) from its sampling window; the returned list holds it for
    every sample of a group by the time the group is yielded.  A factory
    with ``groups`` (see :func:`matern_factory`) draws and thins its
    samples a group at a time, each restricted to ``near(point)`` if
    ``near`` is given.  Any other factory is called with each seed in
    turn, and its point sets are concatenated into groups.
    """
    points = []
    if hasattr(factory, "groups"):
        points.extend(locate(factory.window, k) for k in range(len(seeds)))
        return factory.groups(
            (seed, None if near is None else near(point))
            for seed, point in zip(seeds, points)), points

    def point_sets():
        for k, seed in enumerate(seeds):
            ps = factory(seed)
            points.append(locate(ps.window, k))
            yield ps
    return _point_set_groups(point_sets()), points


def _ball_records(factory, r_grid: list[float], bounds: list[float],
                  seed: int, trials: range):
    r_max = max(r_grid)
    seeds = [trial_seed(seed, i) for i in trials]
    fixed = getattr(factory, "point_set", None)
    if fixed is not None:  # every trial's balls on the one point set
        counts = ball_counts_around(
            fixed.points,
            [_ball_center(fixed.window, r_max, seed, i) for i in trials],
            r_grid)
    else:
        groups, centers = _sample_groups(
            factory, seeds,
            lambda window, k: _ball_center(window, r_max, seed, trials[k]),
            lambda center: (center, r_max))
        counts = []
        for group in groups:
            counts += group.ball_counts(
                centers[len(counts):len(counts) + len(group)], r_grid)
    records = [TrialRecord(tseed, r, r, float(count), bound)
               for tseed, row in zip(seeds, counts)
               for r, count, bound in zip(r_grid, row, bounds)]
    return records, 0


def check_ball_regulation(factory, h: float, r_grid, trials: int,
                          seed: int) -> VerificationReport:
    """Counts in random balls never exceed 1 + rho_h R + nu_h R^2.

    Ball centers are drawn uniformly over the window shrunk by max(R), so
    each checked ball lies fully inside the window.  A factory that draws
    its samples in groups (see :func:`matern_factory`) is asked only for
    the points within max(R) of each center; a factory with one
    ``point_set`` for every seed (see :func:`lattice_factory`) is not
    called; any other factory is called with the seed alone.  The records
    are the same either way.  The balls of a group of samples, or of
    several centers on the one point set, are counted in one pass.
    """
    return ball_regulation_suite(factory, h, r_grid, trials, seed).run()


def interference_suite(factory, h: float, model: BoundedPowerLaw,
                       trials: int, seed: int) -> Suite:
    """The trials of :func:`check_interference_bound` as a :class:`Suite`."""
    return Suite("interference-bound", trials,
                 partial(_interference_records, factory, h, model, seed))


def _interference_records(factory, h: float, model: BoundedPowerLaw,
                          seed: int, trials: range):
    records: list[TrialRecord] = []
    skipped = 0
    seeds = [trial_seed(seed, i) for i in trials]
    groups, users = _sample_groups(factory, seeds,
                                   lambda window, k: window.center)
    done = 0
    for group in groups:
        nearest, d2 = group.nearest(users[done:done + len(group)])
        for k, i0 in enumerate(nearest):
            if i0 < 0:
                skipped += 1
                continue
            first, stop = group.starts[k], group.starts[k + 1]
            d = math.sqrt(d2[i0])
            realized = kernels.bounded_power_law_sum(
                group.points[first:stop], users[done + k], model.alpha,
                i0 - first)
            bound = interference_bound(model, h, d)
            records.append(TrialRecord(seeds[done + k], d,
                                       exclusion_radius(d, h), realized, bound))
        done += len(group)
    return records, skipped


def check_interference_bound(factory, h: float, model: BoundedPowerLaw,
                             trials: int, seed: int) -> VerificationReport:
    """Realized interference at the window center never exceeds the bound.

    Per trial: the user sits at the window center, associates with the
    nearest point x0 at distance d, and the realized sum of l(|x - user|)
    over all other points is checked against interference_bound(l, h, d).
    Empty samples are skipped and counted.
    """
    return interference_suite(factory, h, model, trials, seed).run()


def check_scheduled_bound(a: float, k: int, model: BoundedPowerLaw,
                          seed: int = 0, half_width: float = 40.0,
                          power: float = 1.0,
                          snr_db: float = 0.0) -> VerificationReport:
    """Per-class interference and SINR of the reuse-k lattice at the vertex user.

    For each mark class the user's nearest point of that class plays the
    serving role: the remaining same-class interference must respect
    interference_bound(l, h_k, d_class).  A final record checks the active
    slot of the actually serving site: its realized SINR must reach
    theta(P, h_k); for that record `realized` holds the guaranteed SINR
    and `bound` the achieved one, keeping ratio <= 1 on success.
    """
    lattice = lattice_factory(a, half_width, k)(seed)
    h_k = hardcore_for_reuse(a, k)
    user = lattice.window.center
    records: list[TrialRecord] = []
    realized_by_mark: dict[int, float] = {}
    d_by_mark: dict[int, float] = {}
    for mark in range(1, k + 1):
        idx = nearest_index(lattice, user, mark=mark)
        d_m = math.sqrt(sq_dists(lattice.points[idx:idx + 1], user)[0])
        sel = np.flatnonzero(lattice.marks == mark)
        local_excl = int(np.flatnonzero(sel == idx)[0])
        realized = kernels.bounded_power_law_sum(lattice.points[sel], user,
                                                 model.alpha, local_excl)
        bound = interference_bound(model, h_k, d_m)
        records.append(TrialRecord(seed, d_m, exclusion_radius(d_m, h_k),
                                   realized, bound))
        realized_by_mark[mark] = realized
        d_by_mark[mark] = d_m

    serving = nearest_index(lattice, user)
    serving_mark = int(lattice.marks[serving])
    d = d_by_mark[serving_mark]
    signal = power * model.eval(d)
    noise = signal / 10.0 ** (snr_db / 10.0)
    link = LinkBudget(power, noise, d, model)
    guaranteed = theta(link, h_k)
    achieved = signal / (power * realized_by_mark[serving_mark] + noise)
    records.append(TrialRecord(seed, d, exclusion_radius(d, h_k),
                               guaranteed, achieved))
    return _finalize(f"scheduled-bound-k{k}", 1, records)
