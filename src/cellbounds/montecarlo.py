"""Empirical certification of the almost-sure bounds.

Every check compares a realized quantity from a sampled (or deterministic)
point configuration against the corresponding analytical bound.  The
bounds are almost-sure statements, so a single violation is a defect, not
noise; a 1e-12 relative slack absorbs floating-point summation order.

Realized sums run over the finite window while the bounds address the
infinite plane; since the attenuation is non-negative this only makes the
checks conservative, never unsound.

Every random draw of a suite of seed ``seed`` comes from numpy's PCG64
streams, fixed by the seed and the trial index ``i`` alone:

* the trial seed, recorded with each of the trial's records, is word 0 of
  ``np.random.SeedSequence([seed, i])``, :func:`trial_seed`;
* the trial's sample is drawn from ``np.random.default_rng(trial seed)``
  (see :class:`cellbounds.pointset.MaternSource`);
* a ball suite draws the trial's ball center from
  ``np.random.default_rng([seed, i, 1])``.

Each shard derives these for all its suites, the only streams their
records get, in two vectorized passes of numpy's seeding algorithm
(:func:`trial_streams`, :mod:`cellbounds._seeding`): one for the trial
seeds and ball centers, and one for the samples, which the trial seeds
seed.  A suite that draws nothing, such as the scheduled check, is given
its streams all the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import _seeding, kernels
from ._shards import default_workers, map_shards
from .bounds import ball_count_bound, exclusion_radius, interference_bound
from .guarantees import link_at_snr, theta
from .hexnet import hardcore_for_reuse
from .pathloss import BoundedPowerLaw
from .pointset import (MarkedPointSet, MaternSource, Rect, SampleGroup,
                       color_lattice, gen_triangular_lattice, nearest_index)

VIOLATION_REL_TOL = 1e-12


class ConfigurationError(ValueError):
    """Check configuration is unusable (e.g. window too small for the radii)."""


class TrialRecord(NamedTuple):
    """One checked inequality: realized value against its bound."""

    seed: int
    d: float
    t: float
    realized: float
    bound: float

    @property
    def ratio(self) -> float:
        if self.bound == 0:
            return 0.0 if self.realized == 0 else math.inf
        return self.realized / self.bound


@dataclass
class VerificationReport:
    label: str
    trials: int
    violations: int
    max_ratio: float
    records: list[TrialRecord]
    skipped: int

    def summary(self) -> str:
        line = (f"{self.label}: trials={self.trials} checks={len(self.records)} "
                f"violations={self.violations} max_ratio={self.max_ratio:.6f}")
        if self.skipped:
            line += f" skipped={self.skipped}"
        return line


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
    """Per-trial seed, stable in (seed, index) and independent of call order:
    word 0 of ``SeedSequence([seed, index])``."""
    return trial_streams([(seed, range(index, index + 1))])[0].seeds[0]


class TrialStreams(NamedTuple):
    """The streams of a range of trials of one seed, one entry per trial:
    the trial seeds, and the PCG64 words of the ball-center streams and of
    the samples' streams, a row each."""

    seeds: list[int]
    centers: np.ndarray
    samples: np.ndarray


def trial_streams(requests) -> list[TrialStreams]:
    """The :class:`TrialStreams` of each ``(seed, trials)`` request, from
    two passes of :func:`cellbounds._seeding.states`: the trial seeds and
    ball centers of every request, then the samples of their trial seeds."""
    requests = list(requests)
    rows = [(seed, i, *tail) for tail in ((), (1,))
            for seed, trials in requests for i in trials]
    words = _seeding.states(rows)
    n = len(rows) // 2
    seeds = _seeding.first_words(words[:n])
    samples = _seeding.states([(tseed,) for tseed in seeds])
    streams, first = [], 0
    for _, trials in requests:
        stop = first + len(trials)
        streams.append(TrialStreams(seeds[first:stop],
                                    words[n + first:n + stop],
                                    samples[first:stop]))
        first = stop
    return streams


# A source of configurations for the checks below has a ``window`` its
# points lie in, ``groups(draws)``, which yields the samples of the
# ``(words, near)`` pairs of ``draws`` as SampleGroups, in order, and
# ``source(seed)``, the sample of one seed.  ``words`` seed the sample's
# stream (a row of TrialStreams.samples); ``near`` is None or ``(center,
# reach)``, and a source may then leave out the points farther than
# ``reach`` from ``center`` in the max norm.  A MarkedPointSet is a source,
# the same sample for every draw, and a MaternSource is the other.

def matern_factory(intensity: float, hardcore_radius: float,
                   window: Rect) -> MaternSource:
    """Source of Matern type-II samples on the window."""
    return MaternSource(intensity, hardcore_radius, window)


def lattice_factory(a: float, half_width: float, k: int = 1):
    """The reuse-k colored lattice with edge a on the square window of the
    given half-width centered on a cell vertex."""
    s = 2 * hardcore_for_reuse(a, 1)  # the site spacing is 2 h_1
    window = Rect.square((0.5 * s, s * math.sqrt(3.0) / 6), half_width)
    return color_lattice(gen_triangular_lattice(a, window), k)


class Suite(NamedTuple):
    """A trial-indexed check, run in shards of its trials by :func:`run_suites`.

    ``records(trial_range, streams)`` gives the records of a non-empty
    range of trial indices and how many of them were skipped.  ``streams``
    are the suite's :class:`TrialStreams` over that range, of its ``seed``
    (see the module docstring), which each shard derives for all its
    suites in two passes.  A record depends only on the suite's seed and
    its trial index, so the records of contiguous ranges, concatenated in
    order, are those of ``range(trials)``.
    """

    label: str
    trials: int
    records: Callable[..., tuple[list[TrialRecord], int]]
    seed: int


def run_suites(suites: list[Suite]) -> list[VerificationReport]:
    """Reports of the suites, their trials split over worker processes.

    There is one process per usable CPU and at most one per trial (see
    :func:`cellbounds._shards.default_workers`).  Each process runs one
    contiguous range of trial indices of every suite (see
    :func:`cellbounds._shards.map_shards`), and the ranges are merged in
    trial order, so the reports are the same for any number of processes.
    If trials raise, the exception raised is the one a single process
    raises: that of the earliest suite, then of the earliest trial.  A
    suite with negative trials, or one that ran trials but kept no record
    and so certified nothing, is a ConfigurationError.
    """
    for i, suite in enumerate(suites, 1):
        if suite.trials < 0:
            raise ConfigurationError(f"suite {i} ({suite.label}) needs "
                                     f"trials >= 0, got {suite.trials}")
    trials = max((suite.trials for suite in suites), default=0)
    shards = map_shards(partial(_run_shard, suites), trials,
                        default_workers(trials))
    failures = [(len(done), exc) for done, exc in shards if exc is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    reports = []
    for j, suite in enumerate(suites):
        records = [TrialRecord(*r) for done, _ in shards
                   for r in zip(*done[j][0])]
        skipped = sum(done[j][1] for done, _ in shards)
        if suite.trials and not records:
            raise ConfigurationError(
                f"suite {j + 1} ({suite.label}) checked nothing: "
                f"skipped={skipped} of trials={suite.trials}")
        reports.append(_finalize(suite.label, suite.trials, records, skipped))
    return reports


def _run_shard(suites: list[Suite], shard: range):
    """Records and skipped counts of each suite over the trials in shard,
    up to the first suite that raises, and that exception or None.  The
    streams of every suite come first, from two passes.

    The records of a suite are given as the columns of
    :class:`TrialRecord`, which a forked shard pickles in a fraction of
    the time that the records themselves take."""
    ranges = [range(shard.start, min(shard.stop, suite.trials))
              for suite in suites]
    done = []
    try:  # run_suites raises the exception if no earlier one
        streams = trial_streams([(suite.seed, trials)
                                 for suite, trials in zip(suites, ranges)])
        for suite, trials, drawn in zip(suites, ranges, streams):
            records, skipped = (suite.records(trials, drawn) if trials
                                else ([], 0))
            done.append((list(zip(*records)), skipped))
    except Exception as exc:
        return done, exc
    return done, None


def ball_regulation_suite(source, h: float, r_grid, trials: int,
                          seed: int) -> Suite:
    """Counts in random balls never exceed 1 + rho_h R + nu_h R^2.

    Ball centers are drawn uniformly over the window shrunk by max(R), so
    each checked ball lies fully inside the window.  The source (see
    :func:`matern_factory`) is asked only for the points within max(R) of
    each center, and the balls of a group of its samples are counted in
    one pass.
    """
    r_grid = [float(r) for r in r_grid]
    if not r_grid or not all(r >= 0 for r in r_grid):  # NaN included
        raise ConfigurationError("need a non-empty grid of non-negative radii")
    try:  # checked at any trial count, zero included
        inner = source.window.shrink(max(r_grid))
    except ValueError:
        raise ConfigurationError(f"window {source.window} cannot contain "
                                 f"balls of radius {max(r_grid)}") from None
    bounds = [ball_count_bound(h, r) for r in r_grid]
    return Suite("ball-regulation", trials,
                 partial(_ball_records, source, inner, r_grid, bounds),
                 seed)


def _ball_records(source, inner: Rect, r_grid: list[float],
                  bounds: list[float], trials: range, streams: TrialStreams):
    r_max = max(r_grid)
    centers = []
    for words in streams.centers:
        rng = _seeding.generator(words)
        centers.append((rng.uniform(inner.xmin, inner.xmax),
                        rng.uniform(inner.ymin, inner.ymax)))
    counts = []
    for group in source.groups((words, (center, r_max)) for words, center
                               in zip(streams.samples, centers)):
        counts += group.ball_counts(
            centers[len(counts):len(counts) + len(group)], r_grid)
    records = [TrialRecord(tseed, r, r, float(count), bound)
               for tseed, row in zip(streams.seeds, counts)
               for r, count, bound in zip(r_grid, row, bounds)]
    return records, 0


def check_ball_regulation(source, h: float, r_grid, trials: int,
                          seed: int) -> VerificationReport:
    """The report of :func:`ball_regulation_suite` run alone."""
    return run_suites([ball_regulation_suite(source, h, r_grid, trials,
                                             seed)])[0]


def interference_suite(source, h: float, model: BoundedPowerLaw,
                       trials: int, seed: int) -> Suite:
    """Realized interference at the window center never exceeds the bound.

    Per trial: the user sits at the window center, associates with the
    nearest point x0 at distance d, and the realized sum of l(|x - user|)
    over all other points is checked against interference_bound(l, h, d).
    Empty samples are skipped and counted.
    """
    interference_bound(model, h, h)  # a divergent model raises before a trial
    return Suite("interference-bound", trials,
                 partial(_interference_records, source, h, model), seed)


def _interference(group: SampleGroup, receiver, alpha: float) -> list:
    """Per sample of the group, None if it has no points, else the distance
    d from the receiver to its nearest point and the realized interference
    there: the bounded power-law sum over its other points."""
    nearest, d2 = group.nearest(receiver)
    found = []
    for k, i0 in enumerate(nearest):
        first, stop = group.starts[k], group.starts[k + 1]
        found.append(None if i0 < 0 else (
            math.sqrt(d2[i0]),
            kernels.bounded_power_law_sum(d2[first:stop], alpha, i0 - first)))
    return found


def _interference_records(source, h: float, model: BoundedPowerLaw,
                          trials: range, streams: TrialStreams):
    user = source.window.center
    found = []
    for group in source.groups((words, None) for words in streams.samples):
        found += _interference(group, user, model.alpha)
    records = [_interference_record(tseed, model, h, *hit)
               for tseed, hit in zip(streams.seeds, found) if hit is not None]
    return records, found.count(None)


def _interference_record(seed: int, model: BoundedPowerLaw, h: float,
                         d: float, realized: float) -> TrialRecord:
    return TrialRecord(seed, d, exclusion_radius(d, h), realized,
                       interference_bound(model, h, d))


def check_interference_bound(source, h: float, model: BoundedPowerLaw,
                             trials: int, seed: int) -> VerificationReport:
    """The report of :func:`interference_suite` run alone."""
    return run_suites([interference_suite(source, h, model, trials,
                                          seed)])[0]


def scheduled_suite(lattice: MarkedPointSet, h_k: float,
                    model: BoundedPowerLaw, seed: int) -> Suite:
    """Per-class interference and SINR of a colored point set at its
    window center, as a :class:`Suite` of one trial.

    The set is colored for reuse: its marks are the k classes, and h_k is
    their same-class half-distance.  For each mark class the user's
    nearest point of that class plays the serving role: the remaining
    same-class interference must respect interference_bound(l, h_k,
    d_class).  A final record checks the active slot of the actually
    serving site, at power P = 1 and an SNR of 0 dB (P cancels out of the
    SINR): its realized SINR must reach theta(P, h_k); for that record
    `realized` holds the guaranteed SINR and `bound` the achieved one,
    keeping ratio <= 1 on success.
    """
    interference_bound(model, h_k, h_k)  # a divergent model raises here
    return Suite(f"scheduled-bound-k{lattice.num_marks}", 1,
                 partial(_scheduled_records, lattice, h_k, model, seed), seed)


def _scheduled_records(lattice: MarkedPointSet, h_k: float,
                       model: BoundedPowerLaw, seed: int, trials: range,
                       streams: TrialStreams):  # draws nothing
    k = lattice.num_marks
    user = lattice.window.center
    # one sample per mark class, each keeping its points in lattice order
    order = np.argsort(lattice.marks, kind="stable")
    classes = SampleGroup.of(lattice.points[order],
                             np.bincount(lattice.marks, minlength=k + 1)[1:])
    found = _interference(classes, user, model.alpha)
    if None in found:
        raise ConfigurationError(f"the reuse-{k} point set has no point of "
                                 f"mark {found.index(None) + 1}")
    records = [_interference_record(seed, model, h_k, *hit) for hit in found]
    d, realized = found[lattice.marks[nearest_index(lattice, user)] - 1]
    link = link_at_snr(1.0, d, model, 0.0)
    signal = model.eval(d)  # P = 1
    records.append(TrialRecord(seed, d, exclusion_radius(d, h_k),
                               theta(link, h_k),
                               signal / (realized + link.noise)))
    return records, 0


def check_scheduled_bound(lattice: MarkedPointSet, h_k: float,
                          model: BoundedPowerLaw,
                          seed: int) -> VerificationReport:
    """The report of :func:`scheduled_suite` run alone."""
    return run_suites([scheduled_suite(lattice, h_k, model, seed)])[0]
