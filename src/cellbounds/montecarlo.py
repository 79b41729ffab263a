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

import numpy as np

from . import kernels
from ._textio import write_lines
from .bounds import exclusion_radius, hardcore_regulation_constants, interference_bound
from .guarantees import LinkBudget, theta
from .hexnet import hardcore_for_reuse
from .pathloss import BoundedPowerLaw, PathLossModel
from .pointset import (MarkedPointSet, Rect, ball_counts, color_lattice,
                       gen_matern_ii, gen_triangular_lattice, nearest_index)

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
        lines = ["seed,d,t,realized,bound,ratio"]
        for r in self.records:
            lines.append(f"{r.seed},{r.d:.12g},{r.t:.12g},{r.realized:.12g},"
                         f"{r.bound:.12g},{r.ratio:.12g}")
        write_lines(path_or_file, lines)


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
    ``make.window`` is the sampling window.
    """
    def make(seed: int, near=None) -> MarkedPointSet:
        return gen_matern_ii(intensity, hardcore_radius, window, seed,
                             near=near)
    make.window = window
    return make


def vertex_window(a: float, half_width: float) -> Rect:
    """Square window centered on a cell vertex of the lattice with edge a."""
    s = math.sqrt(3.0) * a
    vertex = (0.5 * s, s * math.sqrt(3.0) / 6)
    return Rect.square(vertex, half_width)


def lattice_factory(a: float, half_width: float, k: int = 1):
    """Factory of the (deterministic) colored lattice on a vertex-centered window."""
    window = vertex_window(a, half_width)
    lattice = color_lattice(gen_triangular_lattice(a, window), k)

    def make(seed: int) -> MarkedPointSet:
        return lattice
    return make


def _attenuated_sum(model: PathLossModel, points: np.ndarray, origin,
                    exclude: int = -1) -> float:
    if isinstance(model, BoundedPowerLaw):
        return kernels.bounded_power_law_sum(points, origin, model.alpha, exclude)
    d = np.sqrt(((points - np.asarray(origin, dtype=float)) ** 2).sum(axis=1))
    att = model.eval(d)
    total = float(att.sum())
    if 0 <= exclude < len(att):
        total -= float(att[exclude])
    return total


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


def check_ball_regulation(factory, h: float, r_grid, trials: int,
                          seed: int) -> VerificationReport:
    """Counts in random balls never exceed 1 + rho_h R + nu_h R^2.

    Ball centers are drawn uniformly over the window shrunk by max(R), so
    each checked ball lies fully inside the window.  A factory that exposes
    its sampling ``window`` (see :func:`matern_factory`) is asked only for
    the points within max(R) of the center; any other factory is called
    with the seed alone.  The records are the same either way.
    """
    r_grid = [float(r) for r in r_grid]
    if not r_grid or min(r_grid) < 0:
        raise ConfigurationError("need a non-empty grid of non-negative radii")
    reg = hardcore_regulation_constants(h)
    bounds = [reg.count_bound(r) for r in r_grid]
    records: list[TrialRecord] = []
    r_max = max(r_grid)
    window = getattr(factory, "window", None)
    for i in range(trials):
        tseed = trial_seed(seed, i)
        if window is None:
            ps = factory(tseed)
            center = _ball_center(ps.window, r_max, seed, i)
        else:
            center = _ball_center(window, r_max, seed, i)
            ps = factory(tseed, near=(center, r_max))
        counts = ball_counts(ps, center, r_grid)
        records.extend(TrialRecord(tseed, r, r, float(count), bound)
                       for r, count, bound in zip(r_grid, counts, bounds))
    return _finalize("ball-regulation", trials, records)


def check_interference_bound(factory, h: float, model: PathLossModel,
                             trials: int, seed: int) -> VerificationReport:
    """Realized interference at the window center never exceeds the bound.

    Per trial: the user sits at the window center, associates with the
    nearest point x0 at distance d, and the realized sum of l(|x - user|)
    over all other points is checked against interference_bound(l, h, d).
    Empty samples are skipped and counted.
    """
    records: list[TrialRecord] = []
    skipped = 0
    for i in range(trials):
        tseed = trial_seed(seed, i)
        ps = factory(tseed)
        if len(ps) == 0:
            skipped += 1
            continue
        user = ps.window.center
        i0 = nearest_index(ps, user)
        d = float(np.sqrt(((ps.points[i0] - user) ** 2).sum()))
        t = exclusion_radius(d, h)
        realized = _attenuated_sum(model, ps.points, user, exclude=i0)
        bound = interference_bound(model, h, d)
        records.append(TrialRecord(tseed, d, t, realized, bound))
    return _finalize("interference-bound", trials, records, skipped)


def check_scheduled_bound(a: float, k: int, model: PathLossModel,
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
        d_m = float(np.sqrt(((lattice.points[idx] - user) ** 2).sum()))
        sel = np.flatnonzero(lattice.marks == mark)
        local_excl = int(np.flatnonzero(sel == idx)[0])
        realized = _attenuated_sum(model, lattice.points[sel], user,
                                   exclude=local_excl)
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
