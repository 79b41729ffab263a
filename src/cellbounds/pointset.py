"""Point configurations for the empirical verifier.

Triangular lattices with reuse colorings, Matern type-II hardcore samples,
and the geometric queries the Monte Carlo checks rely on (nearest point,
open-ball counts, hardcore verification).

Matern samples are drawn one stream at a time but thinned in groups
(:meth:`MaternSource.groups`): consecutive samples are thinned in one
labelled kernel call once the Poisson points they thin reach
``GROUP_POINTS``, and the queries on a :class:`SampleGroup` answer for all
of its samples in one pass.  A sample is the same whichever group it falls
in.  Its stream is seeded by ready PCG64 words, which the caller derives
for all of its samples at once (see :mod:`cellbounds._seeding`).

Geometric comparisons carry a 1e-12 relative slack so that lattice points
whose exact distance is, say, 4 but whose floating-point distance lands at
4 - 1e-15 are classified the way the exact geometry dictates.  The slack is
three orders of magnitude below any tolerance asserted elsewhere.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import _seeding, kernels
from ._textio import opened, write_lines
from .hexnet import hardcore_for_reuse, reuse

_REL_SLACK = 1e-12
# Relative inflation of the reach of a local Matern sample (see MaternSource).
_REACH_SLACK = 1e-9
# Points a group of samples reaches before it closes (see _grouped): for
# Matern samples the Poisson points thinned in one kernel call, about 4 full
# samples at the verify defaults or 25 of the ball suite's local ones, so
# the call's fixed cost, about 90 us, is paid once per group.  A budget of
# 16,000 made `verify` faster still, but added 2.3 MB to its peak memory
# where this one adds about 1 MB.
GROUP_POINTS = 4000
# The (i, j) grid points gen_triangular_lattice builds at most, about 0.8 GiB
# at 83 B each: a square window of half-width 4,680 at the default edge.
_MAX_LATTICE_GRID = 10 ** 7


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [xmin, xmax] x [ymin, ymax]."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.xmin, self.xmax,
                                       self.ymin, self.ymax))):
            raise ValueError("window bounds must be finite")
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("window is degenerate")

    @classmethod
    def square(cls, center, half_width: float) -> "Rect":
        cx, cy = float(center[0]), float(center[1])
        return cls(cx - half_width, cx + half_width,
                   cy - half_width, cy + half_width)

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self):
        return np.array([(self.xmin + self.xmax) / 2,
                         (self.ymin + self.ymax) / 2])

    def expand(self, margin: float) -> "Rect":
        return Rect(self.xmin - margin, self.xmax + margin,
                    self.ymin - margin, self.ymax + margin)

    def shrink(self, margin: float) -> "Rect":
        return self.expand(-margin)

    def contains(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return ((pts[:, 0] >= self.xmin) & (pts[:, 0] <= self.xmax)
                & (pts[:, 1] >= self.ymin) & (pts[:, 1] <= self.ymax))


@dataclass(frozen=True)
class MarkedPointSet:
    """Finite planar point set with scheduling marks in {1..num_marks}."""

    points: np.ndarray
    marks: np.ndarray
    window: Rect
    num_marks: int = 1
    lattice_ij: np.ndarray | None = None  # integer lattice indices, if any

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        mks = np.asarray(self.marks).reshape(-1)
        if len(pts) != len(mks):
            raise ValueError("points and marks must have equal length")
        # checked before the cast, which would truncate 1.5 and turn nan or
        # 1e300 into some integer
        bad = ~((mks >= 1) & (mks <= self.num_marks) & (mks == np.floor(mks)))
        if bad.any():
            raise ValueError(f"marks must be integers in 1..{self.num_marks}, "
                             f"got {mks[bad][0]}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "marks", mks.astype(np.int64))
        if len(pts) and not self.window.contains(pts).all():
            raise ValueError("all points must lie in the window")
        if self.lattice_ij is not None:
            ij = np.asarray(self.lattice_ij, dtype=np.int64).reshape(-1, 2)
            if len(ij) != len(pts):
                raise ValueError("lattice indices must match points")
            object.__setattr__(self, "lattice_ij", ij)

    def __len__(self) -> int:
        return len(self.points)

    def __call__(self, seed: int) -> "MarkedPointSet":
        """The sample of any seed: a fixed set is its own."""
        return self

    def groups(self, draws: Iterable) -> Iterator["SampleGroup"]:
        """One copy of the set per draw, grouped by :func:`_grouped`.

        A fixed set is the same sample whatever the draw, so ``draws`` is
        only counted.
        """
        for batch in _grouped(draws, lambda draw: len(self)):
            yield SampleGroup.of(np.tile(self.points, (len(batch), 1)),
                                 [len(self)] * len(batch))


@dataclass(frozen=True)
class MaternSource:
    """Matern type-II hardcore samples on a window.

    A homogeneous Poisson sample of the given intensity is drawn on the
    window inflated by ``hardcore_radius`` (so boundary points see all of
    their potential killers), each point gets an independent uniform age,
    and a point is retained iff no point of smaller age lies within
    ``hardcore_radius``.  The retained set is clipped back to the window;
    its minimum pairwise distance is >= hardcore_radius.

    Building the source checks that both parameters are finite and
    positive, and that the Poisson mean on the expanded window is finite
    and at most 2**62, below numpy's Poisson limit of about 9.2e18.
    """

    intensity: float
    hardcore_radius: float
    window: Rect

    def __post_init__(self):
        if not (math.isfinite(self.intensity)
                and math.isfinite(self.hardcore_radius)):
            raise ValueError("intensity and hardcore radius must be finite")
        if self.intensity <= 0:
            raise ValueError("intensity must be positive")
        if self.hardcore_radius <= 0:
            raise ValueError("hardcore radius must be positive")
        area = self.window.expand(self.hardcore_radius).area
        mean = self.intensity * area
        if not mean <= 2 ** 62:
            limit = "is above 2**62" if mean < math.inf else "is not finite"
            raise ValueError(f"the mean number of Poisson points, intensity "
                             f"{self.intensity} times area {area}, {limit}")

    def __call__(self, seed: int) -> MarkedPointSet:
        """The sample drawn from ``np.random.default_rng(seed)``."""
        (group,) = self.groups([(_seeding.states([(seed,)])[0], None)])
        return MarkedPointSet(group.points, np.ones(len(group.points),
                                                    dtype=np.int64),
                              self.window)

    def groups(self, draws: Iterable) -> Iterator["SampleGroup"]:
        """The samples of the ``(words, near)`` pairs of ``draws``, in
        groups (see :func:`_grouped`) that are each thinned in one labelled
        call of :func:`cellbounds.kernels.matern_keep_mask`.  ``words``, a
        row of :func:`cellbounds._seeding.states`, seed the sample's stream.

        With ``near=(center, reach)``, not None, the sample is the full one
        restricted to the closed square of half-width ``reach`` around
        ``center``: the same points in the same order.  A point's fate
        depends only on the Poisson points within ``hardcore_radius`` of
        it, so only those within ``reach + hardcore_radius`` of the center
        (in the max norm) are thinned.  The whole Poisson sample is still
        drawn, so the stream is the same as without ``near``.
        """
        ext = self.window.expand(self.hardcore_radius)
        mean = self.intensity * ext.area
        samples = (_draw(ext, mean, self.hardcore_radius, words, near)
                   for words, near in draws)
        for batch in _grouped(samples, lambda sample: len(sample[1])):
            yield _thin(self.hardcore_radius, self.window, batch)


def gen_matern_ii(intensity: float, hardcore_radius: float, window: Rect,
                  seed: int) -> MarkedPointSet:
    """The :class:`MaternSource` sample of one seed."""
    return MaternSource(intensity, hardcore_radius, window)(seed)


def gen_triangular_lattice(a: float, window: Rect) -> MarkedPointSet:
    """All triangular-lattice sites inside the window, marks all 1.

    Sites are i*u + j*v with u = (s, 0), v = (s/2, s*sqrt(3)/2) and
    inter-site distance s = sqrt(3)*a, where a is the hexagon edge length
    (equivalently the cell circumradius).
    """
    s = 2 * hardcore_for_reuse(a, 1)  # the site spacing is 2 h_1
    row = 0.5 * math.sqrt(3.0) * s
    # the (i, j) grid over a parallelogram around the window, row by row
    try:  # counted before it is built
        j_lo = math.floor(window.ymin / row) - 1
        j_hi = math.ceil(window.ymax / row) + 1
        i_lo = math.floor((window.xmin - 0.5 * s * j_hi) / s) - 1
        i_hi = math.ceil((window.xmax - 0.5 * s * j_lo) / s) + 2
        size = float(i_hi - i_lo) * (j_hi + 1 - j_lo)  # exact to 2**53
    except OverflowError:  # more rows or columns than a float holds
        size = math.inf
    if size > _MAX_LATTICE_GRID:
        raise ValueError(f"a lattice of edge length {a} on {window} needs "
                         f"{size:.3g} grid points, over {_MAX_LATTICE_GRID}")
    i, j = (grid.ravel() for grid in np.meshgrid(
        np.arange(i_lo, i_hi), np.arange(j_lo, j_hi + 1)))
    pts = np.column_stack((i * s + 0.5 * s * j, j * row))
    inside = window.contains(pts)
    return MarkedPointSet(pts[inside], np.ones(inside.sum(), dtype=np.int64),
                          window, num_marks=1,
                          lattice_ij=np.column_stack((i, j))[inside])


def color_lattice(lattice: MarkedPointSet, k: int) -> MarkedPointSet:
    """The triangular lattice marked by its reuse-k coloring in
    :data:`cellbounds.hexnet.REUSE`."""
    mark = reuse(k).mark
    if lattice.lattice_ij is None:
        raise ValueError("coloring needs the lattice indices (i, j)")
    return dataclasses.replace(lattice, marks=mark(*lattice.lattice_ij.T),
                               num_marks=k)


class SampleGroup(NamedTuple):
    """Point sets of consecutive samples, stored one after another.

    Sample ``k`` holds ``points[starts[k]:starts[k + 1]]``, in its own
    order, and ``label`` gives the sample of each point.
    """

    points: np.ndarray
    starts: np.ndarray
    label: np.ndarray

    def __len__(self) -> int:
        return len(self.starts) - 1

    @classmethod
    def of(cls, points, sizes) -> "SampleGroup":
        """The group whose samples are the runs of ``sizes`` points."""
        starts = np.zeros(len(sizes) + 1, dtype=np.intp)
        np.cumsum(sizes, out=starts[1:])
        return cls(points, starts, np.arange(len(sizes)).repeat(sizes))

    def sq_dists(self, centers) -> np.ndarray:
        """:func:`kernels.sq_dists` from each point to its sample's center."""
        ctr = np.asarray(centers, dtype=float).reshape(-1, 2)
        return kernels.sq_dists(self.points, ctr.take(self.label, axis=0))

    def ball_counts(self, centers, radii) -> list[list[int]]:
        """Per sample, the numbers of its points in the open balls
        b(center, r) around its center, one per radius r."""
        limits = _squared_limits(radii)
        d2 = self.sq_dists(centers)
        counts = np.zeros((len(limits), len(self)), dtype=np.intp)
        for row, limit in zip(counts, limits):
            row += np.bincount(self.label.compress(d2 < limit),
                               minlength=len(self))
        return counts.T.tolist()

    def nearest(self, centers) -> tuple[list[int], np.ndarray]:
        """Per sample, the index in ``points`` of its point closest to its
        center, exact ties broken lexicographically by the points'
        coordinates, or -1 if it has no points; and :meth:`sq_dists`."""
        d2 = self.sq_dists(centers)
        bounds = self.starts.tolist()
        return [first + _nearest(self.points[first:stop], d2[first:stop])
                if stop > first else -1
                for first, stop in zip(bounds, bounds[1:])], d2


def _squared_limits(radii) -> list[float]:
    """Per radius r, the bound below which a squared distance lies in the
    open ball of radius r."""
    radii = [float(r) for r in radii]
    if not all(r >= 0 for r in radii):  # NaN included
        raise ValueError("radius must be non-negative")
    return [t * t for t in (r * (1.0 - _REL_SLACK) for r in radii)]


def _nearest(points: np.ndarray, d2: np.ndarray) -> int:
    """Index of the smallest of ``d2``, exact ties broken lexicographically
    by the points' coordinates."""
    tied = np.flatnonzero(d2 == d2.min())
    if len(tied) > 1:
        tied = tied[np.lexsort((points[tied, 1], points[tied, 0]))]
    return int(tied[0])


def _grouped(samples: Iterable, size) -> Iterator[list]:
    """Consecutive ``samples`` in lists, each closed as soon as the
    ``size`` of its samples sums to ``GROUP_POINTS``."""
    batch, total = [], 0
    for sample in samples:
        batch.append(sample)
        total += size(sample)
        del sample  # so that clearing a batch frees its samples
        if total >= GROUP_POINTS:
            yield batch
            batch, total = [], 0
    if batch:
        yield batch


def _draw(ext: Rect, mean: float, hardcore_radius: float, words, near):
    """The Poisson points of one sample to be thinned, as ``(points, ages,
    within)``: those within reach of ``near`` (all of them without it),
    and whether each lies within the sample's square.  ``words`` seed its
    stream (see :func:`cellbounds._seeding.generator`)."""
    rng = _seeding.generator(words)
    n = int(rng.poisson(mean))
    points = np.column_stack((rng.uniform(ext.xmin, ext.xmax, n),
                              rng.uniform(ext.ymin, ext.ymax, n)))
    ages = rng.random(n)
    if near is None:
        return points, ages, np.ones(n, dtype=bool)
    (cx, cy), reach = near
    offset = np.maximum(np.abs(points[:, 0] - cx), np.abs(points[:, 1] - cy))
    # the slack covers the rounding of the offsets; boolean masks keep the
    # relative order that breaks ties between equal ages
    reached = offset <= (reach + hardcore_radius) * (1 + _REACH_SLACK)
    return (points.compress(reached, axis=0), ages.compress(reached),
            offset.compress(reached) <= reach)


def _thin(hardcore_radius: float, window: Rect, batch: list) -> SampleGroup:
    """The group of the drawn samples of ``batch`` (see :func:`_draw`):
    the points within their sample's square that survive its thinning and
    lie in the window.  Empties ``batch``."""
    sizes = [len(ages) for _, ages, _ in batch]
    points, ages, keep = map(np.concatenate, zip(*batch))
    batch.clear()  # frees the draws before the kernel runs
    label = SampleGroup.of(points, sizes).label
    keep &= kernels.matern_keep_mask(points, ages, hardcore_radius, label)
    keep &= window.contains(points)
    # compress selects like a boolean index, several times faster
    return SampleGroup.of(points.compress(keep, axis=0),
                          np.bincount(label.compress(keep),
                                      minlength=len(sizes)))


def verify_hardcore(ps: MarkedPointSet, min_dist: float) -> bool:
    """True iff every pair of distinct same-mark points is >= min_dist apart."""
    if len(ps) < 2 or min_dist <= 0:
        return True
    return (kernels.min_same_mark_sq_dist(ps.points, ps.marks)
            >= _squared_limits([min_dist])[0])


def nearest_index(ps: MarkedPointSet, origin) -> int:
    """Index of the point closest to origin, as :meth:`SampleGroup.nearest`."""
    if len(ps) == 0:
        raise ValueError("point set is empty")
    return _nearest(ps.points, kernels.sq_dists(ps.points, origin))


def ball_count(ps: MarkedPointSet, center, radius: float) -> int:
    """Number of points in the open ball b(center, radius)."""
    return SampleGroup.of(ps.points, [len(ps)]).ball_counts([center],
                                                            [radius])[0][0]


def to_csv(ps: MarkedPointSet, path_or_file) -> None:
    """Write the point set as CSV with header ``x,y,mark``."""
    write_lines(path_or_file, itertools.chain(["x,y,mark"], (
        f"{x:.17g},{y:.17g},{m}" for (x, y), m in zip(ps.points, ps.marks))))


def from_csv(path_or_file, window: Rect | None = None) -> MarkedPointSet:
    """Read a point set written by :func:`to_csv`, a line at a time.

    Without an explicit window the bounding box of the points is used,
    which requires a non-empty file; a side of width 0 is widened.  A row
    must hold three numbers, and ``num_marks`` is the largest mark.
    """
    with opened(path_or_file) as fh:
        rows = (ln for line in fh for ln in line.splitlines()
                if ln and ln[0] != "#")
        if next(rows, "").strip() != "x,y,mark":
            raise ValueError("expected CSV with header 'x,y,mark'")
        first = next(rows, None)
        data = np.zeros((0, 3)) if first is None else np.loadtxt(
            itertools.chain([first], rows), delimiter=",", ndmin=2)
    if data.shape[1] != 3:
        raise ValueError("expected three columns x,y,mark in every row")
    pts, marks = data[:, :2], data[:, 2]
    if window is None:
        if len(pts) == 0:
            raise ValueError("cannot infer a window from an empty point set")
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        # each upper bound at least 1e-9 or, where that rounds back to the
        # lower one, a float above it; only at the largest float, which has
        # none above, does the lower bound move down instead
        top = np.finfo(float).max
        hi = np.maximum(hi, np.maximum(lo + 1e-9, np.nextafter(lo, top)))
        lo = np.minimum(lo, np.nextafter(hi, -top))
        window = Rect(lo[0], hi[0], lo[1], hi[1])
    # the largest mark, where it is a count that MarkedPointSet can check
    top = marks.max(initial=1)
    return MarkedPointSet(pts, marks, window,
                          num_marks=int(top) if top < 2 ** 31 else 1)
