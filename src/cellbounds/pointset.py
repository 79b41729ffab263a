"""Point configurations for the empirical verifier.

Triangular lattices with reuse colorings, Matern type-II hardcore samples,
and the geometric queries the Monte Carlo checks rely on (nearest point,
open-ball counts, hardcore verification).

Matern samples are drawn one seed at a time but thinned in groups
(:func:`matern_groups`): consecutive samples are thinned in one labelled
kernel call once the Poisson points they thin reach ``GROUP_POINTS``, and
the queries on a :class:`SampleGroup` answer for all of its samples in
one pass.  A sample is the same whichever group it falls in.

Geometric comparisons carry a 1e-12 relative slack so that lattice points
whose exact distance is, say, 4 but whose floating-point distance lands at
4 - 1e-15 are classified the way the exact geometry dictates.  The slack is
three orders of magnitude below any tolerance asserted elsewhere.
"""

from __future__ import annotations

import dataclasses
import io
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import kernels
from ._textio import is_path, write_lines
from .hexnet import UnsupportedReuseError

_REL_SLACK = 1e-12
# Relative inflation of the reach of a local Matern sample (see gen_matern_ii).
_REACH_SLACK = 1e-9
# Poisson points thinned in one kernel call by matern_groups: about 4 full
# samples at the verify defaults, or 25 of the ball suite's local ones.
# The call's fixed cost, about 90 us, is then paid once per group.  A
# budget of 16,000 made `verify` faster still, but added 2.3 MB to its
# peak memory where this one adds about 1 MB.  ball_counts_around computes
# about as many distances per pass.
GROUP_POINTS = 4000


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
        mks = np.asarray(self.marks, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "marks", mks)
        if len(pts) != len(mks):
            raise ValueError("points and marks must have equal length")
        if len(mks) and (mks.min() < 1 or mks.max() > self.num_marks):
            raise ValueError(f"marks must lie in 1..{self.num_marks}")
        if len(pts) and not self.window.contains(pts).all():
            raise ValueError("all points must lie in the window")
        if self.lattice_ij is not None:
            ij = np.asarray(self.lattice_ij, dtype=np.int64).reshape(-1, 2)
            if len(ij) != len(pts):
                raise ValueError("lattice indices must match points")
            object.__setattr__(self, "lattice_ij", ij)

    def __len__(self) -> int:
        return len(self.points)


def gen_triangular_lattice(a: float, window: Rect) -> MarkedPointSet:
    """All triangular-lattice sites inside the window, marks all 1.

    Sites are i*u + j*v with u = (s, 0), v = (s/2, s*sqrt(3)/2) and
    inter-site distance s = sqrt(3)*a, where a is the hexagon edge length
    (equivalently the cell circumradius).
    """
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"edge length must be positive and finite, got {a}")
    s = math.sqrt(3.0) * a
    row = 0.5 * math.sqrt(3.0) * s
    j = np.arange(math.floor(window.ymin / row) - 1,
                  math.ceil(window.ymax / row) + 2)
    off = 0.5 * s * j
    # row j holds the sites i = i_lo .. i_hi, in increasing i
    i_lo = np.floor((window.xmin - off) / s).astype(np.int64) - 1
    i_hi = np.ceil((window.xmax - off) / s).astype(np.int64) + 1
    count = i_hi - i_lo + 1
    first = np.cumsum(count) - count
    i = np.arange(count.sum()) + (i_lo - first).repeat(count)
    j = j.repeat(count)
    pts = np.column_stack((i * s + off.repeat(count), j * row))
    ij = np.column_stack((i, j))
    inside = window.contains(pts)
    return MarkedPointSet(pts[inside], np.ones(inside.sum(), dtype=np.int64),
                          window, num_marks=1, lattice_ij=ij[inside])


def color_lattice(lattice: MarkedPointSet, k: int) -> MarkedPointSet:
    """Reuse coloring of a triangular lattice into k in {1, 3, 4} classes.

    Same-mark sublattices have minimal spacing sqrt(3)*a (k=1), 3*a (k=3)
    and 2*sqrt(3)*a (k=4).
    """
    if k not in (1, 3, 4):
        raise UnsupportedReuseError(f"no reuse-{k} coloring available")
    if lattice.lattice_ij is None:
        raise ValueError("coloring needs the lattice indices (i, j)")
    i = lattice.lattice_ij[:, 0]
    j = lattice.lattice_ij[:, 1]
    if k == 1:
        marks = np.ones(len(lattice), dtype=np.int64)
    elif k == 3:
        marks = (i + 2 * j) % 3 + 1
    else:
        marks = 2 * (i % 2) + (j % 2) + 1
    return dataclasses.replace(lattice, marks=marks, num_marks=k)


def sq_dists(points: np.ndarray, center) -> np.ndarray:
    """``dx*dx + dy*dy`` from ``center`` to each row of ``points``.

    Each coordinate of the center is a number, an array with one entry
    per point, or a column of several centers' coordinates, which gives a
    row of distances per center.  The values equal
    ``((points - center) ** 2).sum(axis=1)`` bit for bit.
    """
    dx = points[:, 0] - center[0]
    dy = points[:, 1] - center[1]
    return dx * dx + dy * dy


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
        """:func:`sq_dists` from each point to the center of its sample."""
        ctr = np.asarray(centers, dtype=float).reshape(-1, 2)
        return sq_dists(self.points, (ctr[:, 0].take(self.label),
                                      ctr[:, 1].take(self.label)))

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
        center (see :func:`nearest_index`), or -1 if it has no points; and
        :meth:`sq_dists`."""
        d2 = self.sq_dists(centers)
        bounds = self.starts.tolist()
        return [first + _nearest(self.points[first:stop], d2[first:stop])
                if stop > first else -1
                for first, stop in zip(bounds, bounds[1:])], d2


def _squared_limits(radii) -> list[float]:
    """Per radius r, the bound below which a squared distance lies in the
    open ball of radius r."""
    radii = [float(r) for r in radii]
    if any(r < 0 for r in radii):
        raise ValueError("radius must be non-negative")
    return [t * t for t in (r * (1.0 - _REL_SLACK) for r in radii)]


def ball_counts_around(points: np.ndarray, centers,
                       radii) -> list[list[int]]:
    """Per center, the numbers of ``points`` in the open balls b(center, r)
    around it, one per radius r.

    One point set serves every center, as a lattice serves every trial:
    the distances from a few centers at a time, about ``GROUP_POINTS`` of
    them, are computed in one pass, and the points are never copied.
    """
    limits = _squared_limits(radii)
    ctr = np.asarray(centers, dtype=float).reshape(-1, 2)
    step = max(1, GROUP_POINTS // max(len(points), 1))
    counts = np.zeros((len(ctr), len(limits)), dtype=np.intp)
    for first in range(0, len(ctr), step):
        near = ctr[first:first + step]
        d2 = sq_dists(points, (near[:, :1], near[:, 1:]))
        for k, limit in enumerate(limits):
            counts[first:first + step, k] = np.count_nonzero(d2 < limit,
                                                             axis=1)
    return counts.tolist()


def _nearest(points: np.ndarray, d2: np.ndarray) -> int:
    """Index of the smallest of ``d2``, exact ties broken lexicographically
    by the points' coordinates."""
    tied = np.flatnonzero(d2 == d2.min())
    if len(tied) > 1:
        tied = tied[np.lexsort((points[tied, 1], points[tied, 0]))]
    return int(tied[0])


def check_matern(intensity: float, hardcore_radius: float) -> None:
    """Raise ValueError unless both Matern parameters are finite and positive."""
    if not (math.isfinite(intensity) and math.isfinite(hardcore_radius)):
        raise ValueError("intensity and hardcore radius must be finite")
    if intensity <= 0:
        raise ValueError("intensity must be positive")
    if hardcore_radius <= 0:
        raise ValueError("hardcore radius must be positive")


def matern_groups(intensity: float, hardcore_radius: float, window: Rect,
                  draws: Iterable) -> Iterator[SampleGroup]:
    """Matern type-II samples (see :func:`gen_matern_ii`), a group at a time.

    ``draws`` gives one ``(seed, near)`` pair per sample, ``near`` being
    ``None`` or ``(center, reach)``.  Samples are drawn in order and
    thinned together, in one labelled call of
    :func:`cellbounds.kernels.matern_keep_mask`, as soon as their Poisson
    points to be thinned reach ``GROUP_POINTS``; the last group may hold
    fewer.  Each yielded group holds the retained points of its samples,
    equal point for point to :func:`gen_matern_ii` of the same arguments.
    """
    check_matern(intensity, hardcore_radius)
    ext = window.expand(hardcore_radius)
    mean = intensity * ext.area
    xs, ys, ages, inner = [], [], [], []
    drawn = 0
    for seed, near in draws:
        rng = np.random.default_rng(seed)
        n = int(rng.poisson(mean))
        x = rng.uniform(ext.xmin, ext.xmax, n)
        y = rng.uniform(ext.ymin, ext.ymax, n)
        age = rng.random(n)
        within = None
        if near is not None:
            (cx, cy), reach = near
            offset = np.maximum(np.abs(x - cx), np.abs(y - cy))
            # the slack covers the rounding of the offsets; boolean masks
            # keep the relative order that breaks ties between equal ages
            reached = offset <= (reach + hardcore_radius) * (1 + _REACH_SLACK)
            x, y = x.compress(reached), y.compress(reached)
            age = age.compress(reached)
            within = offset.compress(reached) <= reach
        xs.append(x)
        ys.append(y)
        ages.append(age)
        inner.append(within)
        drawn += len(x)
        if drawn >= GROUP_POINTS:
            yield _thin(hardcore_radius, window, xs, ys, ages, inner)
            xs, ys, ages, inner = [], [], [], []
            drawn = 0
    if xs:
        yield _thin(hardcore_radius, window, xs, ys, ages, inner)


def _thin(hardcore_radius: float, window: Rect, xs, ys, ages,
          inner) -> SampleGroup:
    """The group of the drawn points that survive the thinning of their
    sample, lie within its reach (``inner``, None for a full sample) and
    lie in the window."""
    sizes = [len(x) for x in xs]
    group = SampleGroup.of(np.empty((sum(sizes), 2)), sizes)
    for first, x, y in zip(group.starts.tolist(), xs, ys):
        group.points[first:first + len(x), 0] = x
        group.points[first:first + len(x), 1] = y
    keep = kernels.matern_keep_mask(group.points, np.concatenate(ages),
                                    hardcore_radius, group.label)
    for first, within in zip(group.starts.tolist(), inner):
        if within is not None:
            keep[first:first + len(within)] &= within
    # compress selects like a boolean index, several times faster
    points = group.points.compress(keep, axis=0)
    inside = window.contains(points)
    label = group.label.compress(keep).compress(inside)
    return SampleGroup.of(points.compress(inside, axis=0),
                          np.bincount(label, minlength=len(xs)))


def gen_matern_ii(intensity: float, hardcore_radius: float, window: Rect,
                  seed: int, near=None) -> MarkedPointSet:
    """Sample a Matern type-II hardcore process on the window.

    A homogeneous Poisson sample of the given intensity is drawn on the
    window inflated by ``hardcore_radius`` (so boundary points see all of
    their potential killers), each point gets an independent uniform age,
    and a point is retained iff no point of smaller age lies within
    ``hardcore_radius``.  The retained set is clipped back to the window;
    its minimum pairwise distance is >= hardcore_radius.  Bit-reproducible
    for a fixed seed.

    With ``near=(center, reach)`` the result is the full sample restricted
    to the closed square of half-width ``reach`` around ``center``: the same
    points in the same order.  The thinning has finite range, since whether
    a point is retained depends only on the Poisson points within
    ``hardcore_radius`` of it, so only the points of the Poisson sample
    within ``reach + hardcore_radius`` of the center (in the max norm) are
    thinned.  The whole Poisson sample is still drawn, so the random stream
    is the same as without ``near``.

    This is the one-sample case of :func:`matern_groups`.
    """
    (group,) = matern_groups(intensity, hardcore_radius, window,
                             [(seed, near)])
    return MarkedPointSet(group.points, np.ones(len(group.points),
                                                dtype=np.int64), window)


def verify_hardcore(ps: MarkedPointSet, min_dist: float) -> bool:
    """True iff every pair of distinct same-mark points is >= min_dist apart."""
    if len(ps) < 2 or min_dist <= 0:
        return True
    threshold = min_dist * (1.0 - _REL_SLACK)
    return kernels.min_same_mark_sq_dist(ps.points, ps.marks) >= threshold ** 2


def nearest_index(ps: MarkedPointSet, origin, mark: int | None = None) -> int:
    """Index of the point closest to origin; exact ties break lexicographically."""
    if len(ps) == 0:
        raise ValueError("point set is empty")
    candidates = np.arange(len(ps))
    if mark is not None:
        candidates = candidates[ps.marks == mark]
        if len(candidates) == 0:
            raise ValueError(f"no points with mark {mark}")
    pts = ps.points[candidates]
    d2 = sq_dists(pts, np.asarray(origin, dtype=float))
    return int(candidates[_nearest(pts, d2)])


def ball_counts(ps: MarkedPointSet, center, radii,
                mark: int | None = None) -> list[int]:
    """Numbers of points in the open balls b(center, r), one per radius r."""
    pts = ps.points if mark is None else ps.points[ps.marks == mark]
    return ball_counts_around(pts, [center], radii)[0]


def ball_count(ps: MarkedPointSet, center, radius: float,
               mark: int | None = None) -> int:
    """Number of points in the open ball b(center, radius), optionally by mark."""
    return ball_counts(ps, center, [radius], mark)[0]


def to_csv(ps: MarkedPointSet, path_or_file) -> None:
    """Write the point set as CSV with header ``x,y,mark``."""
    lines = ["x,y,mark"]
    for (x, y), m in zip(ps.points, ps.marks):
        lines.append(f"{x:.17g},{y:.17g},{m}")
    write_lines(path_or_file, lines)


def from_csv(path_or_file, window: Rect | None = None,
             num_marks: int | None = None) -> MarkedPointSet:
    """Read a point set written by :func:`to_csv`.

    Without an explicit window the bounding box of the points is used,
    which requires a non-empty file.
    """
    if is_path(path_or_file):
        with open(path_or_file) as fh:
            content = fh.read()
    else:
        content = path_or_file.read()
    rows = [ln for ln in content.splitlines() if ln and not ln.startswith("#")]
    if not rows or rows[0].strip() != "x,y,mark":
        raise ValueError("expected CSV with header 'x,y,mark'")
    data = np.loadtxt(io.StringIO("\n".join(rows[1:])), delimiter=",",
                      ndmin=2) if len(rows) > 1 else np.zeros((0, 3))
    pts = data[:, :2]
    marks = data[:, 2].astype(np.int64)
    if window is None:
        if len(pts) == 0:
            raise ValueError("cannot infer a window from an empty point set")
        window = Rect(pts[:, 0].min(), max(pts[:, 0].max(), pts[:, 0].min() + 1e-9),
                      pts[:, 1].min(), max(pts[:, 1].max(), pts[:, 1].min() + 1e-9))
    if num_marks is None:
        num_marks = int(marks.max()) if len(marks) else 1
    return MarkedPointSet(pts, marks, window, num_marks=num_marks)
