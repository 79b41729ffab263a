"""Point configurations for the empirical verifier.

Triangular lattices with reuse colorings, Matern type-II hardcore samples,
and the geometric queries the Monte Carlo checks rely on (nearest point,
open-ball counts, hardcore verification).

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

import numpy as np

from . import kernels
from ._textio import is_path, write_lines
from .hexnet import UnsupportedReuseError

_REL_SLACK = 1e-12
# Relative inflation of the reach of a local Matern sample (see gen_matern_ii).
_REACH_SLACK = 1e-9


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [xmin, xmax] x [ymin, ymax]."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
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
class HardcoreSpec:
    """Regulation parameters: same-class points are at least 2*h_k apart."""

    k: int
    h_k: float

    def __post_init__(self):
        if self.k < 1 or int(self.k) != self.k:
            raise ValueError("k must be a positive integer")
        if self.h_k <= 0:
            raise ValueError("h_k must be positive")


def hardcore_family(pairs) -> tuple[HardcoreSpec, ...]:
    """Build a family of specs, checking h_k is non-decreasing in k."""
    specs = tuple(HardcoreSpec(k, h) for k, h in pairs)
    by_k = sorted(specs, key=lambda s: s.k)
    for prev, cur in zip(by_k, by_k[1:]):
        if cur.h_k < prev.h_k:
            raise ValueError(
                f"h_k must be non-decreasing in k: h_{prev.k}={prev.h_k} "
                f"> h_{cur.k}={cur.h_k}")
    return specs


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
    if a <= 0:
        raise ValueError("edge length must be positive")
    s = math.sqrt(3.0) * a
    row = 0.5 * math.sqrt(3.0) * s
    j_lo = math.floor(window.ymin / row) - 1
    j_hi = math.ceil(window.ymax / row) + 1
    pts = []
    ij = []
    for j in range(j_lo, j_hi + 1):
        y = j * row
        off = 0.5 * s * j
        i_lo = math.floor((window.xmin - off) / s) - 1
        i_hi = math.ceil((window.xmax - off) / s) + 1
        for i in range(i_lo, i_hi + 1):
            pts.append((i * s + off, y))
            ij.append((i, j))
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    ij = np.asarray(ij, dtype=np.int64).reshape(-1, 2)
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
    """
    if intensity <= 0:
        raise ValueError("intensity must be positive")
    if hardcore_radius <= 0:
        raise ValueError("hardcore radius must be positive")
    rng = np.random.default_rng(seed)
    ext = window.expand(hardcore_radius)
    n = int(rng.poisson(intensity * ext.area))
    pts = np.column_stack([rng.uniform(ext.xmin, ext.xmax, n),
                           rng.uniform(ext.ymin, ext.ymax, n)])
    ages = rng.random(n)
    if near is None:
        keep = kernels.matern_keep_mask(pts, ages, hardcore_radius)
    else:
        (cx, cy), reach = near
        offset = np.maximum(np.abs(pts[:, 0] - cx), np.abs(pts[:, 1] - cy))
        # the slack covers the rounding of the offsets; boolean masks keep
        # the relative order that breaks ties between equal ages
        reached = offset <= (reach + hardcore_radius) * (1 + _REACH_SLACK)
        pts, offset = pts[reached], offset[reached]
        keep = kernels.matern_keep_mask(pts, ages[reached], hardcore_radius)
        keep &= offset <= reach
    pts = pts[keep]
    pts = pts[window.contains(pts)]
    return MarkedPointSet(pts, np.ones(len(pts), dtype=np.int64), window)


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
    org = np.asarray(origin, dtype=float)
    d2 = ((pts - org) ** 2).sum(axis=1)
    best = d2.min()
    tied = np.flatnonzero(d2 == best)
    if len(tied) > 1:
        order = np.lexsort((pts[tied, 1], pts[tied, 0]))
        tied = tied[order]
    return int(candidates[tied[0]])


def nearest_point(ps: MarkedPointSet, origin):
    """Closest point to origin and its distance."""
    i = nearest_index(ps, origin)
    org = np.asarray(origin, dtype=float)
    d = float(np.sqrt(((ps.points[i] - org) ** 2).sum()))
    return ps.points[i].copy(), d


def ball_counts(ps: MarkedPointSet, center, radii,
                mark: int | None = None) -> list[int]:
    """Numbers of points in the open balls b(center, r), one per radius r."""
    radii = [float(r) for r in radii]
    if any(r < 0 for r in radii):
        raise ValueError("radius must be non-negative")
    if len(ps) == 0:
        return [0] * len(radii)
    ctr = np.asarray(center, dtype=float)
    d2 = ((ps.points - ctr) ** 2).sum(axis=1)
    if mark is not None:
        d2 = d2[ps.marks == mark]
    counts = []
    for r in radii:
        threshold = r * (1.0 - _REL_SLACK)
        counts.append(int((d2 < threshold * threshold).sum()))
    return counts


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
