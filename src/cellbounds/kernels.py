"""Hot-loop kernels: Matern thinning, same-mark separation, power-law sums.

Neighbour searches run on a grid of square cells in numpy alone (see
:func:`_close_pairs`), so sampling and checking load no scipy module.
Every distance that decides a result is computed from the coordinates as
``dx*dx + dy*dy``, so masks and minima equal those of the direct O(n^2)
rule bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

# Relative inflation of the grid's cell side over the search radius, so that
# no pair inside the exact radius lands two cells apart through the rounding
# of its cell coordinates; the exact test follows.
_SEARCH_SLACK = 1e-9
# Cell coordinates below 2**20 round by less than 1e-9 of a cell in total,
# which the slack absorbs.
_MAX_CELLS_PER_AXIS = 2 ** 20
# Candidate pairs tested at once.  A batch's arrays, about 1 MB in all, fit
# in a core's L2 cache, which makes 16.6k-point samples about a quarter
# faster than one batch does.
_BATCH = 1 << 14


def _points(points) -> np.ndarray:
    return np.asarray(points, dtype=np.float64).reshape(-1, 2)


def _sq_dist(pts: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    dx = pts[i, 0] - pts[j, 0]
    dy = pts[i, 1] - pts[j, 1]
    return dx * dx + dy * dy


def _extent(pts: np.ndarray):
    """Lower-left corner, width and height of the points' bounding box."""
    x, y = pts[:, 0], pts[:, 1]
    xmin, ymin = x.min(), y.min()
    width, height = float(x.max() - xmin), float(y.max() - ymin)
    if not math.isfinite(width + height):
        raise ValueError("points must be finite")
    return xmin, ymin, width, height


def _close_pairs(pts: np.ndarray, radius: float):
    """Index arrays ``(i, j)`` of the pairs of points closer than radius.

    Yields the pairs in batches: each unordered pair with
    ``dx*dx + dy*dy < radius*radius`` appears once, in either orientation.
    The points are sorted into square cells of side at least ``radius``,
    so a close pair lies in one cell or in two adjacent ones; each point
    is paired with the later points of its own cell and with the points of
    the cell above it and of the three cells of the next column.  The side
    grows for clouds sparse relative to the radius, so that there are
    never more than about 3n cells.  Candidate pairs are tested in batches
    of about ``_BATCH``, so memory stays bounded even where many points
    share a cell (a tight cluster far from other points); the time then
    grows with the square of the cluster's size.
    """
    n = pts.shape[0]
    if n < 2 or not radius > 0:
        return
    xmin, ymin, width, height = _extent(pts)
    side = max(radius * (1 + _SEARCH_SLACK), math.sqrt(width * height / n),
               max(width, height) / min(n, _MAX_CELLS_PER_AXIS))
    # cells are numbered up the columns; an empty row on top of each column
    # and an empty column on the right make every stencil cell exist
    rows = int(height / side) + 2
    cells = (int(width / side) + 2) * rows
    col_row = ((pts - (xmin, ymin)) / side).astype(np.intp)
    cell = col_row[:, 0] * rows
    cell += col_row[:, 1]
    order = cell.argsort()
    cell = cell.take(order)
    start = np.zeros(cells + 1, dtype=np.intp)
    np.cumsum(np.bincount(cell, minlength=cells), out=start[1:])
    # two runs of sorted positions per point: the later points of its own
    # cell followed by the cell above, and the three cells of the next column
    pos = np.arange(n + 1)
    owner = np.concatenate((pos[:n], pos[:n]))
    begin = np.concatenate((pos[1:], start.take(cell + (rows - 1))))
    length = start.take(cell + np.array([[2], [rows + 2]])).ravel()
    length -= begin
    # candidate k, counted over all runs, lies in run r at sorted position
    # begin[r] + k - first[r], first[r] counting the candidates before run r
    ends = np.cumsum(length)
    first = ends - length
    begin -= first
    x, y = pts[:, 0].take(order), pts[:, 1].take(order)
    # each batch is a range of whole runs
    cuts = np.searchsorted(ends, np.arange(_BATCH, ends[-1], _BATCH))
    cuts = [0, *cuts.tolist(), 2 * n]
    for lo, hi in zip(cuts, cuts[1:]):
        src = owner[lo:hi].repeat(length[lo:hi])
        dst = begin[lo:hi].repeat(length[lo:hi])
        dst += np.arange(first[lo], first[lo] + dst.shape[0])
        dx = x.take(src)
        dx -= x.take(dst)
        dy = y.take(src)
        dy -= y.take(dst)
        dx *= dx
        dy *= dy
        dx += dy
        close = dx < radius * radius
        yield order.take(src.compress(close)), order.take(dst.compress(close))


def matern_keep_mask(points, ages, radius: float) -> np.ndarray:
    """Boolean retention mask of the Matern type-II thinning.

    A point is kept iff no point of smaller age lies strictly within
    ``radius`` of it; equal ages rank the smaller index as older.
    """
    pts = _points(points)
    age = np.asarray(ages, dtype=np.float64).reshape(-1)
    if age.shape[0] != pts.shape[0]:
        raise ValueError("ages and points must have equal length")
    keep = np.ones(pts.shape[0], dtype=bool)
    for a, b in _close_pairs(pts, float(radius)):
        i, j = np.minimum(a, b), np.maximum(a, b)
        # with i < j, clearing j on equal ages ranks the smaller index older
        keep[np.where(age.take(j) < age.take(i), i, j)] = False
    return keep


def min_same_mark_sq_dist(points, marks) -> float:
    """Smallest squared distance among same-mark pairs; inf if none exist."""
    pts = _points(points)
    mk = np.asarray(marks, dtype=np.int64).reshape(-1)
    if mk.shape[0] != pts.shape[0]:
        raise ValueError("marks and points must have equal length")
    best = math.inf
    for m in np.unique(mk):
        sub = pts[mk == m]
        n = sub.shape[0]
        if n < 2:
            continue
        _, _, width, height = _extent(sub)
        # start from the mean spacing and double until some pair is closer:
        # every pair left out is then farther apart than one found
        radius = max(math.sqrt(width * height / n), (width + height) / n)
        if radius == 0.0:  # all points coincide
            return 0.0
        found = math.inf
        while found == math.inf:
            for i, j in _close_pairs(sub, radius):
                found = float(_sq_dist(sub, i, j).min(initial=found))
            if radius == math.inf:  # every squared distance overflows
                break
            radius *= 2
        best = min(best, found)
    return best


def bounded_power_law_sum(points, origin, alpha: float, exclude: int = -1) -> float:
    """Sum of min(1, d^-alpha) from origin over points, skipping ``exclude``."""
    pts = _points(points)
    dx = pts[:, 0] - float(origin[0])
    dy = pts[:, 1] - float(origin[1])
    d2 = dx * dx + dy * dy
    att = np.ones_like(d2)
    far = d2 > 1.0
    att[far] = d2[far] ** (-0.5 * float(alpha))
    total = float(att.sum())
    if 0 <= exclude < att.shape[0]:
        total -= float(att[exclude])
    return total
