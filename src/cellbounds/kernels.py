"""Hot-loop kernels: Matern thinning, same-mark separation, power-law sums.

Neighbour searches run on a grid of cells in numpy alone: columns at
least the search radius w wide, cut into sub-rows w/3 high.  A point is
tested against the points of 3.5 w^2 around it, where square cells of
side w took 4.5 w^2 (see :func:`_close_pairs`).  The cell ids are sorted
by numpy's O(n) radix sort where they fit in 16 bits.  Every distance
that decides a result is computed from the coordinates as
``dx*dx + dy*dy``, so masks and minima equal those of the direct O(n^2)
rule bit for bit.  Power-law sums take squared distances from the
receiver, as :func:`sq_dists` computes them.

:func:`matern_keep_mask` thins several independent samples in one call
when each point carries the label of its sample: the label is part of the
cell id, so points of different samples are never paired, and the fixed
cost of a call (about 90 us) is paid once per group of samples instead
of once per sample.  :meth:`cellbounds.pointset.MaternSource.groups`
fills each group up to a budget of Poisson points, each sample drawn
from the ready PCG64 seeding words of its ``(words, near)`` draw.  :func:`min_same_mark_sq_dist`
labels the points by mark the same way, so all marks are searched at once.

A call writes few pages, and later batches and calls write the same ones:
it keeps the sort order and the bounds of each point's two runs, takes the
coordinates from the caller's array instead of a sorted copy, and tests
candidate pairs in batches whose arrays stay far below glibc's mmap
threshold, which importing this module raises from 128 KiB to 2 MiB.
Arrays above it are mapped afresh each time, one page fault per 4 KiB,
and a forked ``verify`` worker pays a copy on its first write to each page
it shares with its parent.
"""

from __future__ import annotations

import math

import numpy as np

# Relative inflation of the grid's cell side over the search radius, so that
# no pair inside the exact radius lands two columns or four sub-rows apart
# through the rounding of its scaled coordinates; the exact test follows.
_SEARCH_SLACK = 1e-9
# Columns at most, and cell sides per column, so that scaled coordinates
# stay below _SUBROWS * 2**20 and round by less than the slack (see
# _cell_runs).
_MAX_CELLS_PER_AXIS = 2 ** 20
# Sub-rows per cell: each column of the grid, one cell side wide, is cut
# into rows of a third of the side, so a point's candidates cover 3.5 side^2
# around it where whole cells covered 4.5 (the half-disc it looks for is
# about 1.57 side^2).
_SUBROWS = 3
# Blocks of cells, one per sample label, that share the cell budget of one
# unlabelled cloud before the cells grow; a group of local ball samples
# (about 25 labels, 4,000 points over a 108 x 108 window) then keeps cells
# of the search radius, about 14 sub-row cells per point in all.
_LABEL_BLOCKS = 8
# Candidate pairs tested at once.  A batch bounds the memory of a call
# where many points share a cell (a tight cluster), and its arrays, the
# largest of them the 64 KiB of coordinates of one side of the pairs, stay
# in L2 and far below the mmap threshold raised below, so the allocator
# reuses the heap pages the batch before freed.  1 << 11 makes
# verify-acceptance slower; 1 << 13 thins about 8% faster but raises the
# peak RSS of verify-wide by about 0.2 MB.
_BATCH = 1 << 12

# glibc gives the top of its heap back to the system once more than its
# trim threshold, at first 128 KiB, lies free there.  A thinning call frees
# a few hundred KiB, so whether the next call faulted them in again hung
# on the heap's layout, which any import could shift.  Freeing a block
# that glibc mapped on its own raises the threshold to twice the block's
# size (the dynamic mmap threshold of mallopt(3)).  The block is never
# written, so it costs no memory; elsewhere it is one allocation.
np.empty(1 << 21, dtype=np.uint8)


def _points(points) -> np.ndarray:
    # contiguous rows, so that taking rows never copies the whole array
    return np.ascontiguousarray(points, dtype=np.float64).reshape(-1, 2)


def sq_dists(points: np.ndarray, others, out=None) -> np.ndarray:
    """``dx*dx + dy*dy`` from each row of ``points`` to the same row of
    ``others``, or to the one point ``others``.

    The values equal ``((points - others) ** 2).sum(axis=1)`` bit for bit.
    The coordinate differences are written to ``out`` if given, which may
    be ``points`` itself.
    """
    d = np.subtract(points, others, out=out)
    d *= d
    return d[:, 0] + d[:, 1]


def _pair_sq_dists(pts: np.ndarray, i: np.ndarray, j: np.ndarray):
    """:func:`sq_dists` from the rows ``i`` of ``pts`` to its rows ``j``,
    with the differences written over the copy of the rows ``i``."""
    rows = pts.take(i, axis=0)
    return sq_dists(rows, pts.take(j, axis=0), out=rows)


def _extent(pts: np.ndarray):
    """Lower-left corner, width and height of the points' bounding box."""
    x, y = pts[:, 0], pts[:, 1]
    xmin, ymin = x.min(), y.min()
    width, height = float(x.max() - xmin), float(y.max() - ymin)
    if not math.isfinite(width + height):
        raise ValueError("points must be finite")
    return xmin, ymin, width, height


def _cell_runs(pts: np.ndarray, radius: float, cloud: np.ndarray):
    """The order that sorts the points into cells by the required labels
    ``cloud`` (see :func:`_close_pairs`), and two runs per point.

    Returns ``order, own_end, next_begin, next_end``: the point at sorted
    position ``p`` is paired with positions ``p + 1`` to ``own_end[p]``,
    the later points of its own sub-row and of the ``_SUBROWS`` sub-rows
    above it, and with positions ``next_begin[p]`` to ``next_end[p]``, the
    sub-rows of the next column from ``_SUBROWS`` below its own to
    ``_SUBROWS`` above (ends exclusive).

    The columns are ``side >= radius * (1 + _SEARCH_SLACK)`` wide and the
    sub-rows ``side / _SUBROWS`` high, so the offsets of a close pair,
    scaled by them, are below 1 by 1e-9 and below ``_SUBROWS`` by 3e-9.
    The side allows at most ``_MAX_CELLS_PER_AXIS`` columns and
    ``_SUBROWS`` times as many sub-rows, so the scaled coordinates stay
    below ``_SUBROWS * 2**20``.  Each comes from a subtraction and a
    division rounded to 53 bits, so it is off by at most ``3 * 2**-32``
    (7e-10), and a pair's offset by twice that.  A close pair therefore
    lies in one column or in two adjacent ones, and at most ``_SUBROWS``
    sub-rows apart.
    """
    n = pts.shape[0]
    xmin, ymin, width, height = _extent(pts)
    labels = int(cloud.max()) + 1
    # each sparse term bounds the cells of all the labels' blocks together
    spread = max(1.0, labels / _LABEL_BLOCKS)
    side = max(radius * (1 + _SEARCH_SLACK),
               math.sqrt(spread * width * height / n),
               spread * max(width, height) / min(n, _MAX_CELLS_PER_AXIS))
    sub = side / _SUBROWS
    # cells are numbered up the columns; _SUBROWS empty sub-rows on top of
    # each column and an empty column on the right make every stencil cell
    # exist, and keep the stencil inside its label's block.  The row count
    # and the points' sub-rows divide by the same sub, so the top point's
    # sub-row is int(height / sub) exactly; another expression, such as
    # height * _SUBROWS / side, can floor one higher and index past them
    rows = int(height / sub) + 1 + _SUBROWS
    block = (int(width / side) + 2) * rows
    cells = block * labels
    cell = ((pts[:, 0] - xmin) / side).astype(np.intp)
    cell *= rows
    cell += ((pts[:, 1] - ymin) / sub).astype(np.intp)
    cell += cloud * block
    order = _cell_order(cell, cells)
    cell = cell.take(order)
    # start[c], the sorted position of cell c's first point, counts the
    # points of the cells below c: one array of cells + 1 entries
    start = np.bincount(cell + 1, minlength=cells + 1)
    np.cumsum(start, out=start)
    return (order, start.take(cell + (_SUBROWS + 1)),
            start.take(cell + (rows - _SUBROWS)),
            start.take(cell + (rows + _SUBROWS + 1)))


def _cell_order(cell: np.ndarray, cells: int) -> np.ndarray:
    """The order that sorts the cell ids ``cell``, all below ``cells``:
    numpy's O(n) radix sort of a 16-bit copy where the ids fit, its
    default sort otherwise.  Neither order within a cell changes a result."""
    if cells <= 1 << 16:
        return cell.astype(np.uint16).argsort(kind="stable")
    return cell.argsort()


def _close_pairs(pts: np.ndarray, radius: float, cloud: np.ndarray):
    """Index arrays ``(i, j)`` of the pairs of points closer than radius.

    Yields the pairs in batches: each unordered pair with
    ``dx*dx + dy*dy < radius*radius`` appears once, in either orientation.
    The points are sorted into columns of width at least ``radius``, each
    cut into sub-rows a third of that high, so a close pair lies in
    one column or two adjacent ones and at most three sub-rows apart (see
    :func:`_cell_runs`).  Each point is paired with the later points of its
    own sub-row and with the points of the three sub-rows above it and of
    the seven sub-rows of the next column around its own.  The width grows
    for clouds sparse relative to the radius, so that there are about 3n
    cells in a square cloud and never more than about 9n.

    Candidate pairs are tested in batches of about ``_BATCH``, so each
    batch's arrays are a few pages that the next batch, and the next call,
    write again.  Memory stays bounded even where many points share a cell
    (a tight cluster far from other points); the time then grows with the
    square of the cluster's size.

    ``cloud``, which is required, is an intp array of labels in
    ``0..n-1``, one per point; a single cloud is all zeros.  It gives each
    label a block of cells of its own, so that only points of the same
    label are paired.  Up to ``_LABEL_BLOCKS`` labels share the cell budget
    of one cloud; more labels widen the cells, keeping the total at about
    ``3 * _LABEL_BLOCKS`` cells per point in a square cloud.
    """
    n = pts.shape[0]
    if n < 2 or not radius > 0:
        return
    order, own_end, next_begin, next_end = _cell_runs(pts, radius, cloud)
    for begin, length in ((np.arange(1, n + 1), own_end),
                          (next_begin, next_end)):
        length -= begin
        for lo, hi in _batch_cuts(length):
            count = length[lo:hi]
            i = order[lo:hi].repeat(count)
            # candidate k of the batch lies in the run of point p at sorted
            # position k - skew[p], skew[p] counting the batch's candidates
            # before that run less begin[p]
            skew = np.cumsum(count)
            skew -= count
            skew -= begin[lo:hi]
            j = np.arange(i.shape[0])
            j -= skew.repeat(count)
            j = order.take(j)
            close = _pair_sq_dists(pts, i, j) < radius * radius
            yield i.compress(close), j.compress(close)


def _batch_cuts(length: np.ndarray):
    """Consecutive ``(lo, hi)`` ranges of runs of the given lengths, each
    with about ``_BATCH`` candidates or a single longer run."""
    ends = np.cumsum(length, dtype=np.int64)
    cuts = np.searchsorted(ends, np.arange(_BATCH, ends[-1], _BATCH))
    cuts = sorted({0, length.shape[0], *cuts.tolist()})
    return zip(cuts, cuts[1:])


def matern_keep_mask(points, ages, radius: float, cloud=None) -> np.ndarray:
    """Boolean retention mask of the Matern type-II thinning.

    A point is kept iff no point of smaller age lies strictly within
    ``radius`` of it; equal ages rank the smaller index as older.

    With ``cloud``, one non-negative integer label per point, each label
    is thinned as a sample of its own: a point is only ever removed by a
    point with the same label.  The mask then equals, bit for bit, the
    masks of the labels' points thinned in separate calls, in whatever
    order the labels are given.
    """
    pts = _points(points)
    radius = float(radius)
    if math.isnan(radius):
        raise ValueError("radius must not be NaN")
    age = np.asarray(ages, dtype=np.float64).reshape(-1)
    if age.shape[0] != pts.shape[0]:
        raise ValueError("ages and points must have equal length")
    if cloud is None:  # one sample
        cloud = np.zeros(pts.shape[0], dtype=np.intp)
    cloud = np.asarray(cloud).reshape(-1)
    if cloud.shape[0] != pts.shape[0]:
        raise ValueError("cloud labels and points must have equal length")
    if cloud.shape[0]:
        if cloud.dtype.kind not in "iu" or cloud.min() < 0:
            raise ValueError("cloud labels must be non-negative integers")
        if cloud.max() >= cloud.shape[0]:  # one block per label in use
            cloud = np.unique(cloud, return_inverse=True)[1].reshape(-1)
    cloud = cloud.astype(np.intp, copy=False)
    keep = np.ones(pts.shape[0], dtype=bool)
    for a, b in _close_pairs(pts, radius, cloud):
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
    # one label per mark, as matern_keep_mask labels its samples; the
    # inverse is reshaped, as numpy 1.24 and 2.x give it different shapes
    distinct, label = np.unique(mk, return_inverse=True)
    if distinct.shape[0] == mk.shape[0]:  # no mark has two points
        return math.inf
    _, _, width, height = _extent(pts)
    # start from the mean spacing and double until some pair is closer:
    # every pair left out is then farther apart than one found
    n = pts.shape[0]
    radius = max(math.sqrt(width * height / n), (width + height) / n)
    if radius == 0.0:  # all points coincide
        return 0.0
    found = math.inf
    while found == math.inf:
        for i, j in _close_pairs(pts, radius, label.reshape(-1)):
            d2 = _pair_sq_dists(pts, i, j)
            found = float(d2.min(initial=found))
        if radius == math.inf:  # every squared distance overflows
            break
        radius *= 2
    return found


def bounded_power_law_sum(sq_dists, alpha: float, exclude: int = -1) -> float:
    """Sum of min(1, d^-alpha) over the squared distances d^2 of
    ``sq_dists``, skipping the one at ``exclude``."""
    d2 = np.asarray(sq_dists, dtype=np.float64).reshape(-1)
    att = np.ones_like(d2)
    far = d2 > 1.0
    att[far] = d2[far] ** (-0.5 * float(alpha))
    total = float(att.sum())
    if 0 <= exclude < att.shape[0]:
        total -= float(att[exclude])
    return total
