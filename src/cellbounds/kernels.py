"""Hot-loop kernels: Matern thinning, same-mark separation, power-law sums.

Neighbour searches go through ``scipy.spatial.cKDTree``; every distance
that decides a result is then recomputed from the coordinates as
``dx*dx + dy*dy``, so masks and minima equal those of the direct O(n^2)
rule bit for bit.

``scipy.spatial`` is imported inside the two functions that search, so
the analytic CLI commands, which never sample, do not pay for loading it;
after the first call the import is a ``sys.modules`` lookup.
"""

from __future__ import annotations

import numpy as np

# Relative inflation of the tree's search radius, so that no pair inside the
# exact radius is lost to the tree's own rounding; the exact test follows.
_SEARCH_SLACK = 1e-9


def _points(points) -> np.ndarray:
    return np.asarray(points, dtype=np.float64).reshape(-1, 2)


def _sq_dist(pts: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    dx = pts[i, 0] - pts[j, 0]
    dy = pts[i, 1] - pts[j, 1]
    return dx * dx + dy * dy


def matern_keep_mask(points, ages, radius: float) -> np.ndarray:
    """Boolean retention mask of the Matern type-II thinning.

    A point is kept iff no point of smaller age lies strictly within
    ``radius`` of it; equal ages rank the smaller index as older.
    """
    from scipy.spatial import cKDTree

    pts = _points(points)
    age = np.asarray(ages, dtype=np.float64).reshape(-1)
    if age.shape[0] != pts.shape[0]:
        raise ValueError("ages and points must have equal length")
    keep = np.ones(pts.shape[0], dtype=bool)
    radius = float(radius)
    # the pair set does not depend on the tree's shape, and an unbalanced
    # tree is built in about half the time
    pairs = cKDTree(pts, balanced_tree=False).query_pairs(
        radius * (1 + _SEARCH_SLACK), output_type="ndarray")
    # query_pairs yields each unordered pair once, with i < j, so clearing
    # j on equal ages ranks the smaller index as older
    i, j = pairs[:, 0], pairs[:, 1]
    close = _sq_dist(pts, i, j) < radius * radius
    i, j = i[close], j[close]
    keep[np.where(age[j] < age[i], i, j)] = False
    return keep


def min_same_mark_sq_dist(points, marks) -> float:
    """Smallest squared distance among same-mark pairs; inf if none exist."""
    from scipy.spatial import cKDTree

    pts = _points(points)
    mk = np.asarray(marks, dtype=np.int64).reshape(-1)
    if mk.shape[0] != pts.shape[0]:
        raise ValueError("marks and points must have equal length")
    best = np.inf
    for m in np.unique(mk):
        sub = pts[mk == m]
        if sub.shape[0] < 2:
            continue
        # each point's two nearest hold itself and its nearest other point,
        # unless coincident points tie with it: then the other one of the
        # two is at distance zero either way
        _, nbr = cKDTree(sub).query(sub, k=2)
        own = np.arange(sub.shape[0])
        other = np.where(nbr[:, 1] != own, nbr[:, 1], nbr[:, 0])
        best = min(best, float(_sq_dist(sub, own, other).min()))
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
