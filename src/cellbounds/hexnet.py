"""Guarantees for the hexagonal (triangular-lattice) network.

The reuse-k colorings of :data:`REUSE` mark the sites of a triangular
lattice with hexagon edge length a so that same-mark sites are at least
2*h_k apart: 2*h_1 = sqrt(3)*a (all sites), 2*h_3 = 3*a and 2*h_4 =
2*sqrt(3)*a.  The worst-case user sits at a cell vertex, i.e. at
distance d = a from its serving site.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .guarantees import link_at_snr, rate_always_active, rate_scheduled
from .pathloss import BoundedPowerLaw


class Reuse(NamedTuple):
    """A reuse-k coloring: h_k / a, and the mark in 1..k of lattice site
    (i, j) (see :func:`cellbounds.pointset.gen_triangular_lattice`) as a
    function of integers or of integer arrays."""

    hardcore_per_edge: float
    mark: Callable


# Every shipped coloring, by its reuse factor k.
REUSE = {
    1: Reuse(math.sqrt(3.0) / 2, lambda i, j: 0 * i + 1),
    3: Reuse(1.5, lambda i, j: (i + 2 * j) % 3 + 1),
    4: Reuse(math.sqrt(3.0), lambda i, j: 2 * (i % 2) + (j % 2) + 1),
}


class UnsupportedReuseError(ValueError):
    """Requested reuse factor has no shipped lattice coloring."""


def reuse(k: int) -> Reuse:
    """The reuse-k coloring of :data:`REUSE`."""
    try:
        return REUSE[k]
    except KeyError:
        raise UnsupportedReuseError(f"no reuse-{k} coloring available") from None


def hardcore_for_reuse(a: float, k: int) -> float:
    """Hardcore half-distance h_k of the reuse-k coloring, edge length a."""
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"edge length must be positive and finite, got {a}")
    return reuse(k).hardcore_per_edge * a


class HexRatePoint(NamedTuple):
    snr_db: float
    rate_aa: float
    rate_k3: float
    rate_k4: float


def hex_rate_sweep(a: float, power: float, model: BoundedPowerLaw,
                   snr_db_grid, log_base: str = "nat") -> list[HexRatePoint]:
    """Worst-case rate guarantees vs SNR for always-active, reuse-3, reuse-4.

    The sweep variable is the vertex-user SNR; the noise power is derived
    as W = P*l(a)/SNR for each grid point.
    """
    h1 = hardcore_for_reuse(a, 1)
    h3 = hardcore_for_reuse(a, 3)
    h4 = hardcore_for_reuse(a, 4)
    rows = []
    for snr_db in snr_db_grid:
        link = link_at_snr(power, a, model, snr_db)
        rows.append(HexRatePoint(
            float(snr_db),
            rate_always_active(link, h1, log_base),
            rate_scheduled(link, 3, h3, log_base),
            rate_scheduled(link, 4, h4, log_base),
        ))
    return rows
