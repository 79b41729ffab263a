"""Guarantees for the hexagonal (triangular-lattice) network.

Sites on a triangular lattice with hexagon edge length a satisfy the
hardcore separations

    k = 1 (all sites):        2*h_1 = sqrt(3)*a
    k = 3 (reuse-3 classes):  2*h_3 = 3*a
    k = 4 (reuse-4 classes):  2*h_4 = 2*sqrt(3)*a

and the worst-case user sits at a cell vertex, i.e. at distance d = a
from its serving site.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .guarantees import LinkBudget, rate_always_active, rate_scheduled
from .pathloss import BoundedPowerLaw

_HARDCORE_PER_EDGE = {1: math.sqrt(3.0) / 2, 3: 1.5, 4: math.sqrt(3.0)}


class UnsupportedReuseError(ValueError):
    """Requested reuse factor has no shipped lattice coloring."""


def hardcore_for_reuse(a: float, k: int) -> float:
    """Hardcore half-distance h_k of the reuse-k coloring, edge length a."""
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"edge length must be positive and finite, got {a}")
    try:
        return _HARDCORE_PER_EDGE[k] * a
    except KeyError:
        raise UnsupportedReuseError(f"no reuse-{k} coloring available") from None


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
    signal = power * model.eval(a)
    rows = []
    for snr_db in snr_db_grid:
        snr = 10.0 ** (snr_db / 10.0)
        link = LinkBudget(power, signal / snr, a, model)
        rows.append(HexRatePoint(
            float(snr_db),
            rate_always_active(link, h1, log_base).rate,
            rate_scheduled(link, 3, h3, log_base).rate,
            rate_scheduled(link, 4, h4, log_base).rate,
        ))
    return rows
