"""SINR and normalized-rate guarantees, critical separation, reduced power.

Always-active operation over an h-hardcore deployment guarantees every
link SINR >= theta(P, h) and normalized rate log(1 + theta(P, h)).
Scheduling the transmitters into k classes with same-class gap 2*h_k
trades a 1/k slot share for the larger separation:

    rate >= (1/k) log(1 + theta(P, h_k)).

`solve_critical_hk` finds the separation h_k* at which the two guarantees
tie, and `critical_power` the reduced transmit power that preserves the
always-active guarantee once h_k >= h_k*.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .bounds import interference_bound
from .pathloss import BoundedPowerLaw

_BRACKET_CAP = 2 ** 40
_BISECT_REL_TOL = 1e-13


class InfeasibleError(ValueError):
    """Requested guarantee cannot be met with the given parameters."""


def _log1p_base(x: float, log_base: str) -> float:
    if log_base == "nat":
        return math.log1p(x)
    if log_base == "2":
        return math.log1p(x) / math.log(2.0)
    raise ValueError(f"unknown log base {log_base!r} (use 'nat' or '2')")


class LinkBudget(namedtuple("LinkBudget", "power noise distance model")):
    """Transmit power, noise power and serving distance of the studied link."""

    __slots__ = ()

    def __new__(cls, power: float, noise: float, distance: float,
                model: BoundedPowerLaw):
        if not (math.isfinite(power) and power > 0):
            raise ValueError("transmit power must be positive and finite")
        if not (math.isfinite(noise) and noise >= 0):
            raise ValueError("noise power must be positive and finite")
        if not (math.isfinite(distance) and distance >= 0):
            raise ValueError(
                "serving distance must be non-negative and finite")
        # subnormal powers keep too few bits: the rates, which depend only
        # on the SNR and the geometry, would drift with P and the scale
        signal = power * model.eval(distance)
        if min(power, signal, noise) < sys.float_info.min:
            raise ValueError(
                f"power {power} at distance {distance} gives "
                f"signal power {signal:.3g} and noise power "
                f"{noise:.3g}; each must be at least "
                f"{sys.float_info.min:.3g}")
        return super().__new__(cls, power, noise, distance, model)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @property
    def snr(self) -> float:
        return self.power * self.model.eval(self.distance) / self.noise


def link_at_snr(power: float, distance: float, model: BoundedPowerLaw,
                snr_db: float) -> LinkBudget:
    """The link whose SNR is ``snr_db`` decibels: its noise power is
    W = P l(d) / 10^(snr_db/10)."""
    try:
        snr = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        snr = math.inf
    if not 0 < snr < math.inf:  # also a NaN SNR
        raise ValueError(f"an SNR of {snr_db} dB is out of float range")
    return LinkBudget(power, power * model.eval(distance) / snr, distance,
                      model)


def theta(link: LinkBudget, h: float) -> float:
    """Worst-case SINR of the link under h-hardcore regulation.

        theta = P l(d) / (P * interference_bound(l, h, d) + W)
    """
    bound = interference_bound(link.model, h, link.distance)
    signal = link.power * link.model.eval(link.distance)
    return signal / (link.power * bound + link.noise)


def rate_always_active(link: LinkBudget, h: float,
                       log_base: str = "nat") -> float:
    """Normalized-rate guarantee log(1 + theta(P, h)) when every
    transmitter is always on."""
    return _log1p_base(theta(link, h), log_base)


def rate_scheduled(link: LinkBudget, k: int, h_k: float,
                   log_base: str = "nat") -> float:
    """Normalized-rate guarantee (1/k) log(1 + theta(P, h_k)) under periodic
    scheduling into k classes."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return _log1p_base(theta(link, h_k), log_base) / k


def criticality_feasible(link: LinkBudget, h: float, k: int) -> bool:
    """Whether a critical separation h_k* exists for this link and k.

    Requires log(1 + SNR) >= k * log(1 + theta(P, h)): even infinite
    separation cannot push the scheduled guarantee past the SNR ceiling.
    """
    return math.log1p(link.snr) >= k * math.log1p(theta(link, h))


def solve_critical_hk(link: LinkBudget, h: float, k: int) -> float:
    """Separation h_k* where scheduling ties the always-active guarantee.

    Solves (1/k) log(1 + theta(P, h_k)) = log(1 + theta(P, h)) for h_k by
    bisection; theta is strictly increasing in h_k so the root is unique.
    The equation is independent of the logarithm base.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not criticality_feasible(link, h, k):
        raise InfeasibleError(
            f"no critical separation: log(1+SNR) < {k} * log(1+theta)")
    target = k * math.log1p(theta(link, h))

    def gap(h_k: float) -> float:
        return math.log1p(theta(link, h_k)) - target

    if gap(h) >= 0:  # k = 1, or h already critical
        return h
    hi = 2 * h
    while gap(hi) < 0:
        hi *= 2
        if hi > _BRACKET_CAP * h:
            raise RuntimeError("bracket expansion exceeded its cap; "
                               "the critical separation is out of reach")
    lo = max(h, hi / 2)
    while hi - lo > _BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # float resolution reached
            break
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_power(link: LinkBudget, h: float, k: int, h_k: float) -> float:
    """Reduced power matching the always-active guarantee under scheduling.

        P_k* = W / ( l(d)/((1 + theta(P, h))^k - 1)
                     - interference_bound(l, h_k, d) )

    Feasible (P_k* <= P) exactly when h_k is at least the critical
    separation h_k*; a non-positive denominator means the separation h_k
    cannot reach the target at any power, and an infinite needed SIR that
    no separation can.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    th = theta(link, h)
    try:
        needed_sir = (1 + th) ** k - 1
    except OverflowError:  # in the limit the SIR is infinite: no power does
        needed_sir = math.inf
    denom = (link.model.eval(link.distance) / needed_sir
             - interference_bound(link.model, h_k, link.distance))
    if needed_sir == math.inf:
        raise InfeasibleError(
            f"no power and no h_k reach the always-active rate at k = {k}: "
            "it needs an infinite SIR")
    if denom <= 0:
        raise InfeasibleError(
            f"at h_k = {h_k} no power reaches the always-active rate")
    return link.noise / denom
