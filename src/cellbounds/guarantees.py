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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power, noise power and serving distance of the studied link."""

    power: float
    noise: float
    distance: float
    model: BoundedPowerLaw

    def __post_init__(self):
        if not (math.isfinite(self.power) and self.power > 0):
            raise ValueError("transmit power must be positive and finite")
        if not (math.isfinite(self.noise) and self.noise > 0):
            raise ValueError("noise power must be positive and finite")
        if not (math.isfinite(self.distance) and self.distance >= 0):
            raise ValueError(
                "serving distance must be non-negative and finite")

    @property
    def snr(self) -> float:
        return self.power * self.model.eval(self.distance) / self.noise

    def scaled(self, power: float) -> "LinkBudget":
        """Same link with a different transmit power."""
        return LinkBudget(power, self.noise, self.distance, self.model)


@dataclass(frozen=True)
class RateGuarantee:
    """Guaranteed SINR and the normalized rate it implies."""

    k: int
    theta: float
    rate: float
    log_base: str = "nat"


@dataclass(frozen=True)
class CriticalPower:
    """Reduced transmit power preserving the always-active guarantee."""

    p_k_star: float
    feasible: bool  # p_k_star <= the full power it was derived from


def theta(link: LinkBudget, h: float) -> float:
    """Worst-case SINR of the link under h-hardcore regulation.

        theta = P l(d) / (P * interference_bound(l, h, d) + W)
    """
    bound = interference_bound(link.model, h, link.distance)
    signal = link.power * link.model.eval(link.distance)
    return signal / (link.power * bound + link.noise)


def rate_always_active(link: LinkBudget, h: float,
                       log_base: str = "nat") -> RateGuarantee:
    """Normalized-rate guarantee when every transmitter is always on."""
    th = theta(link, h)
    return RateGuarantee(1, th, _log1p_base(th, log_base), log_base)


def rate_scheduled(link: LinkBudget, k: int, h_k: float,
                   log_base: str = "nat") -> RateGuarantee:
    """Normalized-rate guarantee under periodic scheduling into k classes."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    th = theta(link, h_k)
    return RateGuarantee(k, th, _log1p_base(th, log_base) / k, log_base)


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


def critical_power(link: LinkBudget, h: float, k: int, h_k: float) -> CriticalPower:
    """Reduced power matching the always-active guarantee under scheduling.

        P_k* = W / ( l(d)/((1 + theta(P, h))^k - 1)
                     - interference_bound(l, h_k, d) )

    Feasible (P_k* <= P) exactly when h_k is at least the critical
    separation h_k*; a non-positive denominator means the separation h_k
    cannot reach the target at any power.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    th = theta(link, h)
    needed_sir = (1 + th) ** k - 1
    denom = (link.model.eval(link.distance) / needed_sir
             - interference_bound(link.model, h_k, link.distance))
    if denom <= 0:
        raise InfeasibleError(
            f"h_k = {h_k} is below the critical separation: the scheduled "
            "guarantee cannot reach the always-active rate at any power")
    p_star = link.noise / denom
    return CriticalPower(p_star, feasible=p_star <= link.power)
