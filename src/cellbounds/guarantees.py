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
import operator
import sys
from collections import namedtuple

from .bounds import interference_bound
from .pathloss import BoundedPowerLaw

_BRACKET_CAP = 2 ** 40
_BISECT_REL_TOL = 1e-13


class InfeasibleError(ValueError):
    """Requested guarantee cannot be met with the given parameters."""


def _check_classes(k: int) -> None:
    try:  # an int or numpy integer; a float, even 3.0, raises TypeError
        if operator.index(k) >= 1:
            return
    except TypeError:
        pass
    raise ValueError("k must be a positive integer")


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

    It is computed divided through by P, as l(d) / (bound + W/P), as
    P * bound overflows for large finite P.  Where the bound is 0 and W/P
    underflows, theta is the SNR.  A subnormal theta, which may round above
    the true quotient, is a ValueError, as is 0.
    """
    bound = interference_bound(link.model, h, link.distance)
    gain = link.model.eval(link.distance)
    denom = bound + link.noise / link.power
    th = gain / denom if denom else link.snr
    if th < sys.float_info.min:
        raise ValueError(
            f"the SINR bound at h = {h} is {th:.3g}, below "
            f"{sys.float_info.min:.3g}: attenuation {gain:.3g}, "
            f"interference bound {bound:.3g} and noise-to-power ratio "
            f"{link.noise / link.power:.3g}")
    return th


def rate_always_active(link: LinkBudget, h: float,
                       log_base: str = "nat") -> float:
    """Normalized-rate guarantee log(1 + theta(P, h)) when every
    transmitter is always on."""
    return _log1p_base(theta(link, h), log_base)


def rate_scheduled(link: LinkBudget, k: int, h_k: float,
                   log_base: str = "nat") -> float:
    """Normalized-rate guarantee (1/k) log(1 + theta(P, h_k)) under periodic
    scheduling into k classes."""
    _check_classes(k)
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
    _check_classes(k)
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


def _needed_sir(th: float, k: int) -> float:
    """SIR (1 + th)^k - 1 that k classes need to match the SINR th."""
    try:
        needed = (1 + th) ** k - 1
    except OverflowError:  # in the limit the SIR is infinite: no power does
        return math.inf
    # below th = 2**-53, 1 + th rounds to 1 and the power form to 0
    return needed or math.expm1(k * math.log1p(th))


def critical_power(link: LinkBudget, h: float, k: int, h_k: float) -> float:
    """Reduced power matching the always-active guarantee under scheduling.

        P_k* = W / ( l(d)/((1 + theta(P, h))^k - 1)
                     - interference_bound(l, h_k, d) )

    Feasible (P_k* <= P) exactly when h_k is at least the critical
    separation h_k*; a non-positive denominator means the separation h_k
    cannot reach the target at any power, and an infinite needed SIR that
    no separation can; each is an InfeasibleError.  It is the one-point
    case of :func:`_critical_power_grid`.
    """
    ((_, _, power),) = _critical_power_grid(link, h, [k], [h_k])
    if power is not None:
        return power
    if _needed_sir(theta(link, h), k) == math.inf:
        raise InfeasibleError(
            f"no power and no h_k reach the always-active rate at k = {k}: "
            "it needs an infinite SIR")
    raise InfeasibleError(
        f"at h_k = {h_k} no power reaches the always-active rate")


def _critical_power_grid(link: LinkBudget, h: float, ks, hk_grid):
    """Rows (k, h_k, P_k*) for each k of ks and each h_k of the list
    hk_grid: P_k* is W over the denominator of :func:`critical_power` where
    that is positive, and None where no power reaches.

    theta(P, h) is computed once, and each h_k's interference bound once
    for every k, both after the first k is checked, so an invalid k, h or
    h_k raises what the first failing point would.  An empty grid makes no
    call, so it yields nothing and checks nothing.
    """
    if not hk_grid:
        return
    bounds = None
    for k in ks:
        _check_classes(k)
        if bounds is None:
            th = theta(link, h)
            bounds = [interference_bound(link.model, h_k, link.distance)
                      for h_k in hk_grid]
        needed_sir = _needed_sir(th, k)
        gain = link.model.eval(link.distance) / needed_sir
        for h_k, bound in zip(hk_grid, bounds):
            denom = gain - bound  # <= 0 if needed_sir is inf, as gain is 0
            yield k, h_k, link.noise / denom if denom > 0 else None
