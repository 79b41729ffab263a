"""Almost-sure interference bounds for hardcore-regulated transmitter sets.

Any process whose points are pairwise at least 2h apart puts at most
1 + rho_h R + nu_h R^2 points in any ball of radius R, where

    rho_h = 2 pi / (sqrt(12) h),      nu_h = pi / (sqrt(12) h^2).

Feeding this quadratic envelope through a Stieltjes-type estimate of the
attenuated sum gives a worst-case bound on the total interference seen at
the origin.  With nearest-transmitter association at distance d, the disc
of radius t = max(d, 2h - d) around the receiver is interferer-free, which
tightens the bound; `interference_bound` exploits it, `legacy_bound`
(kept for comparison) does not.

Two independent evaluation routes are provided on purpose:
``interference_bound`` goes through the exact tail integrals of the model,
while ``conditional_bound_general`` integrates numerically against an
arbitrary quadratic envelope.  They must agree; tests enforce it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pathloss import BoundedPowerLaw

SQRT12 = math.sqrt(12.0)

_QUAD_OPTS = {"epsabs": 1e-12, "epsrel": 1e-10, "limit": 200}


@dataclass(frozen=True)
class BallRegulation:
    """Quadratic envelope sigma + rho*R + nu*R^2 on counts in balls of radius R."""

    sigma: float
    rho: float
    nu: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.sigma, self.rho, self.nu))):
            raise ValueError(
                f"envelope coefficients must be finite, got {self}")
        if self.sigma < 0 or self.rho < 0:
            raise ValueError("sigma and rho must be non-negative")
        if self.nu <= 0:
            raise ValueError("nu must be positive")

    def count_bound(self, radius: float) -> float:
        return self.sigma + self.rho * radius + self.nu * radius * radius

    __call__ = count_bound

    def slope(self, radius: float) -> float:
        return self.rho + 2 * self.nu * radius

    def without_sigma(self) -> "BallRegulation":
        """Envelope with the constant term dropped (no associated transmitter)."""
        return BallRegulation(0.0, self.rho, self.nu)


def hardcore_regulation_constants(h: float) -> BallRegulation:
    """Ball-count envelope (1, rho_h, nu_h) of a process with pairwise gap 2h."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(
            f"hardcore half-distance must be positive and finite, got {h}")
    return BallRegulation(1.0, 2 * math.pi / (SQRT12 * h),
                          math.pi / (SQRT12 * h * h))


def exclusion_radius(d: float, h: float) -> float:
    """Radius t = max(d, 2h - d) of the interferer-free disc at the receiver.

    b(o, d) is empty of interferers by nearest-transmitter association and
    b(x0, 2h) by the hardcore gap around the serving transmitter x0.
    """
    if not (math.isfinite(d) and d >= 0):
        raise ValueError(
            f"serving distance must be non-negative and finite, got {d}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(
            f"hardcore half-distance must be positive and finite, got {h}")
    return max(d, 2 * h - d)


def shot_noise_bound(model: BoundedPowerLaw, h: float) -> float:
    """A.s. bound on sum of l(|x|) over an h-hardcore process in the plane.

    Equals l(0) + rho_h * int_0^inf l + 2 nu_h * int_0^inf r l, which
    requires the tail integrals to converge (alpha > 2).
    """
    reg = hardcore_regulation_constants(h)
    return (model.eval(0.0)
            + reg.rho * model.tail_integral(0.0)
            + 2 * reg.nu * model.weighted_tail_integral(0.0))


def conditional_bound_general(model: BoundedPowerLaw, envelope: BallRegulation,
                              t: float, radius: float = math.inf) -> float:
    """A.s. bound on the attenuated sum outside the exclusion disc b(o, t).

    For any envelope G with count(b(o,R) minus exclusion) <= G(R), the sum
    of l(|x|) over b(o, radius) outside the exclusion region is at most

        -int_t^R G(r) l'(r) dr + l(R) G(R)
          = l(t) G(t) + int_t^R l(r) G'(r) dr,

    evaluated here in the integration-by-parts form with adaptive
    quadrature, split at the model's non-smooth radii.
    """
    from scipy.integrate import quad

    if t < 0:
        raise ValueError("exclusion radius must be non-negative")
    if radius < t:
        raise ValueError("outer radius must be at least the exclusion radius")
    boundary = model.eval(t) * envelope.count_bound(t)
    if radius == t:
        return boundary

    def integrand(r):
        return model.eval(r) * envelope.slope(r)

    cuts = sorted(b for b in model.quad_breakpoints if t < b < radius)
    total = 0.0
    lo = t
    for b in cuts:
        total += quad(integrand, lo, b, **_QUAD_OPTS)[0]
        lo = b
    total += quad(integrand, lo, radius, **_QUAD_OPTS)[0]
    return boundary + total


def interference_bound(model: BoundedPowerLaw, h: float, d: float) -> float:
    """A.s. bound on total interference at a receiver served from distance d.

    Specializes the conditional bound to the quadratic envelope
    G(R) = rho_h R + nu_h R^2 (sigma dropped: the serving transmitter is
    not an interferer) and the infinite outer radius:

        l(t) (rho_h t + nu_h t^2)
          + rho_h int_t^inf l(r) dr + 2 nu_h int_t^inf r l(r) dr,

    with t = max(d, 2h - d).  Exact tail integrals of the model are used,
    so for the bounded power law this is the closed form.
    """
    t = exclusion_radius(d, h)
    reg = hardcore_regulation_constants(h)
    boundary = model.eval(t) * (reg.rho * t + reg.nu * t * t)
    return (boundary
            + reg.rho * model.tail_integral(t)
            + 2 * reg.nu * model.weighted_tail_integral(t))


def legacy_bound(model: BoundedPowerLaw, h: float, d: float) -> float:
    """Earlier interference bound that ignores the exclusion-disc geometry.

    l(0) + rho_h int_0^inf l + 2 nu_h int_0^inf r l - l(t): the full-plane
    shot-noise bound minus the single strongest excluded term.  Kept for
    comparison; never smaller than :func:`interference_bound` and, for the
    bounded power law, equal to it exactly at t = 1.
    """
    t = exclusion_radius(d, h)
    return shot_noise_bound(model, h) - model.eval(t)
