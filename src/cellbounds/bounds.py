"""Almost-sure interference bounds for hardcore-regulated transmitter sets.

Any process whose points are pairwise at least 2h apart puts at most
1 + rho_h R + nu_h R^2 points in any ball of radius R (`ball_count_bound`),
where (`hardcore_regulation_constants`)

    rho_h = 2 pi / (sqrt(12) h),      nu_h = pi / (sqrt(12) h^2).

Feeding this quadratic envelope through a Stieltjes-type estimate of the
attenuated sum gives a worst-case bound on the total interference seen at
the origin.  With nearest-transmitter association at distance d, the disc
of radius t = max(d, 2h - d) around the receiver is interferer-free, which
tightens the bound; `interference_bound` exploits it, `legacy_bound`
(kept for comparison) does not.

Every bound here is the closed form :func:`_closed_form` on the float
coefficients of the envelope, from the exact tail integrals of the model.
The second, independent route, which integrates numerically against an
arbitrary quadratic envelope, lives in ``tests/oracles.py``; the tests
hold the two routes to agreement.
"""

from __future__ import annotations

import math

from .pathloss import BoundedPowerLaw

SQRT12 = math.sqrt(12.0)


def hardcore_regulation_constants(h: float) -> tuple[float, float]:
    """Coefficients (rho_h, nu_h) of the ball-count envelope of a process
    with pairwise gap 2h.

    Raises ValueError unless both are positive finite floats, as for an h
    whose square underflows or overflows.
    """
    try:
        rho, nu = 2 * math.pi / (SQRT12 * h), math.pi / (SQRT12 * h * h)
    except ZeroDivisionError:
        rho = nu = 0.0
    if not (0 < rho < math.inf and 0 < nu < math.inf):
        raise ValueError("hardcore half-distance must give positive finite "
                         f"rho_h and nu_h, got {h}")
    return rho, nu


def ball_count_bound(h: float, radius: float) -> float:
    """Bound 1 + rho_h R + nu_h R^2 on the points of a 2h-hardcore set in
    any ball of radius R."""
    rho, nu = hardcore_regulation_constants(h)
    return 1.0 + rho * radius + nu * radius * radius


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


def _closed_form(model: BoundedPowerLaw, sigma: float, rho: float, nu: float,
                 t: float) -> float:
    """The conditional bound outside b(o, t) with infinite outer radius, for
    the envelope G(R) = sigma + rho R + nu R^2, from the exact tail
    integrals of the model:

        l(t) G(t) + rho int_t^inf l(r) dr + 2 nu int_t^inf r l(r) dr.

    For t >= 1, t l(t) = (alpha - 1) int_t^inf l and t^2 l(t) = (alpha - 2)
    int_t^inf r l turn it into sigma l(t) + alpha (rho int_t^inf l + nu
    int_t^inf r l), which stays right where G(t) overflows or l(t)
    underflows.
    """
    tail, weighted = model.tail_integral(t), model.weighted_tail_integral(t)
    if t >= 1:
        return (sigma * model.eval(t)
                + model.alpha * (rho * tail + nu * weighted))
    return (model.eval(t) * (sigma + rho * t + nu * t * t) + rho * tail
            + 2 * nu * weighted)


def _exclusion_bound(model: BoundedPowerLaw, rho: float, nu: float,
                     t: float) -> float:
    """:func:`interference_bound` at the exclusion radius t, for the
    envelope rho R + nu R^2."""
    return _closed_form(model, 0.0, rho, nu, t)


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
    rho, nu = hardcore_regulation_constants(h)
    return _exclusion_bound(model, rho, nu, t)


def legacy_bound(model: BoundedPowerLaw, h: float, d: float) -> float:
    """Earlier interference bound that ignores the exclusion-disc geometry.

    l(0) + rho_h int_0^inf l + 2 nu_h int_0^inf r l - l(t): the full-plane
    shot-noise bound, finite only for alpha > 2, minus the single strongest
    excluded term.  Kept for comparison; never smaller than
    :func:`interference_bound` and, for the bounded power law, equal to it
    exactly at t = 1.
    """
    return _bound_rows([model], h, [d])[0][3]


def _bound_rows(models, h: float, distances: list) -> list:
    """Rows (t, alpha, interference_bound, legacy_bound) at h for each
    model of the iterable models and each serving distance of the list
    distances; legacy_bound is its one-point case.  The radii t, which
    check h and d, then rho_h and nu_h are computed once, and each model's
    full-plane term once; a model is taken before its first bound.  No
    distance, no bound: then only the models are checked.
    """
    rows = []
    radii = None
    for model in models:
        if not distances:
            continue
        if radii is None:
            radii = [exclusion_radius(d, h) for d in distances]
            rho, nu = hardcore_regulation_constants(h)
        full_plane = _closed_form(model, 1.0, rho, nu, 0.0)
        rows += [(t, model.alpha, _exclusion_bound(model, rho, nu, t),
                  full_plane - model.eval(t)) for t in radii]
    return rows
