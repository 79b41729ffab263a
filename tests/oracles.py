"""Independent routes to what the package computes, for the tests to
compare against.

The package computes every bound in closed form from the exact tail
integrals of the model (``cellbounds.bounds._closed_form``).  The
quadrature route integrates numerically against an arbitrary quadratic
envelope and shares no arithmetic with the first, so the two must agree.

The package seeds its samplers through its own vectorized copy of numpy's
seeding (``cellbounds._seeding``) and thins them on a cell grid.
:func:`matern_oracle` draws from ``np.random.default_rng`` and thins by
the direct O(n^2) rule instead.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from cellbounds.bounds import hardcore_regulation_constants
from cellbounds.pathloss import BoundedPowerLaw

_QUAD_OPTS = {"epsabs": 1e-12, "epsrel": 1e-10, "limit": 200}


def interferer_envelope(h: float) -> tuple[float, float, float]:
    """The envelope (0, rho_h, nu_h) that ``interference_bound`` assumes:
    sigma is dropped, as the serving transmitter is not an interferer."""
    return (0.0, *hardcore_regulation_constants(h))


def conditional_bound_general(model: BoundedPowerLaw,
                              envelope: tuple[float, float, float],
                              t: float, radius: float = math.inf) -> float:
    """A.s. bound on the attenuated sum outside the exclusion disc b(o, t).

    For any envelope G(R) = sigma + rho R + nu R^2, given as the triple
    ``(sigma, rho, nu)``, with count(b(o,R) minus exclusion) <= G(R), the sum
    of l(|x|) over b(o, radius) outside the exclusion region is at most

        -int_t^R G(r) l'(r) dr + l(R) G(R)
          = l(t) G(t) + int_t^R l(r) G'(r) dr,

    evaluated here in the integration-by-parts form with adaptive
    quadrature, split at r = 1, where the model is not smooth.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("exclusion radius must be finite and non-negative")
    if not radius >= t:  # also a NaN radius
        raise ValueError("outer radius must be at least the exclusion radius")
    sigma, rho, nu = envelope
    boundary = model.eval(t) * (sigma + rho * t + nu * t * t)
    if radius == t:
        return boundary

    def integrand(r):
        return model.eval(r) * (rho + 2 * nu * r)

    total = 0.0
    lo = t
    if t < 1.0 < radius:
        total += quad(integrand, t, 1.0, **_QUAD_OPTS)[0]
        lo = 1.0
    total += quad(integrand, lo, radius, **_QUAD_OPTS)[0]
    return boundary + total


def exact_bound_alpha4(h: float, t: float) -> Fraction:
    """``interference_bound`` at alpha = 4 and exclusion radius t >= 1, in
    exact rational arithmetic on the float rho_h, nu_h and t:

        l(t) (rho t + nu t^2) + rho t^-3 / 3 + 2 nu t^-2 / 2,

    as l(t) = t^-4, int_t^inf l = t^-3 / 3 and int_t^inf r l = t^-2 / 2.
    """
    rho, nu = map(Fraction, hardcore_regulation_constants(h))
    t = Fraction(t)
    return (rho * t + nu * t * t) / t ** 4 + rho / (3 * t ** 3) + nu / t ** 2


def matern_oracle(intensity: float, hardcore_radius: float,
                  window: tuple[float, float, float, float],
                  seed: int) -> np.ndarray:
    """The retained points of a Matern type-II sample, drawn straight from
    ``np.random.default_rng(seed)`` and thinned by the O(n^2) rule.

    ``window`` is ``(xmin, xmax, ymin, ymax)``.  The Poisson count on the
    window grown by ``hardcore_radius`` is drawn first, then the x
    coordinates, the y coordinates and the ages.  A point is retained iff no
    point of smaller age (equal ages: of smaller index) lies strictly within
    ``hardcore_radius``; the retained points in the closed window are
    returned in the order drawn.
    """
    xmin, xmax, ymin, ymax = window
    r = hardcore_radius
    lo_x, hi_x, lo_y, hi_y = xmin - r, xmax + r, ymin - r, ymax + r
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(intensity * ((hi_x - lo_x) * (hi_y - lo_y))))
    x = rng.uniform(lo_x, hi_x, n)
    y = rng.uniform(lo_y, hi_y, n)
    ages = rng.random(n)
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    index = np.arange(n)
    older = ((ages[None, :] < ages[:, None])
             | ((ages[None, :] == ages[:, None])
                & (index[None, :] < index[:, None])))
    killed = ((dx * dx + dy * dy < r * r) & older).any(axis=1)
    inside = (x >= xmin) & (x <= xmax) & (y >= ymin) & (y <= ymax)
    keep = ~killed & inside
    return np.column_stack((x[keep], y[keep]))
