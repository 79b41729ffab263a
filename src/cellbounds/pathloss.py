"""The bounded power-law attenuation model and its exact tail integrals.

Every bound downstream consumes the attenuation l(r) = min(1, r^-alpha),
which is non-negative, bounded and non-increasing in the link distance r,
together with the two closed-form integrals

    tail_integral(t)          = int_t^inf l(r) dr
    weighted_tail_integral(t) = int_t^inf r l(r) dr

``eval`` takes one scalar distance and gives a Python ``float``, computed
with float arithmetic (libm ``pow``), so the analytic sweeps run without
loading numpy.  The certifier's sums over point sets use the array form in
:func:`cellbounds.kernels.bounded_power_law_sum`.
"""

from __future__ import annotations

import math


class DivergenceError(ValueError):
    """Requested integral of the attenuation model diverges."""


class BoundedPowerLaw:
    """Attenuation l(r) = min(1, r^-alpha) with path-loss exponent alpha > 0."""

    def __init__(self, alpha: float):
        alpha = float(alpha)
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(
                f"path-loss exponent must be positive and finite, got {alpha}")
        self.alpha = alpha

    def __repr__(self):
        return f"BoundedPowerLaw(alpha={self.alpha})"

    def eval(self, r: float) -> float:
        """Attenuation at distance r >= 0 (+inf is valid: l(inf) = 0)."""
        r = float(r)
        if not r >= 0:  # also a NaN distance
            raise ValueError(f"distance must be non-negative, got {r}")
        return r ** -self.alpha if r > 1.0 else 1.0

    def tail_integral(self, t: float) -> float:
        """int_t^inf l(r) dr.  Diverges unless alpha > 1."""
        if not t >= 0:  # also a NaN limit
            raise ValueError(f"lower limit must be non-negative, got {t}")
        a = self.alpha
        if a <= 1:
            raise DivergenceError(
                f"int l(r) dr diverges for alpha = {a} <= 1")
        if t >= 1:
            return t ** (1 - a) / (a - 1)
        return (1 - t) + 1 / (a - 1)

    def weighted_tail_integral(self, t: float) -> float:
        """int_t^inf r l(r) dr.  Diverges unless alpha > 2."""
        if not t >= 0:  # also a NaN limit
            raise ValueError(f"lower limit must be non-negative, got {t}")
        a = self.alpha
        if a <= 2:
            raise DivergenceError(
                f"int r l(r) dr diverges for alpha = {a} <= 2")
        if t >= 1:
            return t ** (2 - a) / (a - 2)
        return (1 - t * t) / 2 + 1 / (a - 2)
