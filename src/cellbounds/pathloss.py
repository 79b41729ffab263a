"""The bounded power-law attenuation model and its exact tail integrals.

Every bound downstream consumes the attenuation l(r) = min(1, r^-alpha),
which is non-negative, bounded and non-increasing in the link distance r,
together with the two closed-form integrals

    tail_integral(t)          = int_t^inf l(r) dr
    weighted_tail_integral(t) = int_t^inf r l(r) dr

``eval`` takes a scalar or an array.  A scalar distance is evaluated with
float arithmetic (libm ``pow``) and gives a Python ``float``; an array is
evaluated with numpy and gives an array.  numpy is imported only on the
array path, so the analytic sweeps, which evaluate scalars alone, run
without loading it.
"""

from __future__ import annotations

import math
import numbers


# float first: it covers Python floats and numpy float64 without the much
# slower abstract-base-class check that other real scalars need
_REAL_SCALAR = (float, numbers.Real)


class DivergenceError(ValueError):
    """Requested integral of the attenuation model diverges."""


def _scalar_distance(r) -> float | None:
    """``r`` as a float if it is a real scalar, else None; rejects negative
    and NaN distances (+inf is valid: l(inf) = 0)."""
    if not isinstance(r, _REAL_SCALAR):
        return None
    r = float(r)
    if not r >= 0:
        raise ValueError(f"distance must be non-negative, got {r}")
    return r


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

    @property
    def quad_breakpoints(self):
        """Radii where the model is not smooth (quadrature split points)."""
        return (1.0,)

    def eval(self, r):
        """Attenuation at distance r >= 0; a real scalar gives a float, an
        array gives an array."""
        x = _scalar_distance(r)
        if x is not None:
            return x ** -self.alpha if x > 1.0 else 1.0
        import numpy as np

        arr = np.atleast_1d(np.asarray(r, dtype=float))
        if not np.all(arr >= 0):
            raise ValueError("distance must be non-negative")
        out = np.ones_like(arr)
        far = arr > 1.0
        out[far] = arr[far] ** -self.alpha
        return float(out[0]) if np.ndim(r) == 0 else out

    def tail_integral(self, t: float) -> float:
        """int_t^inf l(r) dr.  Diverges unless alpha > 1."""
        if t < 0:
            raise ValueError("lower limit must be non-negative")
        a = self.alpha
        if a <= 1:
            raise DivergenceError(
                f"int l(r) dr diverges for alpha = {a} <= 1")
        if t >= 1:
            return t ** (1 - a) / (a - 1)
        return (1 - t) + 1 / (a - 1)

    def weighted_tail_integral(self, t: float) -> float:
        """int_t^inf r l(r) dr.  Diverges unless alpha > 2."""
        if t < 0:
            raise ValueError("lower limit must be non-negative")
        a = self.alpha
        if a <= 2:
            raise DivergenceError(
                f"int r l(r) dr diverges for alpha = {a} <= 2")
        if t >= 1:
            return t ** (2 - a) / (a - 2)
        return (1 - t * t) / 2 + 1 / (a - 2)
