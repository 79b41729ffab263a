"""Signal attenuation models and their exact integrals.

Every bound downstream consumes an attenuation function l(r) that is
non-negative, bounded and non-increasing in the link distance r, together
with the two integrals

    tail_integral(t)          = int_t^inf l(r) dr
    weighted_tail_integral(t) = int_t^inf r l(r) dr

Two models are provided.  ``BoundedPowerLaw`` is l(r) = min(1, r^-alpha)
with closed-form integrals; ``Tabulated`` interpolates measured samples
linearly and integrates the interpolant exactly segment by segment, with
the last sample radius acting as the declared truncation (l is zero
beyond it).

``eval`` takes a scalar or an array.  A scalar distance is evaluated with
float arithmetic (libm ``pow``) and gives a Python ``float``; an array is
evaluated with numpy and gives an array.  numpy is imported only on the
array path and by ``Tabulated``, so the analytic sweeps, which evaluate
scalars alone, run without loading it.
"""

from __future__ import annotations

import math
import numbers
from typing import Union


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


def _as_distance(r):
    """Coerce to a float array, rejecting negative and NaN distances."""
    import numpy as np

    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all(arr >= 0):
        raise ValueError("distance must be non-negative")
    return arr


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

        arr = _as_distance(r)
        out = np.ones_like(arr)
        far = arr > 1.0
        out[far] = arr[far] ** -self.alpha
        return float(out[0]) if np.ndim(r) == 0 else out

    def integral(self, a: float, b: float) -> float:
        """int_a^b l(r) dr, exact; b may be inf (requires alpha > 1)."""
        if not 0 <= a <= b:
            raise ValueError("need 0 <= a <= b")
        if math.isinf(b):
            return self.tail_integral(a)
        return self._primitive(b) - self._primitive(a)

    def weighted_integral(self, a: float, b: float) -> float:
        """int_a^b r l(r) dr, exact; b may be inf (requires alpha > 2)."""
        if not 0 <= a <= b:
            raise ValueError("need 0 <= a <= b")
        if math.isinf(b):
            return self.weighted_tail_integral(a)
        return self._weighted_primitive(b) - self._weighted_primitive(a)

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

    def _primitive(self, r: float) -> float:
        # antiderivative of l with F(0) = 0, valid for finite r
        a = self.alpha
        if r <= 1:
            return r
        if a == 1:
            return 1 + math.log(r)
        return 1 + (r ** (1 - a) - 1) / (1 - a)

    def _weighted_primitive(self, r: float) -> float:
        a = self.alpha
        if r <= 1:
            return r * r / 2
        if a == 2:
            return 0.5 + math.log(r)
        return 0.5 + (r ** (2 - a) - 1) / (2 - a)


class Tabulated:
    """Attenuation interpolated linearly through samples (r_i, v_i).

    Constant v_0 on [0, r_0]; zero beyond the last sample radius, which is
    the declared truncation of all integrals.  Sample radii must be
    strictly increasing and values non-negative and non-increasing, so the
    interpolant keeps the monotonicity the bounds require.
    """

    def __init__(self, samples):
        import numpy as np

        pts = [(float(r), float(v)) for r, v in samples]
        if not pts:
            raise ValueError("need at least one sample")
        radii = np.array([p[0] for p in pts])
        values = np.array([p[1] for p in pts])
        if radii[0] < 0:
            raise ValueError("sample radii must be non-negative")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("sample radii must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("sample values must be non-negative")
        if np.any(np.diff(values) > 0):
            raise ValueError("sample values must be non-increasing")
        self.radii = radii
        self.values = values
        # breakpoints of the piecewise-linear interpolant incl. the flat head
        if radii[0] > 0:
            self._knots = np.concatenate([[0.0], radii])
            self._knot_values = np.concatenate([[values[0]], values])
        else:
            self._knots = radii
            self._knot_values = values

    def __repr__(self):
        return f"Tabulated({len(self.radii)} samples, truncated at {self.radii[-1]})"

    @property
    def truncation_radius(self) -> float:
        return float(self.radii[-1])

    @property
    def quad_breakpoints(self):
        return tuple(self._knots)

    def eval(self, r):
        import numpy as np

        arr = _as_distance(r)
        out = np.interp(arr, self._knots, self._knot_values,
                        left=self._knot_values[0], right=0.0)
        return float(out[0]) if np.ndim(r) == 0 else out

    def integral(self, a: float, b: float) -> float:
        """int_a^b l(r) dr, exact on the interpolant; b may be inf."""
        return self._segment_integral(a, b, weighted=False)

    def weighted_integral(self, a: float, b: float) -> float:
        """int_a^b r l(r) dr, exact on the interpolant; b may be inf."""
        return self._segment_integral(a, b, weighted=True)

    def tail_integral(self, t: float) -> float:
        return self.integral(t, math.inf)

    def weighted_tail_integral(self, t: float) -> float:
        return self.weighted_integral(t, math.inf)

    def _segment_integral(self, a: float, b: float, weighted: bool) -> float:
        if not 0 <= a <= b:
            raise ValueError("need 0 <= a <= b")
        b = min(b, self.truncation_radius)
        if b <= a:
            return 0.0
        knots = self._knots
        total = 0.0
        for k in range(len(knots) - 1):
            lo = max(a, knots[k])
            hi = min(b, knots[k + 1])
            if hi <= lo:
                continue
            va = self._knot_values[k]
            vb = self._knot_values[k + 1]
            slope = (vb - va) / (knots[k + 1] - knots[k])
            v_lo = va + slope * (lo - knots[k])
            v_hi = va + slope * (hi - knots[k])
            if weighted:
                # linear l(r) = c0 + c1 r integrated against r
                c1 = slope
                c0 = v_lo - c1 * lo
                total += c0 * (hi * hi - lo * lo) / 2 + c1 * (hi ** 3 - lo ** 3) / 3
            else:
                total += 0.5 * (v_lo + v_hi) * (hi - lo)
        return total


PathLossModel = Union[BoundedPowerLaw, Tabulated]
