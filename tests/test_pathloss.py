import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cellbounds import kernels
from cellbounds.pathloss import BoundedPowerLaw, DivergenceError


def quad_tail(model, t, weighted=False):
    """Independent adaptive-quadrature oracle for the tail integrals."""
    if weighted:
        f = lambda r: r * model.eval(r)
    else:
        f = lambda r: model.eval(r)
    total = 0.0
    lo = t
    if t < 1.0:  # split where the model is not smooth
        total += quad(f, t, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        lo = 1.0
    total += quad(f, lo, math.inf, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    return total


def test_power_law_eval_values():
    assert BoundedPowerLaw(4).eval(0.0) == 1.0
    assert BoundedPowerLaw(4).eval(0.5) == 1.0
    assert BoundedPowerLaw(4).eval(1.0) == 1.0
    assert BoundedPowerLaw(4).eval(2.0) == pytest.approx(0.0625, rel=1e-15)
    assert BoundedPowerLaw(2.5).eval(1.0) == 1.0


def test_power_law_eval_rejects_negative_distance():
    with pytest.raises(ValueError):
        BoundedPowerLaw(4).eval(-0.1)


@pytest.mark.parametrize("model", [BoundedPowerLaw(4), BoundedPowerLaw(2.5)])
def test_eval_rejects_nan_distance_and_accepts_inf(model):
    for bad in (math.nan, np.float64("nan")):
        with pytest.raises(ValueError):
            model.eval(bad)
    assert model.eval(math.inf) == 0.0
    assert model.eval(np.float64(math.inf)) == 0.0


@settings(max_examples=300, deadline=None)
@given(r=st.floats(0.0, 1e3), alpha=st.floats(2.5, 6.0))
def test_scalar_eval_is_float_within_four_ulps_of_kernel_sum(r, alpha):
    # the kernel, which verify sums, takes (r*r)**(-alpha/2) where eval
    # takes r**-alpha: at most 3 ulps apart over 20,000 draws
    model = BoundedPowerLaw(alpha)
    value = model.eval(r)
    assert type(value) is float
    assert type(model.eval(np.float64(r))) is float
    assert model.eval(np.float64(r)) == value
    summed = kernels.bounded_power_law_sum(
        kernels.sq_dists(np.array([[r, 0.0]]), (0.0, 0.0)), alpha)
    assert abs(value - summed) <= 4 * math.ulp(summed)
    if r <= 1:
        assert value == 1.0


def test_power_law_requires_positive_exponent():
    with pytest.raises(ValueError):
        BoundedPowerLaw(0.0)
    with pytest.raises(ValueError):
        BoundedPowerLaw(-2.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            BoundedPowerLaw(bad)


def test_eval_monotone_non_increasing():
    rng = np.random.default_rng(1)
    for alpha in (2.5, 3.0, 4.0):
        model = BoundedPowerLaw(alpha)
        vals = [model.eval(r) for r in np.sort(rng.uniform(0, 10, 200))]
        assert all(x >= y for x, y in zip(vals, vals[1:]))


def test_tail_integral_values():
    assert BoundedPowerLaw(4).tail_integral(0.0) == pytest.approx(4 / 3, rel=1e-12)
    assert BoundedPowerLaw(4).tail_integral(2.0) == pytest.approx(1 / 24, rel=1e-12)
    # frozen from the quadrature oracle: (1 - 0.5) + 1/3
    assert BoundedPowerLaw(4).tail_integral(0.5) == pytest.approx(
        0.8333333333333333, rel=1e-12)


def test_weighted_tail_integral_values():
    assert BoundedPowerLaw(4).weighted_tail_integral(0.0) == pytest.approx(1.0, rel=1e-12)
    assert BoundedPowerLaw(4).weighted_tail_integral(2.0) == pytest.approx(0.125, rel=1e-12)
    assert BoundedPowerLaw(3).weighted_tail_integral(1.5) == pytest.approx(
        2 / 3, rel=1e-12)


def test_tail_integrals_reject_negative_and_nan_limits():
    model = BoundedPowerLaw(4)
    for integral in (model.tail_integral, model.weighted_tail_integral):
        for bad in (-0.5, math.nan):
            with pytest.raises(ValueError, match="lower limit"):
                integral(bad)


def test_tail_divergence_errors():
    with pytest.raises(DivergenceError):
        BoundedPowerLaw(1.0).tail_integral(0.0)
    with pytest.raises(DivergenceError):
        BoundedPowerLaw(2.0).weighted_tail_integral(0.0)


def test_tails_monotone_non_increasing_in_t():
    grid = [0.0, 0.5, 1.0, 2.0, 5.0]
    for alpha in (2.5, 3.0, 4.0):
        model = BoundedPowerLaw(alpha)
        tails = [model.tail_integral(t) for t in grid]
        wtails = [model.weighted_tail_integral(t) for t in grid]
        assert all(x >= y for x, y in zip(tails, tails[1:]))
        assert all(x >= y for x, y in zip(wtails, wtails[1:]))


def test_closed_forms_match_quadrature():
    for alpha in (2.5, 3.0, 4.0):
        model = BoundedPowerLaw(alpha)
        for t in (0.0, 0.5, 1.0, 2.0, 5.0):
            assert model.tail_integral(t) == pytest.approx(
                quad_tail(model, t), rel=1e-8)
            assert model.weighted_tail_integral(t) == pytest.approx(
                quad_tail(model, t, weighted=True), rel=1e-8)
