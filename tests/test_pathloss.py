import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cellbounds.pathloss import BoundedPowerLaw, DivergenceError


def quad_tail(model, t, weighted=False):
    """Independent adaptive-quadrature oracle for the tail integrals."""
    if weighted:
        f = lambda r: r * model.eval(r)
    else:
        f = lambda r: model.eval(r)
    cuts = [b for b in model.quad_breakpoints if t < b]
    total = 0.0
    lo = t
    for b in cuts:
        total += quad(f, lo, b, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        lo = b
    total += quad(f, lo, math.inf, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    return total


def test_power_law_eval_values():
    assert BoundedPowerLaw(4).eval(0.0) == 1.0
    assert BoundedPowerLaw(4).eval(2.0) == pytest.approx(0.0625, rel=1e-15)
    assert BoundedPowerLaw(2.5).eval(1.0) == 1.0


def test_power_law_eval_accepts_arrays():
    model = BoundedPowerLaw(4)
    out = model.eval(np.array([0.0, 0.5, 1.0, 2.0]))
    assert out == pytest.approx([1.0, 1.0, 1.0, 0.0625])


def test_power_law_eval_rejects_negative_distance():
    with pytest.raises(ValueError):
        BoundedPowerLaw(4).eval(-0.1)


@pytest.mark.parametrize("model", [BoundedPowerLaw(4), BoundedPowerLaw(2.5)])
def test_eval_rejects_nan_distance_and_accepts_inf(model):
    for bad in (math.nan, np.float64("nan"), np.array([1.0, math.nan])):
        with pytest.raises(ValueError):
            model.eval(bad)
    assert model.eval(math.inf) == 0.0
    assert model.eval(np.array([math.inf])).tolist() == [0.0]


@settings(max_examples=300, deadline=None)
@given(r=st.floats(0.0, 1e3), alpha=st.floats(2.5, 6.0))
def test_scalar_eval_is_float_within_one_ulp_of_array_eval(r, alpha):
    model = BoundedPowerLaw(alpha)
    value = model.eval(r)
    assert type(value) is float
    assert model.eval(np.float64(r)) == value
    on_array = model.eval(np.array([r]))[0]
    assert abs(value - on_array) <= math.ulp(on_array)
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
        r = np.sort(rng.uniform(0, 10, 200))
        vals = model.eval(r)
        assert np.all(np.diff(vals) <= 0)


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
