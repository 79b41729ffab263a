import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cellbounds.bounds import (BallRegulation, conditional_bound_general,
                               exclusion_radius,
                               hardcore_regulation_constants,
                               interference_bound, legacy_bound,
                               shot_noise_bound)
from cellbounds.pathloss import BoundedPowerLaw, DivergenceError

D_HEX = 4 / math.sqrt(3.0)


def quad_shot_noise(model, h):
    """Quadrature oracle for the shot-noise envelope bound."""
    reg = hardcore_regulation_constants(h)
    f = quad(model.eval, 0, 1, epsabs=1e-12, epsrel=1e-12)[0]
    f += quad(model.eval, 1, math.inf, epsabs=1e-12, epsrel=1e-12)[0]
    g = quad(lambda r: r * model.eval(r), 0, 1, epsabs=1e-12, epsrel=1e-12)[0]
    g += quad(lambda r: r * model.eval(r), 1, math.inf, epsabs=1e-12,
              epsrel=1e-12)[0]
    return model.eval(0.0) + reg.rho * f + 2 * reg.nu * g


def test_hardcore_regulation_constants_values():
    reg1 = hardcore_regulation_constants(1.0)
    assert reg1.sigma == 1.0
    assert reg1.rho == pytest.approx(1.8137993642342178, rel=1e-12)
    assert reg1.nu == pytest.approx(0.9068996821171089, rel=1e-12)
    reg2 = hardcore_regulation_constants(2.0)
    assert reg2.rho == pytest.approx(0.9068996821171089, rel=1e-12)
    assert reg2.nu == pytest.approx(0.22672492052927722, rel=1e-12)


def test_hardcore_regulation_constants_scaling():
    h = 1.7
    reg = hardcore_regulation_constants(h)
    reg2 = hardcore_regulation_constants(2 * h)
    assert reg2.rho == pytest.approx(reg.rho / 2, rel=1e-12)
    assert reg2.nu == pytest.approx(reg.nu / 4, rel=1e-12)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            hardcore_regulation_constants(bad)


def test_ball_regulation_envelope():
    reg = BallRegulation(1.0, 2.0, 0.5)
    assert reg.count_bound(0.0) == 1.0
    assert reg.count_bound(2.0) == 1.0 + 4.0 + 2.0
    assert reg.slope(3.0) == 2.0 + 3.0
    assert reg.without_sigma().sigma == 0.0
    with pytest.raises(ValueError):
        BallRegulation(-1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        BallRegulation(1.0, 2.0, 0.0)
    for bad in (math.nan, math.inf):
        for args in ((bad, 2.0, 0.5), (1.0, bad, 0.5), (1.0, 2.0, bad)):
            with pytest.raises(ValueError):
                BallRegulation(*args)


def test_exclusion_radius_cases():
    assert exclusion_radius(1.0, 1.0) == 1.0
    assert exclusion_radius(D_HEX, 2.0) == pytest.approx(D_HEX, rel=1e-15)
    assert exclusion_radius(1.0, 2.0) == 3.0
    for d, h in ((-0.5, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                 (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            exclusion_radius(d, h)


def test_shot_noise_bound_values():
    model = BoundedPowerLaw(4)
    assert shot_noise_bound(model, 1.0) == pytest.approx(
        5.232198516546508, rel=1e-12)
    assert shot_noise_bound(model, 2.0) == pytest.approx(
        2.6626494172146993, rel=1e-12)
    with pytest.raises(DivergenceError):
        shot_noise_bound(BoundedPowerLaw(1.5), 1.0)


def test_conditional_bound_degenerate_interval():
    model = BoundedPowerLaw(4)
    envelope = hardcore_regulation_constants(1.0)
    t = 2.0
    expected = model.eval(t) * envelope.count_bound(t)
    assert conditional_bound_general(model, envelope, t, radius=t) == pytest.approx(
        expected, rel=1e-12)
    with pytest.raises(ValueError):
        conditional_bound_general(model, envelope, 2.0, radius=1.0)


def test_conditional_bound_matches_closed_form_at_unit_exclusion():
    model = BoundedPowerLaw(4)
    envelope = hardcore_regulation_constants(1.0).without_sigma()
    value = conditional_bound_general(model, envelope, 1.0)
    assert value == pytest.approx(4.232198516546508, rel=1e-8)


def test_conditional_bound_constant_attenuation():
    # l = 1 on [0, 1], so the bound over b(o, 0.9) is the count bound G(0.9)
    envelope = BallRegulation(0.3, 1.2, 0.4)
    value = conditional_bound_general(BoundedPowerLaw(4), envelope, 0.2,
                                      radius=0.9)
    assert value == pytest.approx(envelope.count_bound(0.9), rel=1e-14)


def test_interference_bound_frozen_values():
    model = BoundedPowerLaw(4)
    assert interference_bound(model, 1.0, 1.0) == pytest.approx(
        4.232198516546508, rel=1e-12)
    assert interference_bound(model, 2.0, D_HEX) == pytest.approx(
        0.18319661562315995, rel=1e-12)
    assert interference_bound(model, 4.0, D_HEX) == pytest.approx(
        0.00678159525669709, rel=1e-12)
    with pytest.raises(DivergenceError):
        interference_bound(BoundedPowerLaw(2.0), 1.0, 1.0)


def test_legacy_bound_frozen_values():
    assert legacy_bound(BoundedPowerLaw(4), 1.0, 1.0) == pytest.approx(
        4.232198516546508, rel=1e-12)
    assert legacy_bound(BoundedPowerLaw(4), 2.0, D_HEX) == pytest.approx(
        2.6274931672146993, rel=1e-12)
    # d = 2, h = 1 gives t = 2
    assert legacy_bound(BoundedPowerLaw(3), 1.0, 2.0) == pytest.approx(
        6.316398092702654, rel=1e-12)


def test_legacy_bound_matches_quadrature_oracle():
    for alpha, h, d in [(3.0, 1.0, 2.0), (4.0, 2.0, D_HEX), (2.5, 1.0, 1.0)]:
        model = BoundedPowerLaw(alpha)
        t = exclusion_radius(d, h)
        expected = quad_shot_noise(model, h) - model.eval(t)
        assert legacy_bound(model, h, d) == pytest.approx(expected, rel=1e-9)


def test_new_bound_strictly_decreasing_in_t():
    for alpha in (2.5, 3.0, 4.0):
        model = BoundedPowerLaw(alpha)
        values = [interference_bound(model, 1.0, t) for t in np.linspace(1, 10, 40)]
        assert all(x > y for x, y in zip(values, values[1:]))


def test_new_bound_ties_legacy_at_unit_t_and_wins_beyond():
    for alpha in (2.5, 3.0, 4.0):
        model = BoundedPowerLaw(alpha)
        # with h = 1 and d = t >= 1 the exclusion radius equals t
        assert abs(interference_bound(model, 1.0, 1.0)
                   - legacy_bound(model, 1.0, 1.0)) < 1e-9
        for t in np.linspace(1.05, 10, 30):
            assert interference_bound(model, 1.0, t) < legacy_bound(model, 1.0, t)


def test_quadrature_route_matches_closed_form_grid():
    for alpha in (2.5, 3.0, 4.0):
        model = BoundedPowerLaw(alpha)
        for h in (1.0, 2.0, 4.0):
            envelope = hardcore_regulation_constants(h).without_sigma()
            for t in (1.0, 2.0, 5.0):
                # d = t realizes the exclusion radius t whenever t >= h
                d = max(t, h)
                closed = interference_bound(model, h, d)
                general = conditional_bound_general(
                    model, envelope, exclusion_radius(d, h))
                assert general == pytest.approx(closed, rel=1e-8)


def test_quadrature_route_matches_closed_form_below_unit_t():
    model = BoundedPowerLaw(4)
    h, d = 0.4, 0.4  # t = 0.4 < 1 exercises the piecewise tails
    envelope = hardcore_regulation_constants(h).without_sigma()
    closed = interference_bound(model, h, d)
    general = conditional_bound_general(model, envelope, exclusion_radius(d, h))
    assert general == pytest.approx(closed, rel=1e-8)


_ALPHA = st.floats(2.5, 6.0)
_H = st.floats(0.2, 5.0)
_D = st.floats(0.0, 20.0)


@settings(max_examples=200, deadline=None)
@given(alpha=_ALPHA, h=_H, d=_D)
def test_quadrature_route_matches_closed_form_random(alpha, h, d):
    model = BoundedPowerLaw(alpha)
    envelope = hardcore_regulation_constants(h).without_sigma()
    general = conditional_bound_general(model, envelope, exclusion_radius(d, h))
    assert general == pytest.approx(interference_bound(model, h, d), rel=1e-8)


@settings(max_examples=200, deadline=None)
@given(alpha=_ALPHA, h=_H, d=_D)
def test_new_bound_never_exceeds_legacy_random(alpha, h, d):
    model = BoundedPowerLaw(alpha)
    assert interference_bound(model, h, d) <= legacy_bound(model, h, d) * (1 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(alpha=_ALPHA, h=_H, u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
def test_interference_bound_non_increasing_in_d(alpha, h, u, v):
    model = BoundedPowerLaw(alpha)
    near, far = (h + w * (20.0 - h) for w in sorted((u, v)))
    assert (interference_bound(model, h, far)
            <= interference_bound(model, h, near) * (1 + 1e-12))
