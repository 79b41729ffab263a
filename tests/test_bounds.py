import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cellbounds.bounds import (ball_count_bound, exclusion_radius,
                               hardcore_regulation_constants,
                               interference_bound, legacy_bound)
from cellbounds.pathloss import BoundedPowerLaw, DivergenceError
from oracles import (conditional_bound_general, exact_bound_alpha4,
                     interferer_envelope)

D_HEX = 4 / math.sqrt(3.0)


def quad_shot_noise(model, h):
    """Quadrature oracle for the shot-noise envelope bound."""
    rho, nu = hardcore_regulation_constants(h)
    f = quad(model.eval, 0, 1, epsabs=1e-12, epsrel=1e-12)[0]
    f += quad(model.eval, 1, math.inf, epsabs=1e-12, epsrel=1e-12)[0]
    g = quad(lambda r: r * model.eval(r), 0, 1, epsabs=1e-12, epsrel=1e-12)[0]
    g += quad(lambda r: r * model.eval(r), 1, math.inf, epsabs=1e-12,
              epsrel=1e-12)[0]
    return model.eval(0.0) + rho * f + 2 * nu * g


def test_hardcore_regulation_constants_values():
    rho1, nu1 = hardcore_regulation_constants(1.0)
    assert rho1 == pytest.approx(1.8137993642342178, rel=1e-12)
    assert nu1 == pytest.approx(0.9068996821171089, rel=1e-12)
    rho2, nu2 = hardcore_regulation_constants(2.0)
    assert rho2 == pytest.approx(0.9068996821171089, rel=1e-12)
    assert nu2 == pytest.approx(0.22672492052927722, rel=1e-12)


def test_hardcore_regulation_constants_scaling():
    h = 1.7
    rho, nu = hardcore_regulation_constants(h)
    rho2, nu2 = hardcore_regulation_constants(2 * h)
    assert rho2 == pytest.approx(rho / 2, rel=1e-12)
    assert nu2 == pytest.approx(nu / 4, rel=1e-12)
    # 1e-170 squared underflows to 0, 1e160 squared overflows
    for bad in (0.0, math.nan, math.inf, 1e-170, 1e160):
        with pytest.raises(ValueError, match="hardcore half-distance"):
            hardcore_regulation_constants(bad)


def test_ball_regulation_envelope():
    rho, nu = hardcore_regulation_constants(1.0)
    assert ball_count_bound(1.0, 0.0) == 1.0
    assert ball_count_bound(1.0, 2.0) == 1.0 + rho * 2.0 + nu * 2.0 * 2.0
    # the bound depends on R / h alone
    for h in (0.5, 1.0, 3.0):
        assert ball_count_bound(h, 2 * h) == pytest.approx(
            1 + 8 * math.pi / math.sqrt(12.0), rel=1e-14)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="hardcore half-distance"):
            ball_count_bound(bad, 1.0)


def test_exclusion_radius_cases():
    assert exclusion_radius(1.0, 1.0) == 1.0
    assert exclusion_radius(D_HEX, 2.0) == pytest.approx(D_HEX, rel=1e-15)
    assert exclusion_radius(1.0, 2.0) == 3.0
    for d, h in ((-0.5, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                 (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            exclusion_radius(d, h)


def test_legacy_bound_full_plane_values():
    # adding back the excluded term l(t) leaves the full-plane bound,
    # which does not depend on d
    model = BoundedPowerLaw(4)
    for h, d, full_plane in ((1.0, 1.0, 5.232198516546508),
                             (2.0, D_HEX, 2.6626494172146993)):
        t = exclusion_radius(d, h)
        assert legacy_bound(model, h, d) + model.eval(t) == pytest.approx(
            full_plane, rel=1e-12)
    with pytest.raises(DivergenceError):
        legacy_bound(BoundedPowerLaw(1.5), 1.0, 1.0)


def test_conditional_bound_degenerate_interval():
    model = BoundedPowerLaw(4)
    envelope = (1.0, *hardcore_regulation_constants(1.0))
    t = 2.0
    expected = model.eval(t) * ball_count_bound(1.0, t)
    assert conditional_bound_general(model, envelope, t, radius=t) == pytest.approx(
        expected, rel=1e-12)
    # a NaN outer radius once gave the boundary term alone, and t = inf
    # gave NaN; the default outer radius, inf, stays valid
    for bad_t, bad_radius in ((2.0, 1.0), (0.5, math.nan),
                              (math.inf, math.inf), (math.nan, math.inf),
                              (-0.5, 1.0)):
        with pytest.raises(ValueError):
            conditional_bound_general(model, envelope, bad_t,
                                      radius=bad_radius)


def test_conditional_bound_matches_closed_form_at_unit_exclusion():
    model = BoundedPowerLaw(4)
    envelope = interferer_envelope(1.0)
    value = conditional_bound_general(model, envelope, 1.0)
    assert value == pytest.approx(4.232198516546508, rel=1e-8)


def test_conditional_bound_constant_attenuation():
    # l = 1 on [0, 1], so the bound over b(o, 0.9) is the count bound G(0.9)
    value = conditional_bound_general(BoundedPowerLaw(4), (0.3, 1.2, 0.4),
                                      0.2, radius=0.9)
    assert value == pytest.approx(0.3 + 1.2 * 0.9 + 0.4 * 0.9 * 0.9,
                                  rel=1e-14)


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


@pytest.mark.parametrize("h, d, expected", [
    # nu_h t^2 is about 9e313, beyond float range
    (1e-80, 1e77, 1813799.364234218),
    # l(t) = t^-4 underflows to 0, which dropped the boundary term l(t) G(t)
    # and halved the bound
    (1.0, 1e100, 1.813799364234218e-200),
    # both at once: the parent's l(t) G(t) was 0 * inf
    (1e-100, 1e90, 1.813799364234218e20),
], ids=["G-overflows", "l-underflows", "both"])
def test_interference_bound_is_finite_where_its_envelope_overflows(h, d,
                                                                   expected):
    value = interference_bound(BoundedPowerLaw(4), h, d)
    # abs=0: approx's default absolute tolerance would pass any tiny value
    assert value == pytest.approx(float(exact_bound_alpha4(h, d)), rel=1e-14,
                                  abs=0)
    assert value == pytest.approx(expected, rel=1e-14, abs=0)


_LOG_UNIFORM = st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(h=_LOG_UNIFORM, d=_LOG_UNIFORM)
def test_interference_bound_equals_its_exact_value_at_any_scale(h, d):
    # alpha = 4 and t >= 1, where the closed form holds no G(t) and no
    # l(t) G(t) that could overflow or underflow on its own
    t = exclusion_radius(d, h)
    assume(t >= 1)
    exact = exact_bound_alpha4(h, t)
    assume(sys.float_info.min <= exact <= sys.float_info.max)
    value = interference_bound(BoundedPowerLaw(4), h, d)
    assert abs(value - exact) <= 1e-15 * exact


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
            envelope = interferer_envelope(h)
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
    envelope = interferer_envelope(h)
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
    envelope = interferer_envelope(h)
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
