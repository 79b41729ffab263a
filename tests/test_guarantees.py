import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cellbounds.bounds import interference_bound
from cellbounds.guarantees import (InfeasibleError, LinkBudget,
                                   critical_power, criticality_feasible,
                                   link_at_snr, rate_always_active,
                                   rate_scheduled, solve_critical_hk, theta)
from cellbounds.pathloss import BoundedPowerLaw

D_HEX = 4 / math.sqrt(3.0)
H3 = 2 * math.sqrt(3.0)
H4 = 4.0


def reference_link(snr_db=0.0, power=1.0, alpha=4.0, d=D_HEX):
    model = BoundedPowerLaw(alpha)
    noise = power * model.eval(d) / 10.0 ** (snr_db / 10.0)
    return LinkBudget(power, noise, d, model)


def random_feasible_links(k, count, seed):
    """Draw link/regulation configs until `count` feasible ones are found."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        alpha = rng.uniform(2.6, 5.0)
        d = rng.uniform(0.5, 3.0)
        h = rng.uniform(0.5, 4.0)
        power = rng.uniform(0.5, 2.0)
        snr_db = rng.uniform(0.0, 12.0)
        model = BoundedPowerLaw(alpha)
        noise = power * model.eval(d) / 10.0 ** (snr_db / 10.0)
        link = LinkBudget(power, noise, d, model)
        if criticality_feasible(link, h, k):
            found.append((link, h))
    return found


def test_link_budget_validation_and_snr():
    link = reference_link()
    assert link.snr == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        LinkBudget(0.0, 1.0, 1.0, BoundedPowerLaw(4))
    with pytest.raises(ValueError):
        LinkBudget(1.0, 0.0, 1.0, BoundedPowerLaw(4))
    for bad in (math.nan, math.inf):
        for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(ValueError):
                LinkBudget(*args, BoundedPowerLaw(4))


def test_link_budget_is_an_immutable_value():
    model = BoundedPowerLaw(4)
    link = LinkBudget(1.0, 0.5, 2.0, model)
    assert repr(link) == ("LinkBudget(power=1.0, noise=0.5, distance=2.0, "
                          "model=BoundedPowerLaw(alpha=4.0))")
    twin = LinkBudget(1.0, 0.5, 2.0, model)
    assert twin == link and hash(twin) == hash(link)
    assert LinkBudget(1.0, 0.25, 2.0, model) != link
    assert len({link, twin}) == 1
    for name in ("power", "snr", "other"):
        with pytest.raises(AttributeError):
            setattr(link, name, 2.0)
    # each invalid field raises, whichever way the link is made; 1e78 gives
    # a subnormal signal power, 1e-320 a subnormal power or noise
    for fields in (dict(power=-1.0), dict(power=1e-320), dict(noise=-1.0),
                   dict(noise=1e-320), dict(distance=-1.0),
                   dict(distance=1e78), dict(distance=math.nan)):
        with pytest.raises(ValueError):
            LinkBudget(**{**link._asdict(), **fields})
        with pytest.raises(ValueError):
            link._replace(**fields)


def test_link_at_snr_noise_and_range():
    model = BoundedPowerLaw(4)
    for power, snr_db in ((1.0, 0.0), (2.0, -7.5), (0.5, 12.0)):
        link = link_at_snr(power, D_HEX, model, snr_db)
        ref = reference_link(snr_db, power)
        assert (link.power, link.noise, link.distance, link.model) == (
            ref.power, ref.noise, ref.distance, model)
        assert link.snr == pytest.approx(10.0 ** (snr_db / 10.0), rel=1e-12)
    # the linear SNR underflows to 0, overflows or is NaN
    for bad in (-4000.0, -math.inf, 4000.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="out of float range"):
            link_at_snr(1.0, D_HEX, model, bad)
    # a subnormal power, signal or noise, named by its power and distance;
    # the smallest normal powers still give the rate of the unit power
    for power, d, snr_db in ((1e-320, D_HEX, 0.0), (1.0, 1e78, 0.0),
                             (1.0, 1e160, 0.0), (1e-300, D_HEX, 90.0)):
        with pytest.raises(ValueError, match=re.escape(
                f"power {power} at distance {d} gives")):
            link_at_snr(power, d, model, snr_db)
    tiny = link_at_snr(1e-300, D_HEX, model, 0.0)
    assert rate_always_active(tiny, 2.0) == pytest.approx(
        rate_always_active(link_at_snr(1.0, D_HEX, model, 0.0), 2.0),
        rel=1e-12)


def test_theta_reference_value():
    assert theta(reference_link(), 2.0) == pytest.approx(
        0.1610065885770133, rel=1e-12)


def test_theta_limits():
    link = reference_link()
    noisy = LinkBudget(link.power, 1e9, link.distance, link.model)
    assert theta(noisy, 2.0) < 1e-9
    # huge separation: interference bound vanishes, theta approaches the SNR
    assert theta(link, 1e6) == pytest.approx(link.snr, rel=1e-6)
    # no interference in float range and W/P below it: theta is the SNR
    quiet = link_at_snr(1e300, 1e37, BoundedPowerLaw(8.0), 300.0)
    assert interference_bound(quiet.model, 1e60, quiet.distance) == 0
    assert quiet.noise / quiet.power == 0
    assert theta(quiet, 1e60) == quiet.snr == pytest.approx(1e30)


def test_theta_strictly_increasing_in_h_and_power():
    link = reference_link()
    values = [theta(link, h) for h in np.linspace(1.0, 12.0, 30)]
    assert all(x < y for x, y in zip(values, values[1:]))
    powers = [theta(LinkBudget(p, link.noise, link.distance, link.model),
                    2.0) for p in np.linspace(0.2, 3.0, 15)]
    assert all(x < y for x, y in zip(powers, powers[1:]))


def test_rate_always_active_values():
    link = reference_link()
    guarantee = rate_always_active(link, 2.0)
    assert type(guarantee) is float
    assert guarantee == pytest.approx(0.14928737761525365, rel=1e-12)
    noisy = LinkBudget(link.power, 1e12, link.distance, link.model)
    assert rate_always_active(noisy, 2.0) < 1e-9
    bits = rate_always_active(link, 2.0, log_base="2")
    assert bits == pytest.approx(guarantee / math.log(2.0), rel=1e-12)
    with pytest.raises(ValueError, match=r"unknown log base '10' \(use"):
        rate_always_active(link, 2.0, log_base="10")


def test_rate_scheduled_values():
    link = reference_link()
    aa = rate_always_active(link, 2.0)
    k1 = rate_scheduled(link, 1, 2.0)
    assert type(k1) is float
    assert k1 == pytest.approx(aa, rel=1e-15)
    k3 = rate_scheduled(link, 3, H3)
    assert k3 == pytest.approx(0.17936180805151722, rel=1e-12)
    k4 = rate_scheduled(link, 4, H4)
    assert k4 == pytest.approx(0.1522095111934214, rel=1e-12)
    # the slot share is the only k dependence at fixed separation
    assert rate_scheduled(link, 6, H3) == pytest.approx(k3 / 2, rel=1e-12)


@pytest.mark.parametrize("k", [math.nan, math.inf, 2.5, 0, -3])
def test_reuse_factor_must_be_a_positive_integer(k):
    link = reference_link()
    for call in (lambda: criticality_feasible(link, 2.0, k),
                 lambda: rate_scheduled(link, k, H3),
                 lambda: solve_critical_hk(link, 2.0, k),
                 lambda: critical_power(link, 2.0, k, H3)):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            call()
    # numpy integers are integers
    assert rate_scheduled(link, np.int64(3), H3) == rate_scheduled(link, 3, H3)


def test_criticality_feasible_cases():
    link = reference_link()
    assert criticality_feasible(link, 2.0, 3)
    assert criticality_feasible(link, 2.0, 1)
    # noise-free: the SNR ceiling is infinite, any k works
    quiet = LinkBudget(1.0, 1e-300, D_HEX, BoundedPowerLaw(4))
    assert criticality_feasible(quiet, 2.0, 50)
    # -5 dB: the ceiling is below three always-active rates
    assert not criticality_feasible(reference_link(snr_db=-5.0), 2.0, 3)


def test_solve_critical_hk_identity_for_k1():
    link = reference_link()
    assert solve_critical_hk(link, 2.0, 1) == 2.0


def test_solve_critical_hk_reference_values():
    link = reference_link()
    h3_star = solve_critical_hk(link, 2.0, 3)
    h4_star = solve_critical_hk(link, 2.0, 4)
    assert h3_star == pytest.approx(3.071210279038736, rel=1e-9)
    assert h4_star == pytest.approx(3.8825646260611455, rel=1e-9)
    assert 3.00 <= h3_star <= 3.25
    assert 3.70 <= h4_star <= 3.95


def test_solve_critical_hk_infeasible_raises():
    with pytest.raises(InfeasibleError):
        solve_critical_hk(reference_link(snr_db=-5.0), 2.0, 3)


def test_solve_critical_hk_scale_invariance():
    # theta depends on (P, W) only through their ratio, so joint scaling
    # leaves the critical separation unchanged
    link = reference_link()
    base = solve_critical_hk(link, 2.0, 3)
    for c in (0.5, 2.0, 10.0):
        scaled = LinkBudget(c * link.power, c * link.noise, link.distance,
                            link.model)
        assert solve_critical_hk(scaled, 2.0, 3) == pytest.approx(base, rel=1e-9)


def test_solve_critical_hk_base_independent():
    link = reference_link()
    h_star = solve_critical_hk(link, 2.0, 3)
    lhs = rate_scheduled(link, 3, h_star, log_base="2")
    rhs = rate_always_active(link, 2.0, log_base="2")
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_rate_round_trip_at_critical_separation():
    for k in (3, 4):
        for link, h in random_feasible_links(k, 10, seed=100 + k):
            h_star = solve_critical_hk(link, h, k)
            sched = rate_scheduled(link, k, h_star)
            aa = rate_always_active(link, h)
            assert sched == pytest.approx(aa, rel=1e-9)


def test_scheduling_verdict_flips_at_critical_separation():
    link = reference_link()
    aa = rate_always_active(link, 2.0)
    for k in (3, 4):
        h_star = solve_critical_hk(link, 2.0, k)
        assert rate_scheduled(link, k, 1.05 * h_star) > aa
        assert rate_scheduled(link, k, 0.95 * h_star) < aa


def test_critical_power_reference_values():
    link = reference_link()
    p3 = critical_power(link, 2.0, 3, H3)
    assert isinstance(p3, float)
    assert p3 == pytest.approx(0.7315496960790584, rel=1e-12)
    assert p3 <= link.power
    p4 = critical_power(link, 2.0, 4, H4)
    assert p4 == pytest.approx(0.9697505857945408, rel=1e-12)
    assert p4 <= link.power


def test_critical_power_boundary_and_infeasible():
    link = reference_link()
    h_star = solve_critical_hk(link, 2.0, 3)
    boundary = critical_power(link, 2.0, 3, h_star)
    assert boundary == pytest.approx(link.power, rel=1e-9)
    with pytest.raises(InfeasibleError):
        critical_power(link, 2.0, 3, 2.0)  # h_k far below critical
    # no critical separation exists at k = 4000, so the message names only
    # the h_k at hand
    assert not criticality_feasible(link, 2.0, 4000)
    with pytest.raises(InfeasibleError, match=r"^at h_k = 8\.0 no power "
                       "reaches the always-active rate$"):
        critical_power(link, 2.0, 4000, 8.0)
    # (1 + theta)^5000 - 1 is beyond float range: no power reaches it
    with pytest.raises(InfeasibleError, match=r"^no power and no h_k reach "
                       "the always-active rate at k = 5000"):
        critical_power(link, 2.0, 5000, 8.0)


@pytest.mark.parametrize("k", [3, 4])
def test_critical_power_where_one_plus_theta_rounds_to_one(k):
    # at -200 dB theta is about 1e-20, so (1 + theta)^k - 1 is 0 in floats;
    # the needed SIR is about k*theta, and the power about k times P
    link = reference_link(snr_db=-200.0)
    assert 1 + theta(link, 2.0) == 1
    assert critical_power(link, 2.0, k, 4.0) == pytest.approx(k, rel=1e-9)


def test_critical_power_round_trip():
    for k in (3, 4):
        for link, h in random_feasible_links(k, 10, seed=200 + k):
            h_star = solve_critical_hk(link, h, k)
            h_k = 1.3 * h_star
            reduced = critical_power(link, h, k, h_k)
            assert reduced <= link.power
            dialed = LinkBudget(reduced, link.noise, link.distance,
                                link.model)
            assert rate_scheduled(dialed, k, h_k) == pytest.approx(
                rate_always_active(link, h), rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(2.5, 6.0), h=st.floats(0.5, 5.0),
       d_over_h=st.floats(0.3, 2.0), k=st.sampled_from((2, 3, 4)),
       snr_db=st.floats(-5.0, 20.0), power=st.floats(0.5, 2.0))
def test_critical_power_at_critical_hk_is_the_full_power(alpha, h, d_over_h,
                                                         k, snr_db, power):
    link = reference_link(snr_db, power, alpha, d_over_h * h)
    assume(criticality_feasible(link, h, k))
    h_k = solve_critical_hk(link, h, k)
    assert critical_power(link, h, k, h_k) == pytest.approx(
        power, rel=1e-9)
