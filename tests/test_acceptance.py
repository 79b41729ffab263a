"""Acceptance suite: every headline claim of the toolkit at its stated
tolerance, one pass/fail line per criterion (run with -s to see them)."""

import hashlib
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cellbounds import cli
from cellbounds.bounds import (exclusion_radius, interference_bound,
                               legacy_bound)
from cellbounds.guarantees import (LinkBudget, critical_power,
                                   criticality_feasible, rate_always_active,
                                   rate_scheduled, solve_critical_hk)
from cellbounds.pathloss import BoundedPowerLaw
from oracles import conditional_bound_general, interferer_envelope

A_HEX = 4 / math.sqrt(3.0)   # hexagon edge length; the worst-case user distance
H_AA = 2.0                   # always-active hardcore half-distance
H3 = 2 * math.sqrt(3.0)      # reuse-3 separation of the lattice
H4 = 4.0                     # reuse-4 separation of the lattice


def reference_link(snr_db=0.0, power=1.0, alpha=4.0):
    model = BoundedPowerLaw(alpha)
    noise = power * model.eval(A_HEX) / 10.0 ** (snr_db / 10.0)
    return LinkBudget(power, noise, A_HEX, model)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {title}")
        raise
    print(f"PASS  criterion {number}: {title}")


def test_criterion_1_reduced_power_reproduction():
    with criterion(1, "reduced power P_3* = 0.7315 +- 0.002, "
                      "P_4* = 0.9698 +- 0.002, under 1 s"):
        start = time.perf_counter()
        link = reference_link()
        p3 = critical_power(link, H_AA, 3, H3)
        p4 = critical_power(link, H_AA, 4, H4)
        elapsed = time.perf_counter() - start
        assert p3 == pytest.approx(0.7315, abs=2e-3)
        assert p4 == pytest.approx(0.9698, abs=2e-3)
        assert p3 <= link.power and p4 <= link.power
        assert elapsed < 1.0


def test_criterion_2_critical_separations():
    with criterion(2, "critical separations H_3* in [3.00, 3.25], "
                      "H_4* in [3.70, 3.95], under 1 s"):
        start = time.perf_counter()
        link = reference_link()
        h3_star = solve_critical_hk(link, H_AA, 3)
        h4_star = solve_critical_hk(link, H_AA, 4)
        elapsed = time.perf_counter() - start
        assert 3.00 <= h3_star <= 3.25
        assert 3.70 <= h4_star <= 3.95
        assert elapsed < 1.0


def test_criterion_3_round_trip_identities():
    with criterion(3, "round-trip rate identities to 1e-9 relative over "
                      "20 random feasible configs, k in {3, 4}"):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 20:
            alpha = rng.uniform(2.6, 5.0)
            d = rng.uniform(0.5, 3.0)
            h = rng.uniform(0.5, 4.0)
            power = rng.uniform(0.5, 2.0)
            snr_db = rng.uniform(0.0, 12.0)
            k = int(rng.choice([3, 4]))
            model = BoundedPowerLaw(alpha)
            noise = power * model.eval(d) / 10.0 ** (snr_db / 10.0)
            link = LinkBudget(power, noise, d, model)
            if not criticality_feasible(link, h, k):
                continue
            checked += 1
            aa = rate_always_active(link, h)
            h_star = solve_critical_hk(link, h, k)
            assert rate_scheduled(link, k, h_star) == pytest.approx(
                aa, rel=1e-9)
            h_k = h_star * rng.uniform(1.0, 2.0)
            reduced = critical_power(link, h, k, h_k)
            dialed = LinkBudget(reduced, link.noise, link.distance,
                                link.model)
            assert rate_scheduled(dialed, k, h_k) == pytest.approx(
                aa, rel=1e-9)


def test_criterion_4_bound_comparison():
    with criterion(4, "new bound ties the legacy bound at t = 1, is strictly "
                      "smaller on (1, 10] and strictly decreasing in t"):
        t_grid = np.arange(1.0, 10.0 + 1e-9, 0.05)
        for alpha in (2.5, 3.0, 4.0):
            model = BoundedPowerLaw(alpha)
            assert abs(interference_bound(model, 1.0, 1.0)
                       - legacy_bound(model, 1.0, 1.0)) < 1e-9
            previous = math.inf
            for t in t_grid:
                new = interference_bound(model, 1.0, float(t))
                if t > 1.0:
                    assert new < legacy_bound(model, 1.0, float(t))
                assert new < previous
                previous = new


def test_criterion_5_regime_flip():
    with criterion(5, "scheduling wins at 0 dB with the lattice separations; "
                      "always active wins at -5 dB for every h_k"):
        link = reference_link(snr_db=0.0)
        aa = rate_always_active(link, H_AA)
        assert rate_scheduled(link, 3, H3) > aa
        assert rate_scheduled(link, 4, H4) > aa
        low = reference_link(snr_db=-5.0)
        aa_low = rate_always_active(low, H_AA)
        for h_k in np.arange(2.0, 8.0 + 1e-9, 0.1):
            assert rate_scheduled(low, 3, float(h_k)) < aa_low
            assert rate_scheduled(low, 4, float(h_k)) < aa_low


def test_criterion_6_almost_sure_dominance(tmp_path):
    with criterion(6, "verify all: 1000 Matern trials plus full lattice "
                      "suites, zero violations, under 60 s"):
        out = tmp_path / "verify.csv"
        start = time.perf_counter()
        code = cli.main(["verify", "--suite", "all", "--trials", "1000",
                         "--seed", "42", "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 60.0
        rows = [ln for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert rows[0] == "seed,d,t,realized,bound,ratio"
        assert len(rows) > 9000  # 2 x 4000 ball checks + 1000 interference
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "7326befb9e31fa93ccf2fe749a0ebe2becf762efce8178df7e48679dcb09aa3f")


def test_criterion_7_oracle_equivalence():
    with criterion(7, "quadrature route matches the closed form to 1e-8 "
                      "relative on the alpha x h x t grid"):
        for alpha in (2.5, 3.0, 4.0):
            model = BoundedPowerLaw(alpha)
            for h in (1.0, 2.0, 4.0):
                envelope = interferer_envelope(h)
                for t in (1.0, 2.0, 5.0):
                    d = max(t, h)
                    t_real = exclusion_radius(d, h)
                    closed = interference_bound(model, h, d)
                    general = conditional_bound_general(model, envelope, t_real)
                    assert general == pytest.approx(closed, rel=1e-8)


def test_criterion_8_deterministic_outputs(tmp_path):
    with criterion(8, "identical flags and seed give byte-identical CSVs"):
        pairs = [
            (["bound-compare", "--t-step", "0.5"], "bc"),
            (["rate-vs-hk", "--k", "3"], "rh"),
            (["critical-power"], "cp"),
            (["hex-sweep", "--snr-step", "1"], "hx"),
            (["verify", "--suite", "interference", "--trials", "10",
              "--seed", "7"], "vf"),
        ]
        for argv, tag in pairs:
            first = tmp_path / f"{tag}1.csv"
            second = tmp_path / f"{tag}2.csv"
            assert cli.main([*argv, "--out", str(first)]) == 0
            assert cli.main([*argv, "--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), argv
