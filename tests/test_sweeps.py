"""The four analytic sweeps against the public functions, point by point.

bound-compare and critical-power run the grid routines whose one-point
cases are legacy_bound and critical_power, and compute once what does not
depend on their sweep variable.  Each sweep's rows must equal, bit for
bit, the rows built from one call of the public functions per point, and
its errors the errors those calls raise first.
"""

import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellbounds import bounds, cli, guarantees
from cellbounds.bounds import (exclusion_radius, interference_bound,
                               legacy_bound)
from cellbounds.guarantees import (InfeasibleError, critical_power,
                                   criticality_feasible, link_at_snr,
                                   rate_always_active, rate_scheduled,
                                   solve_critical_hk)
from cellbounds.hexnet import HexRatePoint, hardcore_for_reuse
from cellbounds.pathloss import BoundedPowerLaw
from oracles import exact_bound_alpha4

A_HEX = 4 / math.sqrt(3.0)


def sweep_rows(*argv):
    """The rows a sweep hands to the CSV writer."""
    written = []
    with mock.patch.object(cli, "_write_csv",
                           lambda args, header, rows, footer=():
                           written.append(list(rows))):
        assert cli.main(list(argv)) == 0
    (rows,) = written
    return rows


alphas = st.floats(2.0, 8.0, exclude_min=True)
lengths = st.floats(0.25, 6.0)
powers = st.floats(0.1, 10.0)
snrs = st.floats(-20.0, 30.0)
log_bases = st.sampled_from(["nat", "2"])


@st.composite
def grids(draw, lo, hi):
    """(min, max, step) of a grid of 1 to about 60 points in [lo, hi]."""
    start = draw(st.floats(lo, hi))
    step = draw(st.floats(0.05, 2.0))
    stop = draw(st.floats(start, min(hi, start + 60 * step)))
    return start, stop, step


def options(**values):
    """``--name=value`` for each keyword, so that argparse reads a value
    such as -5e-166 as a number, not as an option."""
    return [f"--{name.replace('_', '-')}={value!r}"
            for name, value in values.items()]


def grid_options(prefix, grid):
    start, stop, step = grid
    return options(**{f"{prefix}_min": start, f"{prefix}_max": stop,
                      f"{prefix}_step": step})


@settings(max_examples=60, deadline=None)
@given(alpha_list=st.lists(alphas, min_size=1, max_size=3),
       h=st.floats(0.25, 4.0), grid=grids(0.0, 12.0))
@example(alpha_list=[2.5, 3.0, 4.0], h=1.0, grid=(1.0, 10.0, 0.1))
def test_bound_compare_rows_are_the_pointwise_bounds(alpha_list, h, grid):
    argv = ["bound-compare", *options(hardcore=h), *grid_options("t", grid)]
    for alpha in alpha_list:
        argv += options(alpha=alpha)
    expected = []
    for alpha in alpha_list:
        model = BoundedPowerLaw(alpha)
        for t in cli._grid(*grid):
            d = max(t, h)
            expected.append((exclusion_radius(d, h), alpha,
                             interference_bound(model, h, d),
                             legacy_bound(model, h, d)))
    assert sweep_rows(*argv) == expected


def link_options(alpha, h, d, power, snr_db):
    return options(alpha=alpha, hardcore=h, d=d, power=power, snr_db=snr_db)


@settings(max_examples=60, deadline=None)
@given(alpha=alphas, h=st.floats(0.5, 4.0), d=lengths, power=powers,
       snr_db=snrs, k=st.sampled_from([3, 4]), log_base=log_bases,
       grid=grids(0.5, 12.0))
@example(alpha=4.0, h=2.0, d=A_HEX, power=1.0, snr_db=-5.0, k=3,
         log_base="nat", grid=(2.0, 8.0, 0.1))   # criticality infeasible
def test_rate_vs_hk_rows_are_the_pointwise_rates(alpha, h, d, power, snr_db,
                                                 k, log_base, grid):
    link = link_at_snr(power, d, BoundedPowerLaw(alpha), snr_db)
    aa = rate_always_active(link, h, log_base)
    hk_star = (solve_critical_hk(link, h, k)
               if criticality_feasible(link, h, k) else None)
    expected = [(h_k, rate_scheduled(link, k, h_k, log_base), aa, hk_star)
                for h_k in cli._grid(*grid)]
    assert sweep_rows("rate-vs-hk", *options(k=k), "--log-base", log_base,
                      *link_options(alpha, h, d, power, snr_db),
                      *grid_options("hk", grid)) == expected


@settings(max_examples=60, deadline=None)
@given(alpha=alphas, h=st.floats(0.5, 4.0), d=lengths, power=powers,
       snr_db=snrs, ks=st.lists(st.sampled_from([3, 4]), min_size=1,
                                max_size=3),
       grid=grids(0.5, 12.0))
@example(alpha=4.0, h=2.0, d=A_HEX, power=1.0, snr_db=0.0, ks=[3, 4],
         grid=(2.0, 8.0, 0.1))   # the defaults: infeasible rows below h_k*
@example(alpha=2.0000000000000004, h=0.5, d=1.0, power=1.0, snr_db=0.0,
         ks=[3], grid=(1.0, 1.0, 1.0))   # 1 + theta(P, h) rounds to 1
def test_critical_power_rows_are_the_pointwise_powers(alpha, h, d, power,
                                                      snr_db, ks, grid):
    link = link_at_snr(power, d, BoundedPowerLaw(alpha), snr_db)
    expected = []
    for k in ks:
        for h_k in cli._grid(*grid):
            try:
                p = critical_power(link, h, k, h_k)
            except InfeasibleError:
                expected.append((k, h_k, None, "false"))
            else:
                flag = "true" if p <= power else "false"
                expected.append((k, h_k, p, flag))
    argv = ["critical-power", *link_options(alpha, h, d, power, snr_db),
            *grid_options("hk", grid)]
    for k in ks:
        argv += options(k=k)
    assert sweep_rows(*argv) == expected


@settings(max_examples=60, deadline=None)
@given(alpha=alphas, a=lengths, power=powers, log_base=log_bases,
       grid=grids(-20.0, 30.0))
def test_hex_sweep_rows_are_the_pointwise_rates(alpha, a, power, log_base,
                                                grid):
    model = BoundedPowerLaw(alpha)
    h1, h3, h4 = (hardcore_for_reuse(a, k) for k in (1, 3, 4))
    expected = []
    for snr_db in cli._grid(*grid):
        link = link_at_snr(power, a, model, snr_db)
        expected.append(HexRatePoint(
            snr_db, rate_always_active(link, h1, log_base),
            rate_scheduled(link, 3, h3, log_base),
            rate_scheduled(link, 4, h4, log_base)))
    assert sweep_rows("hex-sweep", *options(a=a, alpha=alpha, power=power),
                      "--log-base", log_base,
                      *grid_options("snr", grid)) == expected


def count_calls(monkeypatch, name, *modules):
    """The argument tuples of every call of ``name`` made through its
    binding in any of ``modules``."""
    calls = []
    real = getattr(modules[0], name)
    for module in modules:
        monkeypatch.setattr(module, name,
                            lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("command, name, modules, count", [
    # rho_h and nu_h once, not twice per exclusion radius and exponent
    ("bound-compare", "hardcore_regulation_constants", (bounds,), 1),
    # theta(P, h) once, not once per row
    ("critical-power", "theta", (guarantees,), 1),
], ids=lambda v: v if isinstance(v, str) else None)
def test_sweep_computes_its_invariants_once(monkeypatch, command, name,
                                            modules, count):
    calls = count_calls(monkeypatch, name, *modules)
    sweep_rows(command)
    assert len(calls) == count


def test_critical_power_shares_each_h_k_bound_across_every_k(monkeypatch):
    calls = count_calls(monkeypatch, "interference_bound", guarantees)
    rows = sweep_rows("critical-power")
    hk_grid = cli._grid(2.0, 8.0, 0.1)
    assert [h_k for _, h_k, _, _ in rows] == hk_grid * 2   # k = 3 and 4
    # theta(P, h) at h = 2, then one bound per h_k
    assert [h for _, h, _ in calls] == [2.0, *hk_grid]


@pytest.mark.parametrize("argv", [
    ("bound-compare", "--hardcore", "0", "--t-min", "1e20", "--t-max", "1e20"),
    ("bound-compare", "--alpha", "2", "--t-min", "1e20", "--t-max", "1e20"),
    ("critical-power", "--k", "0", "--hk-min", "1e20", "--hk-max", "1e20"),
    ("critical-power", "--alpha", "2", "--hk-min", "1e20",
     "--hk-max", "1e20"),
    ("hex-sweep", "--alpha", "2", "--snr-min", "1e20", "--snr-max", "1e20"),
], ids=" ".join)
def test_empty_grid_checks_no_bound(argv):
    # the span rounds to no point: no pointwise call, so no error either
    assert cli._grid(1e20, 1e20, 0.1) == []
    assert sweep_rows(*argv) == []


ERROR_CASES = [
    (("bound-compare", "--alpha", "2"), 2,
     "int r l(r) dr diverges for alpha = 2.0 <= 2"),
    (("rate-vs-hk", "--alpha", "2"), 2,
     "int r l(r) dr diverges for alpha = 2.0 <= 2"),
    (("critical-power", "--alpha", "2"), 2,
     "int r l(r) dr diverges for alpha = 2.0 <= 2"),
    (("hex-sweep", "--alpha", "2"), 2,
     "int r l(r) dr diverges for alpha = 2.0 <= 2"),
    # the grid is capped before the divergent bound is computed
    (("critical-power", "--alpha", "2", "--hk-step", "1", "--hk-max", "2e6"),
     1, "grid of 2e+06 points is too long (more than 1000000)"),
    # the first link is checked before the hexagonal bounds
    (("hex-sweep", "--a", "1e160"), 1,
     "power 1.0 at distance 1e+160 gives signal power 0 and noise power 0; "
     "each must be at least 2.23e-308"),
    (("hex-sweep", "--a", "1e78"), 1,
     "power 1.0 at distance 1e+78 gives signal power 1e-312 and noise power "
     "3.16e-311; each must be at least 2.23e-308"),
    # the exclusion radius is checked before rho_h and nu_h
    (("bound-compare", "--hardcore", "0"), 1,
     "hardcore half-distance must be positive and finite, got 0.0"),
    (("bound-compare", "--hardcore", "1e160"), 1,
     "hardcore half-distance must give positive finite rho_h and nu_h, "
     "got 1e+160"),
    (("critical-power", "--k", "3", "--hardcore", "0"), 1,
     "hardcore half-distance must be positive and finite, got 0.0"),
    (("critical-power", "--hardcore", "1e-170"), 1,
     "hardcore half-distance must give positive finite rho_h and nu_h, "
     "got 1e-170"),
    # k is checked before theta(P, h), whose bound would diverge here
    (("critical-power", "--k", "0"), 1, "k must be a positive integer"),
    (("critical-power", "--k", "0", "--alpha", "2"), 1,
     "k must be a positive integer"),
    (("critical-power", "--k", "3", "--k", "0", "--alpha", "2"), 2,
     "int r l(r) dr diverges for alpha = 2.0 <= 2"),
    (("rate-vs-hk", "--k", "0"), 1, "k must be a positive integer"),
    (("rate-vs-hk", "--k", "-3"), 1, "k must be a positive integer"),
    # a valid link whose always-active SINR bound rounds to 0
    (("critical-power", "--alpha", "2.1", "--d", "1e140", "--hardcore",
      "1e-25", "--power", "1e300"), 1,
     "the SINR bound at h = 1e-25 is 0, below 2.23e-308: attenuation "
     "1e-294, interference bound 1.9e+37 and noise-to-power ratio 1e-294"),
    (("rate-vs-hk", "--alpha", "2.1", "--d", "1e140", "--hardcore",
      "1e-25", "--power", "1e300"), 1,
     "the SINR bound at h = 1e-25 is 0, below 2.23e-308: attenuation "
     "1e-294, interference bound 1.9e+37 and noise-to-power ratio 1e-294"),
    # ... or to a subnormal, with too few bits to be a guarantee; wherever
    # the envelope G(t) overflows, theta < 1/(nu_h t^2) is below 5.6e-309
    (("critical-power", "--hardcore", "1e-20", "--alpha", "2.1", "--d",
      "1e140", "--power", "1e300"), 1,
     "the SINR bound at h = 1e-20 is 5.24e-322, below 2.23e-308: "
     "attenuation 1e-294, interference bound 1.9e+27 and noise-to-power "
     "ratio 1e-294"),
    (("rate-vs-hk", "--hardcore", "1e-20", "--alpha", "2.1", "--d",
      "1e140", "--power", "1e300"), 1,
     "the SINR bound at h = 1e-20 is 5.24e-322, below 2.23e-308: "
     "attenuation 1e-294, interference bound 1.9e+27 and noise-to-power "
     "ratio 1e-294"),
    (("bound-compare", "--t-step", "0"), 1, "grid step must be positive"),
]


@pytest.mark.parametrize("argv, code, message", ERROR_CASES,
                         ids=[" ".join(argv) for argv, _, _ in ERROR_CASES])
def test_sweep_error_is_the_first_pointwise_error(tmp_path, capsys, argv,
                                                  code, message):
    out = tmp_path / "x.csv"
    assert cli.main([*argv, "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


def test_rates_and_reduced_powers_scale_with_a_huge_power():
    # P * bound overflowed at P = 1e300, where theta read 0; the rates
    # depend only on the SNR, and P_k* scales with P
    flags = ("--hardcore", "1e-5", "--hk-max", "3")
    rates = sweep_rows("rate-vs-hk", *flags)
    huge = sweep_rows("rate-vs-hk", "--power", "1e300", *flags)
    assert rates[0][2] == pytest.approx(1.03373571062e-11, rel=1e-11)
    assert rates[0][3] == pytest.approx(1.73205446784e-05, rel=1e-11)
    assert [v for row in huge for v in row] == pytest.approx(
        [v for row in rates for v in row], rel=1e-12)
    powers = sweep_rows("critical-power", *flags)
    huge = sweep_rows("critical-power", "--power", "1e300", *flags)
    assert [(k, h_k, ok) for k, h_k, _, ok in huge] == [
        (k, h_k, ok) for k, h_k, _, ok in powers]
    assert all(ok == "true" for *_, ok in powers)
    assert [p / 1e300 for _, _, p, _ in huge] == pytest.approx(
        [p for _, _, p, _ in powers], rel=1e-12)


def test_bound_compare_is_finite_where_the_envelope_overflows():
    # nu_h t^2 overflows at h = 1e-100 and t = 1e60, where the bound is
    # about 1.8e80; the legacy bound never evaluates the envelope there
    rows = sweep_rows("bound-compare", "--hardcore", "1e-100", "--t-min",
                      "1e60", "--t-max", "2e60", "--t-step", "1e60",
                      "--alpha", "4")
    assert [t for t, *_ in rows] == [1e60, 2e60]
    for t, _, new, legacy in rows:
        assert new == pytest.approx(float(exact_bound_alpha4(1e-100, t)),
                                    rel=1e-14)
        assert new < legacy < math.inf
    assert rows[0][2] == pytest.approx(1.81379936423e+80, rel=1e-11)
