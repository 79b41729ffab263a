import argparse
import hashlib
import io
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellbounds import cli

A_HEX = 4 / math.sqrt(3.0)

# sha256 of each sweep's CSV at its CLI defaults
SWEEP_SHA256 = {
    "bound-compare":
        "3298d58a92705bba61b0ca2d298aa8186ca8daf71cbc8df4a48e05eb2eed0e9d",
    "rate-vs-hk":
        "6752a90ca55cf8ae60906c4a98a9150df8104ee6daa6b7b02776f13611f4a86a",
    "critical-power":
        "764878eb05a76f14f18cf743ae237afd2efd88d9109e97f016190297213b069e",
    "hex-sweep":
        "abbd8f1ca5d3d70e27999f51b05590592f2582db9537d573b5d8b19c12731ae5",
}
# sha256 of verify --suite all --trials 3 --window 400 --seed 5
WIDE_VERIFY_SHA256 = (
    "7c68152e18da376ffc491e9217567ab061270866cf2c3cddff68d6a792b412bb")


def run(tmp_path, name, *argv):
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    return code, out


def parse_csv(path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    rows = [ln.split(",") for ln in data[1:]]
    return comments, header, rows


def test_bound_compare_output(tmp_path):
    code, out = run(tmp_path, "fig1.csv", "bound-compare",
                    "--t-max", "5", "--t-step", "0.5")
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == ["t", "alpha", "new_bound", "legacy_bound"]
    assert any("command = bound-compare" in c for c in comments)
    for t, alpha, new, legacy in ((float(a), float(b), float(c), float(d))
                                  for a, b, c, d in rows):
        if t == 1.0:
            assert new == pytest.approx(legacy, abs=1e-9)
        else:
            assert new < legacy
    # per-exponent monotonicity in t
    by_alpha = {}
    for t, alpha, new, _ in ((float(a), float(b), float(c), float(d))
                             for a, b, c, d in rows):
        by_alpha.setdefault(alpha, []).append((t, new))
    for series in by_alpha.values():
        vals = [v for _, v in sorted(series)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(-1e3, 1e3), width=st.floats(0.0, 1e2),
       step=st.floats(1e-2, 1e2))
@example(lo=1.0, width=9.0, step=0.1)      # bound-compare defaults
@example(lo=2.0, width=6.0, step=0.1)      # rate-vs-hk, critical-power
@example(lo=-15.0, width=30.0, step=0.1)   # hex-sweep
def test_grid_equals_numpy_arange(lo, width, step):
    hi = lo + width
    assert cli._grid(lo, hi, step) == np.arange(lo, hi + step / 2,
                                                 step).tolist()


def test_grid_longer_than_the_cap_is_refused_before_it_is_built():
    cap = cli._MAX_GRID_POINTS
    for lo, hi, step in ((0.0, float(cap), 1.0),    # one point too many
                         (0.0, 1e-300, 1e-310)):   # about 1e10 points
        with pytest.raises(cli._UsageError, match="too long"):
            cli._grid(lo, hi, step)
    assert len(cli._grid(0.0, cap - 1.0, 1.0)) == cap


def test_bound_compare_rejects_bad_range(tmp_path):
    code, _ = run(tmp_path, "x.csv", "bound-compare", "--t-min", "5",
                  "--t-max", "1")
    assert code == 1


def test_rate_vs_hk_crossing(tmp_path):
    code, out = run(tmp_path, "fig2.csv", "rate-vs-hk", "--k", "3",
                    "--hk-step", "0.05")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["H_K", "rate_scheduled", "rate_aa", "H_K_star"]
    h_star = float(rows[0][3])
    assert 3.00 <= h_star <= 3.25
    diffs = [float(r[1]) - float(r[2]) for r in rows]
    hks = [float(r[0]) for r in rows]
    # the scheduled curve crosses the flat AA guarantee exactly at h*
    for h_k, diff in zip(hks, diffs):
        if h_k < h_star - 0.05:
            assert diff < 0
        elif h_k > h_star + 0.05:
            assert diff > 0


def test_rate_vs_hk_low_snr_footer(tmp_path):
    code, out = run(tmp_path, "fig3.csv", "rate-vs-hk", "--k", "3",
                    "--snr-db", "-5")
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert any("criticality infeasible" in c for c in comments)
    assert all(r[3] == "" for r in rows)
    assert all(float(r[1]) < float(r[2]) for r in rows)


def test_critical_power_reference_points(tmp_path):
    h3 = 2 * math.sqrt(3.0)
    code, out = run(tmp_path, "fig4a.csv", "critical-power", "--k", "3",
                    "--hk-min", repr(h3), "--hk-max", repr(h3),
                    "--hk-step", "1")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][2]) == pytest.approx(0.7315, abs=2e-3)
    assert rows[0][3] == "true"
    code, out = run(tmp_path, "fig4b.csv", "critical-power", "--k", "4",
                    "--hk-min", "4", "--hk-max", "4", "--hk-step", "1")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][2]) == pytest.approx(0.9698, abs=2e-3)


def test_critical_power_marks_infeasible_rows(tmp_path):
    code, out = run(tmp_path, "fig4c.csv", "critical-power", "--k", "3",
                    "--hk-min", "2", "--hk-max", "2.5", "--hk-step", "0.25")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert all(r[2] == "" and r[3] == "false" for r in rows)
    # the SIR that 5000 classes need overflows a float: infeasible too
    code, out = run(tmp_path, "fig4d.csv", "critical-power", "--k", "5000",
                    "--hk-step", "2")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [r[:2] for r in rows] == [["5000", h] for h in "2468"]
    assert all(r[2] == "" and r[3] == "false" for r in rows)


def test_hex_sweep_regimes(tmp_path):
    code, out = run(tmp_path, "fig5.csv", "hex-sweep", "--snr-step", "0.5")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["snr_db", "rate_aa", "rate_k3", "rate_k4"]
    table = {float(r[0]): tuple(map(float, r[1:])) for r in rows}
    aa, k3, k4 = table[0.0]
    assert k3 > aa and k4 > aa
    aa, k3, k4 = table[-15.0]
    assert aa > k3 and aa > k4
    aa, k3, k4 = table[15.0]
    assert k4 > aa and k4 > k3
    diffs3 = [v[1] - v[0] for _, v in sorted(table.items())]
    assert sum(1 for x, y in zip(diffs3, diffs3[1:]) if np.sign(x) != np.sign(y)) == 1


def test_outputs_byte_identical_across_runs(tmp_path):
    _, first = run(tmp_path, "a.csv", "hex-sweep", "--snr-step", "1")
    _, second = run(tmp_path, "b.csv", "hex-sweep", "--snr-step", "1")
    assert first.read_bytes() == second.read_bytes()
    _, v1 = run(tmp_path, "v1.csv", "verify", "--suite", "interference",
                "--trials", "5", "--seed", "3")
    _, v2 = run(tmp_path, "v2.csv", "verify", "--suite", "interference",
                "--trials", "5", "--seed", "3")
    assert v1.read_bytes() == v2.read_bytes()


def test_verify_suites_pass(tmp_path, capsys):
    code, out = run(tmp_path, "verify.csv", "verify", "--suite", "all",
                    "--trials", "5")
    assert code == 0
    captured = capsys.readouterr()
    assert "total violations: 0" in captured.out
    _, header, rows = parse_csv(out)
    assert header == ["seed", "d", "t", "realized", "bound", "ratio"]
    assert rows, "expected at least one record"
    assert all(float(r[5]) <= 1.0 for r in rows)


def test_verify_zero_trials_is_vacuous(tmp_path):
    code, out = run(tmp_path, "empty.csv", "verify", "--suite", "all",
                    "--trials", "0")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows == []


@pytest.mark.parametrize("argv, position, label, skipped", [
    # every Matern sample is empty
    (("--trials", "2", "--intensity", "1e-300"), 4, "interference-bound", 2),
    # the lattice window holds no site
    (("--suite", "interference", "--lattice-half-width", "0.5", "--trials",
      "2"), 1, "interference-bound", 1),
], ids=["empty-matern", "empty-lattice"])
def test_verify_suite_that_checks_nothing_is_usage_error(
        tmp_path, capsys, argv, position, label, skipped):
    # trials ran but every one was skipped: nothing was certified
    code, out = run(tmp_path, "none.csv", "verify", *argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err == (f"error: suite {position} ({label}) checked nothing: "
                   f"skipped={skipped} of trials={skipped}\n")
    assert not out.exists()


@pytest.mark.parametrize("option, value", [("--trials", "-5"),
                                           ("--seed", "-1")],
                         ids=["trials", "seed"])
def test_verify_negative_trials_is_usage_error(tmp_path, capsys, option,
                                               value):
    code, out = run(tmp_path, "neg.csv", "verify", option, value)
    assert code == 1
    assert option in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("bound-compare", "--alpha", "nan"),
    ("rate-vs-hk", "--hardcore", "nan"),
    ("verify", "--window", "inf"),
    ("verify", "--lattice-half-width", "inf"),
    ("verify", "--intensity", "nan"),
])
def test_non_finite_parameter_is_usage_error(tmp_path, capsys, argv):
    code, out = run(tmp_path, "nan.csv", *argv)
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("bound-compare", "--t-max", "inf"),
    ("bound-compare", "--t-step", "nan"),
    ("rate-vs-hk", "--hk-step", "1e-300"),
    ("critical-power", "--hk-step", "1e-300"),
    ("rate-vs-hk", "--d", "nan"),
    # an SNR whose linear value underflows to 0 or overflows
    ("rate-vs-hk", "--snr-db", "-4000"),
    ("rate-vs-hk", "--snr-db=-inf"),
    ("hex-sweep", "--snr-min", "-4000", "--snr-max", "-3999",
     "--snr-step", "1"),
    ("rate-vs-hk", "--snr-db", "4000"),
    ("critical-power", "--snr-db", "4000"),
    ("hex-sweep", "--snr-min", "4000", "--snr-max", "4000"),
    # a hardcore distance whose square underflows: rho_h, nu_h infinite
    ("bound-compare", "--hardcore", "1e-170"),
    ("rate-vs-hk", "--hardcore", "1e-170"),
    ("critical-power", "--hardcore", "1e-170"),
    ("hex-sweep", "--a", "1e-170"),
    ("verify", "--trials", "1", "--hardcore", "1e-170"),
    # and one whose square overflows: nu_h is 0
    ("bound-compare", "--hardcore", "1e160"),
    # a sample too large for memory: about 85 TiB, refused at once
    ("verify", "--trials", "2", "--intensity", "1e9"),
    # a Poisson mean that is not finite, and one above 2**62
    ("verify", "--trials", "1", "--window", "1e200"),
    ("verify", "--trials", "1", "--window", "1e10"),
    # a subnormal or zero power, received signal or noise power
    ("rate-vs-hk", "--power", "1e-320"),
    ("critical-power", "--power", "1e-320"),
    ("hex-sweep", "--a", "1e78"),
    ("hex-sweep", "--a", "1e160"),
    ("rate-vs-hk", "--d", "1e160"),
    # 2e6 points, over the cap; at --alpha 2 the bound diverges, so a grid
    # that got built would fail at its first point with exit code 2
    ("critical-power", "--alpha", "2", "--hk-step", "1", "--hk-max", "2e6"),
])
def test_bad_grid_or_distance_is_one_line_usage_error(tmp_path, capsys, argv):
    # the 1e-300 step asks for ~6e300 points: refused before any is built
    code, out = run(tmp_path, "bad.csv", *argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("case", [
    (("bound-compare", "--alpha", "3", "--alpha", "2.5", "--hardcore", "1.5",
      "--t-min", "2", "--t-max", "3", "--t-step", "0.5"),
     ["command = bound-compare", "alpha = 3 2.5", "hardcore = 1.5",
      "t_min = 2", "t_max = 3", "t_step = 0.5"]),
    (("rate-vs-hk", "--k", "4", "--alpha", "3", "--hardcore", "1.5", "--d",
      "2", "--snr-db", "3", "--power", "2", "--hk-min", "2", "--hk-max", "3",
      "--hk-step", "0.5", "--log-base", "2"),
     ["command = rate-vs-hk", "k = 4", "hardcore = 1.5", "d = 2",
      "snr_db = 3", "alpha = 3", "power = 2", "hk_min = 2", "hk_max = 3",
      "hk_step = 0.5", "log_base = 2"]),
    (("critical-power", "--k", "4", "--k", "3", "--alpha", "3", "--hardcore",
      "1.5", "--d", "2", "--snr-db", "3", "--power", "2", "--hk-min", "2",
      "--hk-max", "3", "--hk-step", "0.5"),
     ["command = critical-power", "k = 4 3", "hardcore = 1.5", "d = 2",
      "snr_db = 3", "alpha = 3", "power = 2", "hk_min = 2", "hk_max = 3",
      "hk_step = 0.5"]),
    (("hex-sweep", "--a", "3", "--alpha", "3", "--power", "2", "--snr-min",
      "-1", "--snr-max", "1", "--snr-step", "0.5", "--log-base", "2"),
     ["command = hex-sweep", "a = 3", "alpha = 3", "power = 2",
      "snr_min = -1", "snr_max = 1", "snr_step = 0.5", "log_base = 2"]),
    (("verify", "--suite", "ball", "--trials", "3", "--seed", "7", "--alpha",
      "3", "--hardcore", "1.5", "--a", "2", "--intensity", "0.05", "--window",
      "80", "--lattice-half-width", "30"),
     ["command = verify", "suite = ball", "trials = 3", "seed = 7",
      "alpha = 3", "hardcore = 1.5", "a = 2", "intensity = 0.05",
      "window = 80", "lattice_half_width = 30"]),
], ids=lambda case: case[0][0])
def test_header_echoes_every_option(tmp_path, case):
    # every option set away from its default: each must appear, once, in
    # declaration order, before the column names
    argv, echo = case
    code, out = run(tmp_path, "echo.csv", *argv)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[:len(echo)] == [f"# {line}" for line in echo]
    assert not lines[len(echo)].startswith("#")


def test_header_skips_options_without_a_value():
    buf = io.StringIO()
    cli._write_csv(argparse.Namespace(subcommand="demo", unset=None, k=3,
                                      out=buf), ["x"], [(1,)])
    assert buf.getvalue().splitlines() == ["# command = demo", "# k = 3",
                                           "x", "1"]


@pytest.mark.parametrize("command", sorted(SWEEP_SHA256))
def test_sweep_csv_bytes_are_pinned(tmp_path, command):
    code, out = run(tmp_path, f"{command}.csv", command)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_SHA256[command]


def test_wide_verify_csv_bytes_are_pinned(tmp_path):
    # about 17k points per Matern sample: the most thinning batch cuts
    code, out = run(tmp_path, "wide.csv", "verify", "--suite", "all",
                    "--trials", "3", "--window", "400", "--seed", "5")
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WIDE_VERIFY_SHA256


def test_shared_parser_carries_nothing_between_calls(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    assert run(tmp_path, "neg.csv", "verify", "--trials", "-1")[0] == 1
    assert cli.main(["--help"]) == 0
    # repeatable options set once must not stick to the parser
    for argv in (("bound-compare", "--alpha", "3"),
                 ("critical-power", "--k", "4")):
        assert run(tmp_path, "once.csv", *argv)[0] == 0
    for command in sorted(SWEEP_SHA256):
        code, out = run(tmp_path, f"{command}.csv", command)
        assert code == 0
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == SWEEP_SHA256[command])
    code, out = run(tmp_path, "wide.csv", "verify", "--suite", "all",
                    "--trials", "3", "--window", "400", "--seed", "5")
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WIDE_VERIFY_SHA256


def test_verify_detects_corrupted_hardcore_claim(tmp_path):
    # the lattice has half-gap 2; claiming 6 must trip the verifier
    code, _ = run(tmp_path, "bad.csv", "verify", "--suite", "interference",
                  "--trials", "1", "--hardcore", "6")
    assert code == 3


def test_verify_unknown_suite_is_usage_error(tmp_path):
    code, _ = run(tmp_path, "x.csv", "verify", "--suite", "bogus")
    assert code == 1


def test_divergent_exponent_is_infeasible_request(tmp_path):
    code, _ = run(tmp_path, "x.csv", "rate-vs-hk", "--alpha", "2")
    assert code == 2


def test_help_exits_cleanly():
    assert cli.main(["--help"]) == 0


def test_missing_subcommand_is_usage_error():
    assert cli.main([]) == 1


def test_figure_commands_fast_at_default_grids(tmp_path):
    import time
    for name, argv in [("bc", ["bound-compare"]), ("rh", ["rate-vs-hk"]),
                       ("cp", ["critical-power"]), ("hx", ["hex-sweep"])]:
        start = time.perf_counter()
        code, _ = run(tmp_path, f"{name}.csv", *argv)
        assert code == 0
        assert time.perf_counter() - start < 10.0


def test_verify_detects_sampler_with_half_the_gap(tmp_path, monkeypatch,
                                                  capsys):
    # a Matern sampler thinned at radius h instead of 2h breaks the hardcore
    # claim; at seed 42 the Matern interference records exceed their bound
    from cellbounds import montecarlo

    real = montecarlo.matern_factory
    monkeypatch.setattr(montecarlo, "matern_factory",
                        lambda intensity, radius, window:
                        real(intensity, radius / 2, window))
    code, _ = run(tmp_path, "half.csv", "verify", "--trials", "100",
                  "--seed", "42")
    assert code == 3
    assert "total violations: 7" in capsys.readouterr().out


def test_verify_builds_the_lattice_once(tmp_path, monkeypatch):
    # the scheduled suites recolor the lattice of the ball and interference
    # suites for each reuse factor
    from cellbounds import montecarlo

    calls = []
    real = montecarlo.gen_triangular_lattice
    monkeypatch.setattr(montecarlo, "gen_triangular_lattice",
                        lambda *args: calls.append(args) or real(*args))
    code, _ = run(tmp_path, "once.csv", "verify", "--suite", "all",
                  "--trials", "2")
    assert code == 0
    assert len(calls) == 1


def pin_workers(monkeypatch, workers):
    from cellbounds import montecarlo
    monkeypatch.setattr(montecarlo, "default_workers", lambda trials: workers)


@pytest.mark.parametrize("trials, seed", [(7, 5), (100, 42)])
def test_verify_output_is_the_same_for_any_worker_count(tmp_path, monkeypatch,
                                                        capfd, trials, seed):
    # 7 trials leave uneven shards; capfd also sees what forked children
    # write to the shared file descriptors
    outputs = []
    for workers in (1, 2, 3):
        pin_workers(monkeypatch, workers)
        code, out = run(tmp_path, f"w{workers}.csv", "verify", "--suite",
                        "all", "--trials", str(trials), "--seed", str(seed))
        captured = capfd.readouterr()
        outputs.append((code, out.read_bytes(), captured.out, captured.err))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
    lines = outputs[0][2].splitlines()
    assert len(lines) == 8 and len(set(lines)) == 8  # 7 suites and the total
    assert lines[-1] == "total violations: 0"


def test_verify_error_inside_a_shard_matches_one_worker(tmp_path, monkeypatch,
                                                        capfd):
    # no ball of radius 16 fits in a Matern window of side 20, so every
    # trial of that suite raises, in every shard
    outcomes = []
    for workers in (1, 2):
        pin_workers(monkeypatch, workers)
        code, out = run(tmp_path, "err.csv", "verify", "--window", "20",
                        "--trials", "4")
        captured = capfd.readouterr()
        outcomes.append((code, captured.out, captured.err, out.exists()))
    assert outcomes[1] == outcomes[0]
    code, stdout, stderr, written = outcomes[0]
    assert code == 1 and stdout == "" and not written
    assert stderr.startswith("error: window") and stderr.count("\n") == 1
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)
