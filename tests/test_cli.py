import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellbounds import cli

A_HEX = 4 / math.sqrt(3.0)


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


def test_verify_negative_trials_is_usage_error(tmp_path, capsys):
    code, out = run(tmp_path, "neg.csv", "verify", "--trials", "-5")
    assert code == 1
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("bound-compare", "--alpha", "nan"),
    ("rate-vs-hk", "--hardcore", "nan"),
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
])
def test_bad_grid_or_distance_is_one_line_usage_error(tmp_path, capsys, argv):
    # the 1e-300 step asks for ~6e300 points: refused before any is built
    code, out = run(tmp_path, "bad.csv", *argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


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
