"""Tests of the benchmark's own checks and tracing.

Run from the root of a source checkout:

    python3 -m pytest perfbench/test_perfbench.py
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from workload import Loop  # noqa: E402

VERIFY_ARGV = ["verify", "--trials", "0"]


def verify_csv(records: list[str]) -> str:
    return "# command = verify\nseed,d,t,realized,bound,ratio\n" + "".join(
        r + "\n" for r in records) + "# footer\n"


GOOD = ["7,2,2,1,3.7,0.27"] * checks.verify_records(0)


def fake_main(text: str, code: int = 0):
    def main(argv):
        Path(argv[argv.index("--out") + 1]).write_text(text)
        return code
    return main


def run_once(tmp_path, text: str, code: int = 0) -> Loop:
    loop = Loop(fake_main(text, code), (VERIFY_ARGV,), tmp_path,
                {"verify": SimpleNamespace(trials=0)})
    loop.once()
    return loop


def test_valid_verify_csv_passes(tmp_path):
    loop = run_once(tmp_path, verify_csv(GOOD))
    assert (loop.attempted, loop.failed, loop.problems) == (1, 0, [])


@pytest.mark.parametrize("record", [
    "7,2,2,nan,3.7,nan",          # non-finite realized value
    "7,2,2,1,inf,0",              # non-finite bound
    "7,2,2,4,3.7,1.08",           # ratio above 1
    "7,2,2,3.7000001,3.7,0.99",   # realized above bound, ratio column aside
])
def test_bad_record_counts_as_failed(tmp_path, record):
    loop = run_once(tmp_path, verify_csv(GOOD[1:] + [record]))
    assert loop.failed == 1 and loop.problems


def test_wrong_record_count_and_exit_code_count_as_failed(tmp_path):
    assert run_once(tmp_path, verify_csv(GOOD[1:])).failed == 1
    assert run_once(tmp_path, verify_csv(GOOD), code=3).failed == 1


def test_ratio_within_slack_passes():
    record = f"7,2,2,{1 + 1e-13},1,{1 + 1e-13}"
    assert checks.verify_problems(verify_csv(GOOD[1:] + [record]), 0) == []


def test_sweep_checks():
    header, rows = checks.SWEEP_SHAPES["bound-compare"]
    body = ",".join(header) + "\n" + "2,4,0.5,0.6\n" * rows
    assert checks.sweep_problems("bound-compare", body) == []
    assert checks.sweep_problems("bound-compare",
                                 body.replace("0.5,0.6", "0.7,0.6", 1))
    header, rows = checks.SWEEP_SHAPES["critical-power"]
    body = ",".join(header) + "\n" + "3,2,,false\n" * rows
    assert checks.sweep_problems("critical-power", body) == []
    assert checks.sweep_problems("critical-power",
                                 body.replace(",,", ",nan,", 1))


def test_self_times_add_up_to_outer_span():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert tracer.calls["inner"] == 3 and tracer.calls["outer"] == 1
    assert math.isclose(tracer.attributed_seconds(), tracer.seconds["outer"])
    assert tracer.self_seconds["inner"] == pytest.approx(tracer.seconds["inner"])


def test_install_reaches_names_imported_by_other_modules(tmp_path):
    from cellbounds import cli, guarantees, pathloss

    original_theta = guarantees.theta
    original_eval = pathloss.BoundedPowerLaw.eval
    tracer = tracing.Tracer()
    restore, missing = tracing.install(tracer)
    try:
        assert missing == []
        cli.main(["hex-sweep", "--snr-step", "15", "--out",
                  str(tmp_path / "hex.csv")])
    finally:
        restore()
    assert guarantees.theta is original_theta
    assert pathloss.BoundedPowerLaw.eval is original_eval
    assert tracer.calls["hexnet.hex_rate_sweep"] == 1
    assert tracer.calls["guarantees.theta"] == 9  # 3 SNR points x 3 rates
    assert tracer.calls["bounds.interference_bound"] == 9
    assert tracer.calls["pathloss.BoundedPowerLaw.eval"] > 9


def test_scaling_divides_by_the_median_reference_nearby():
    ref = calibrate.REFERENCE_S["memory"]
    assert calibrate.scaled([2.0, 3.0], [2 * ref, 2 * ref, 9 * ref],
                            "memory") == [1.0, 1.5]
    n = 4 * calibrate.WINDOW
    refs = [ref] * (n // 2) + [2 * ref] * (n // 2 + 1)
    times = calibrate.scaled([1.0] * n, refs, "memory")
    assert times[0] == 1.0 and times[-1] == 0.5


def test_reference_helper_answers_and_stops(tmp_path):
    with calibrate.Reference("cache") as reference:
        loop = Loop(fake_main(verify_csv(GOOD)), (VERIFY_ARGV,), tmp_path,
                    {"verify": SimpleNamespace(trials=0)}, reference)
        loop.once()
        loop.once()
    assert reference.proc.returncode == 0
    assert len(loop.refs) == 3 and all(r > 0 for r in loop.refs)
    assert loop.summary()["wall_s"]["n"] == 2
