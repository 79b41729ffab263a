"""Benchmark of the cellbounds certifier and analytic sweeps.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify-acceptance --seed 1 \
        --seconds 30 --trace 0

Workloads: verify-acceptance, verify-wide, analytic-sweeps (see
workload.py for why each exists).  The program is imported from ``src/`` of
this checkout; nothing is installed.  First ``setup_s`` is measured: a fresh
interpreter imports ``cellbounds`` and builds the CLI parser, several times,
and the median is kept.  Then the workload runs in one fresh child process
(workload.py) for ``--seconds``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics of BENCHMARK.json with ``--trace 0`` and its per-layer
metrics with ``--trace 1``.  Times are medians over invocations, scaled
to a nominal machine speed by a reference run between invocations
(calibrate.py: one that resembles the work of the workload, and a
cache-resident one for set-up); per-layer
figures are unscaled totals per invocation (for analytic-sweeps, per set of
the four sweeps), and the four ``*_ms`` figures are the median unscaled
latency of each sweep (0 on the verify workloads, which run none).  The
lines before it name every metric with its unit, the run
manifest and the sha256 of every CSV per workload and seed.  A full record
of the run is written to ``perfbench/out/``.

The benchmark's own tests: ``python3 -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workload import REFERENCE_KIND, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 5
# Checks the provenance inside the timed import; sys.argv[1] is the source dir.
SETUP_CODE = ("import sys, cellbounds.cli as cli; cli.build_parser(); "
              "sys.exit(0 if cli.__file__.startswith(sys.argv[1]) else 3)")
TIME_LIMIT_S = 170


def child_env() -> dict:
    threads = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS")}
    return dict(os.environ, PYTHONPATH=str(SRC), **threads)


def measure_setup() -> tuple[list[float], list[float]]:
    """Raw set-up times and the reference times around them."""
    times = []
    with calibrate.Reference("cache") as reference:
        refs = [reference()]
        for _ in range(SETUP_RUNS):
            start = time.perf_counter()
            done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                                  cwd=ROOT, env=child_env(), timeout=60,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            times.append(time.perf_counter() - start)
            refs.append(reference())
            if done.returncode != 0:
                raise SystemExit(f"importing cellbounds from {SRC} failed:\n"
                                 f"{done.stderr}")
    return times, refs


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def declared_metrics(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()
    if not (SRC / "cellbounds" / "__init__.py").is_file():
        print(f"no cellbounds sources under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")

    setup, setup_refs = ([], []) if args.trace else measure_setup()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"{stem}.json"
    result_path.unlink(missing_ok=True)
    child = subprocess.run(
        [sys.executable, str(HERE / "workload.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--src", str(SRC), "--outdir", str(OUT / f"{stem}-csv"),
         "--result", str(result_path)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
        timeout=TIME_LIMIT_S - (time.monotonic() - began))
    if child.returncode != 0 or not result_path.exists():
        print(f"workload process failed ({child.returncode}):\n{child.stderr}",
              file=sys.stderr)
        return 2
    res = json.loads(result_path.read_text())

    if args.trace:
        figures = res["layers"]
    else:
        loop = res["loop"]
        figures = {"wall_s": loop["wall_s"]["median"],
                   "records_per_s": loop["records_per_s"]["median"],
                   "setup_s": statistics.median(
                       calibrate.scaled(setup, setup_refs, "cache")),
                   "peak_rss_mb": res["peak_rss_mb"]}
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in declared}

    res["manifest"].update(git_commit=git_commit(), workload=args.workload,
                           seed=args.seed, seconds=args.seconds,
                           trace=args.trace, setup_runs_s=setup,
                           setup_reference_s=setup_refs)
    res["metrics"] = metrics
    result_path.write_text(json.dumps(res, indent=1))

    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:46s} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(f"  untraced wall_s median {res['untraced_wall_s']['median']:.6g} s"
              f", traced {res['traced_wall_s']['median']:.6g} s")
        if res["missing_spans"]:
            print(f"  no such function, counted as 0: {res['missing_spans']}")
    else:
        print(f"  wall_s p90 {loop['wall_s']['p90']:.6g} s over "
              f"{loop['wall_s']['n']} invocations; unscaled median "
              f"{loop['raw_wall_s']['median']:.6g} s, unscaled setup_s "
              f"{statistics.median(setup):.6g} s")
        kind = REFERENCE_KIND[args.workload]
        print(f"  {kind} reference median {loop['reference_s']['median']:.6g}"
              f" s, nominal {calibrate.REFERENCE_S[kind]:g} s")
        for command, stats in loop["command_ms"].items():
            print(f"  {command} ms: median {stats['median']:.6g} "
                  f"p90 {stats['p90']:.6g} n {stats['n']}")
    failed_frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':46s} {failed_frac:.6g} ratio "
          f"({res['failed']} of {res['attempted']} invocations)")
    for name, digests in res["digests"].items():
        print(f"  sha256 {args.workload} seed {args.seed} {name}: "
              f"{' '.join(digests)}")
    for problem in res["problems"]:
        print(f"  PROBLEM {problem}")
    print("manifest " + json.dumps(res["manifest"]))
    print(json.dumps({"correct": res["failed"] == 0 and not res["problems"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
