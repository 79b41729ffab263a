"""One benchmark workload in a fresh, single-threaded process.

Runs a closed loop of CLI invocations through ``cellbounds.cli.main``: each
invocation starts after the previous one returns.  Every output CSV is
checked between invocations, outside the timed section.  With ``--trace 1``
untraced invocations alternate with invocations that have spans around the
public functions (see ``tracing.py``), so the two medians give the tracing
overhead.  The result goes to ``--result`` as JSON; ``run.py`` reports it.

Usage (from the root of a source checkout, normally through run.py):

    PYTHONPATH=src python3 perfbench/workload.py --workload verify-wide \
        --seed 1 --seconds 30 --trace 0 --src src --outdir perfbench/out/csv \
        --result perfbench/out/result.json
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import checks
import tracing

# Each workload is one invocation: the CLI argument lists it runs in turn.
# verify-acceptance is `verify --suite all` at the CLI defaults (window 100,
# about 1,080 Poisson points per sample, 100 trials): per-trial work.
# verify-wide has about 17k points per sample and one trial: per-sample
# work, with per-trial overhead near zero.  analytic-sweeps runs the four
# sweeps at their defaults: kernels and montecarlo stay idle.
SWEEPS = tuple([name] for name in checks.SWEEP_SHAPES)
WORKLOADS = {
    "verify-acceptance": lambda seed: (
        ["verify", "--suite", "all", "--trials", "100", "--seed", str(seed)],),
    "verify-wide": lambda seed: (
        ["verify", "--suite", "all", "--trials", "1", "--window", "400",
         "--seed", str(seed)],),
    "analytic-sweeps": lambda seed: SWEEPS,
}
# The reference each workload's times are scaled by (see calibrate.py).
# verify-wide streams 70 MB arrays per thinning chunk through the shared
# last-level cache; verify-acceptance thins in the core's own cache; the
# sweeps spend their time in per-call overhead of scalar numpy.
REFERENCE_KIND = {"verify-acceptance": "cache", "verify-wide": "memory",
                  "analytic-sweeps": "scalar"}
# Matern samples per suite regenerated for the hardcore-gap check.
GAP_SAMPLES = {"verify-acceptance": 2, "verify-wide": 1}


def median_p90(values: list[float]) -> dict:
    ordered = sorted(values)
    return {"median": statistics.median(ordered),
            "p90": ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))],
            "n": len(ordered)}


class Loop:
    """Timings and output checks of one closed loop of invocations."""

    def __init__(self, main, commands, outdir: Path, program_args: dict,
                 reference: calibrate.Reference | None = None):
        self.main = main
        self.reference = reference  # None: times are not scaled
        self.commands = commands
        self.outdir = outdir
        self.program_args = program_args
        self.walls: list[float] = []
        self.rows: list[int] = []
        self.refs: list[float] = []  # reference seconds around invocations
        self.command_s = {c[0]: [] for c in commands}
        self.csv_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, set] = {c[0]: set() for c in commands}
        self.last_text: dict[str, str] = {}

    def run(self, seconds: float) -> "Loop":
        deadline = perf_counter() + seconds
        while True:
            self.once()
            if perf_counter() >= deadline:
                return self

    def once(self) -> None:
        """One timed invocation, then its output checks."""
        if self.reference and not self.refs:
            self.refs.append(self.reference())
        paths = [self.outdir / f"{argv[0]}.csv" for argv in self.commands]
        for path in paths:
            path.unlink(missing_ok=True)
        codes = []
        start = perf_counter()
        for argv, path in zip(self.commands, paths):
            begin = perf_counter()
            codes.append(self._call(argv + ["--out", str(path)]))
            self.command_s[argv[0]].append(perf_counter() - begin)
        self.walls.append(perf_counter() - start)
        if self.reference:
            self.refs.append(self.reference())
        self.rows.append(sum(
            self._check(argv, path, code)
            for argv, path, code in zip(self.commands, paths, codes)))

    def _call(self, argv):
        try:
            return self.main(argv)
        except Exception as exc:  # a crash counts as a failed invocation
            return f"raised {exc!r}"

    def _check(self, argv, path: Path, code) -> int:
        """Check one output, outside the timed section; return its rows."""
        text = path.read_text() if path.exists() else ""
        self.attempted += 1
        if argv[0] == "verify":
            found = checks.verify_problems(
                text, self.program_args[argv[0]].trials)
        else:
            found = checks.sweep_problems(argv[0], text)
        if code != 0:
            found.insert(0, f"{argv[0]} exited with {code}")
        if found:
            self.failed += 1
            self.problems.extend(found[:3])
        self.digests[argv[0]].add(checks.digest(text))
        self.last_text[argv[0]] = text
        self.csv_bytes += len(text.encode())
        return len(checks.split_csv(text)[1])

    def summary(self) -> dict:
        """Medians and p90s; with a reference, times are scaled to the
        nominal machine (see calibrate.py), except ``raw_wall_s``."""
        def scaled(times):
            if self.reference is None:
                return times
            return calibrate.scaled(times, self.refs, self.reference.kind)

        walls = scaled(self.walls)
        return {"wall_s": median_p90(walls),
                "raw_wall_s": median_p90(self.walls),
                "reference_s": median_p90(self.refs) if self.refs else None,
                "records_per_s": median_p90([r / w for r, w
                                             in zip(self.rows, walls)]),
                "command_ms": {
                    name: median_p90([1e3 * s for s in scaled(times)])
                    for name, times in self.command_s.items()}}


def min_same_mark_distance(points, marks) -> float:
    """Smallest distance between distinct same-mark points, by k-d tree."""
    import numpy as np
    from scipy.spatial import cKDTree

    best = math.inf
    for mark in np.unique(marks):
        pts = points[marks == mark]
        if len(pts) > 1:
            best = min(best, float(cKDTree(pts).query(pts, k=2)[0][:, 1].min()))
    return best


def gap_problems(cb, label: str, ps, gap: float) -> list[str]:
    problems = []
    if not cb.pointset.verify_hardcore(ps, gap):
        problems.append(f"{label}: verify_hardcore rejects the gap {gap}")
    observed = min_same_mark_distance(ps.points, ps.marks)
    if observed < gap * (1 - 1e-12):
        problems.append(f"{label}: same-mark points {observed} apart, "
                        f"below the gap {gap}")
    return problems


def record_problems(label: str, row: list[str], tseed: int, ps,
                    alpha: float) -> list[str]:
    """Recompute one interference record from its regenerated sample."""
    import numpy as np

    dist = np.sqrt(((ps.points - ps.window.center) ** 2).sum(axis=1))
    nearest = int(np.argmin(dist))
    att = np.maximum(dist, 1.0) ** -alpha
    realized = float(att.sum() - att[nearest])
    if (int(row[0]) != tseed
            or not math.isclose(float(row[1]), dist[nearest], rel_tol=1e-9)
            or not math.isclose(float(row[3]), realized, rel_tol=1e-9)):
        return [f"{label}: record {row} does not match the regenerated "
                f"sample (seed {tseed}, d {dist[nearest]}, realized "
                f"{realized})"]
    return []


def hardcore_problems(cb, args, samples: int, csv_text: str) -> list[str]:
    """Regenerate some of the verifier's samples and check them.

    Matern samples must keep the 2h gap and each reuse-k lattice the gap
    2 h_k; ``verify`` itself never checks either.  The regenerated
    interference samples must also reproduce their CSV records.
    """
    mc = cb.montecarlo
    window = cb.pointset.Rect(0.0, args.window, 0.0, args.window)
    make = mc.matern_factory(args.intensity, 2 * args.hardcore, window)
    _, rows = checks.split_csv(csv_text)
    first_interference = 8 * args.trials + 1
    problems = []
    for suite, offset in (("ball", 1), ("interference", 2)):
        for i in range(min(samples, args.trials)):
            tseed = mc.trial_seed(args.seed + offset, i)
            ps = make(tseed)
            label = f"Matern {suite} trial {i}"
            problems += gap_problems(cb, label, ps, 2 * args.hardcore)
            if suite == "interference" and first_interference + i < len(rows):
                problems += record_problems(label, rows[first_interference + i],
                                            tseed, ps, args.alpha)
    for k in (1, 3, 4):
        lattice = mc.lattice_factory(args.a, args.lattice_half_width, k)(
            args.seed)
        gap = 2 * cb.hexnet.hardcore_for_reuse(args.a, k)
        problems += gap_problems(cb, f"reuse-{k} lattice", lattice, gap)
    return problems


def manifest(cb) -> dict:
    import numpy
    import scipy

    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cellbounds": getattr(cb, "__version__", "unknown"),
            "backend": getattr(cb, "BACKEND", "unknown"),
            "cython_installed": importlib.util.find_spec("Cython") is not None,
            "compiled_core_loaded": "cellbounds._core" in sys.modules}


def run(args) -> dict:
    import cellbounds as cb
    from cellbounds import cli

    src = Path(args.src).resolve()
    if Path(cb.__file__).resolve().parent.parent != src:
        raise SystemExit(f"cellbounds was imported from {cb.__file__}, "
                         f"not from {src}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    commands = WORKLOADS[args.workload](args.seed)
    parser = cli.build_parser()
    program_args = {c[0]: parser.parse_args(c) for c in commands}

    def loop(main=cli.main, reference=None):
        return Loop(main, commands, outdir, program_args, reference)

    result = {"manifest": manifest(cb)}
    if not args.trace:
        with calibrate.Reference(REFERENCE_KIND[args.workload]) as reference:
            main = loop(reference=reference).run(args.seconds)
        loops = [main]
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024)
        result["loop"] = main.summary()
    else:
        # Untraced and traced invocations alternate, so that both see the
        # same machine state and their difference is the tracing overhead.
        plain = loop()
        tracer = tracing.Tracer()
        traced = loop(tracer.wrap("cli.main", cli.main))
        deadline = perf_counter() + args.seconds
        while True:
            plain.once()
            restore, missing = tracing.install(tracer)
            try:
                traced.once()
            finally:
                restore()
            if perf_counter() >= deadline:
                break
        loops = [plain, traced]
        n = len(traced.walls)
        layers = tracer.per_invocation(tracing.span_names() + ["cli.main"], n)
        layers["cli.csv_bytes"] = traced.csv_bytes / n
        for argv in SWEEPS:
            times = plain.command_s.get(argv[0])
            layers[argv[0].replace("-", "_") + "_ms"] = (
                1e3 * statistics.median(times) if times else 0.0)
        traced_wall = sum(traced.walls) / n
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = (statistics.median(traced.walls)
                                      - statistics.median(plain.walls))
        layers["trace.unattributed_s"] = (traced_wall
                                          - tracer.attributed_seconds() / n)
        result["layers"] = layers
        result["untraced_wall_s"] = plain.summary()["raw_wall_s"]
        result["traced_wall_s"] = traced.summary()["raw_wall_s"]
        result["missing_spans"] = missing

    problems = [p for lp in loops for p in lp.problems]
    digests = {}
    for lp in loops:
        for name, found in lp.digests.items():
            digests.setdefault(name, set()).update(found)
    for name, found in digests.items():
        if len(found) > 1:
            problems.append(f"{name} output changed between repetitions "
                            f"of seed {args.seed}: {sorted(found)}")
    if "verify" in program_args:
        problems += hardcore_problems(cb, program_args["verify"],
                                      GAP_SAMPLES[args.workload],
                                      loops[0].last_text.get("verify", ""))
    result["attempted"] = sum(lp.attempted for lp in loops)
    result["failed"] = sum(lp.failed for lp in loops)
    result["problems"] = problems
    result["digests"] = {name: sorted(found) for name, found in digests.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True,
                        help="source directory cellbounds must come from")
    parser.add_argument("--outdir", required=True,
                        help="directory for the CSV outputs")
    parser.add_argument("--result", required=True, help="result JSON path")
    args = parser.parse_args(argv)
    result = run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
