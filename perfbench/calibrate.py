"""Fixed reference work that measures how fast the machine runs right now.

On a shared virtual machine the speed of one core drifts by up to a third
within minutes, as other tenants of the host come and go: far more than any
bound a benchmark could keep on raw wall times.  The benchmark runs a
reference before the first invocation and after each one, and scales each
invocation's time by the nominal reference time over the median of the
``2 * WINDOW`` reference times nearest to it: the result is the time on a
machine that runs the reference in its nominal time.  The median keeps the
reference's own noise out of the scaled times, and the window follows the
drift within a run of short invocations: on a 2-core Xeon virtual machine,
ten runs of analytic-sweeps spread 3% (interquartile range over median)
when scaled by the median reference of the whole run, and 1% with the
window.  The references never call the program, so no change to the
program can move them.

There are three references, one for each kind of work the workloads do:

- ``scalar`` evaluates a bounded power law one distance at a time through
  one-element numpy arrays, as the analytic sweeps do, so that it pays the
  same per-call interpreter and numpy overhead;
- ``cache`` mixes scalar Python with Matern thinning of 1,500 points,
  whose arrays stay in the core's own cache, like the per-trial work and
  the thinning of the 1,080-point samples of verify-acceptance, and scales
  the set-up time;
- ``memory`` runs three 512-row chunks of the Matern thinning of 17,000
  points, which streams about 170 MB of arrays through the shared
  last-level cache, like the thinning of the verify-wide samples.  A
  neighbour that thrashes that cache slowed verify-wide by a fifth.

Each reference runs in a helper process (``Reference``), started once and
waited on between invocations, so that its buffers never count in the peak
resident memory of the workload process.  ``python3 calibrate.py`` is that
helper: it reads a reference kind per line and answers with its seconds.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# Nominal reference times: roughly their medians on a 2-core Xeon virtual
# machine.
REFERENCE_S = {"scalar": 0.015, "cache": 0.075, "memory": 0.25}

# Reference times taken on each side of an invocation that scale it.
WINDOW = 11

_RNG = np.random.default_rng(12345)


def _scalar() -> float:
    total = 0.0
    for i in range(1, 30000):
        r = i * 0.001
        total += math.log1p(r ** -4.0 if r > 1.0 else 1.0)
    return total


def _power_law(r, alpha: float):
    """Bounded power law min(1, r^-alpha), as the program evaluates it at
    the time of writing: through a one-element array per scalar call."""
    scalar = np.ndim(r) == 0
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(arr < 0):
        raise ValueError("distance must be non-negative")
    out = np.ones_like(arr)
    far = arr > 1.0
    out[far] = arr[far] ** -alpha
    return float(out[0]) if scalar else out


def _thinning(x, y, age, rows: int, chunks: int, radius: float) -> int:
    """``chunks`` chunks of ``rows`` points of Matern type-II thinning, as
    the numpy kernel of the program does it at the time of writing: the
    same chunked pairwise distances and age comparisons, into arrays
    allocated on each call, so that the reference pays for page faults
    and the allocator as the kernel does."""
    n = len(x)
    idx = np.arange(n)
    d2 = np.empty((rows, n))
    tmp = np.empty_like(d2)
    kill = np.empty(d2.shape, dtype=bool)
    kept = 0
    for lo in range(0, min(n, rows * chunks), rows):
        hi = min(lo + rows, n)
        m = hi - lo
        np.subtract(x[lo:hi, None], x[None, :], out=d2[:m])
        np.multiply(d2[:m], d2[:m], out=d2[:m])
        np.subtract(y[lo:hi, None], y[None, :], out=tmp[:m])
        np.multiply(tmp[:m], tmp[:m], out=tmp[:m])
        d2[:m] += tmp[:m]
        np.less(d2[:m], radius * radius, out=kill[:m])
        older = (age[None, :] < age[lo:hi, None]) | (
            (age[None, :] == age[lo:hi, None])
            & (idx[None, :] < idx[lo:hi, None]))
        kill[:m] &= older
        kept += int(np.count_nonzero(~kill[:m].any(axis=1)))
    return kept


def _sample(n: int, side: float):
    """Points and ages of a fixed Poisson-like sample."""
    return (_RNG.uniform(0.0, side, n), _RNG.uniform(0.0, side, n),
            _RNG.uniform(0.0, 1.0, n))


_CACHE_SAMPLE = _sample(1500, 100.0)
_MEMORY_SAMPLE = _sample(17000, 400.0)


def reference(kind: str) -> float:
    """Seconds the reference work of ``kind`` takes now."""
    start = perf_counter()
    if kind == "scalar":
        for i in range(1, 1500):
            _power_law(0.01 * i, 4.0)
    elif kind == "cache":
        for _ in range(3):
            _scalar()
            _thinning(*_CACHE_SAMPLE, rows=256, chunks=6, radius=4.0)
    elif kind == "memory":
        _thinning(*_MEMORY_SAMPLE, rows=512, chunks=3, radius=2.0)
    else:
        raise ValueError(f"no reference named {kind!r}")
    return perf_counter() - start


def scaled(times: list[float], refs: list[float], kind: str) -> list[float]:
    """Times scaled to the nominal machine; ``refs`` has one more entry,
    the reference times measured before, between and after them."""
    return [t * REFERENCE_S[kind]
            / statistics.median(refs[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
            for i, t in enumerate(times)]


class Reference:
    """Runs the reference of ``kind`` in a helper process, on request.

    Use as a context manager, so that the helper is stopped and waited on
    whatever happens.  The first reference is run once on start-up, as a
    warm-up.
    """

    def __init__(self, kind: str):
        if kind not in REFERENCE_S:
            raise ValueError(f"no reference named {kind!r}")
        self.kind = kind
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self()
        except BaseException:
            self.close()
            raise

    def __call__(self) -> float:
        self.proc.stdin.write(self.kind + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"reference helper exited with "
                               f"{self.proc.wait()}")
        return float(answer)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    """Answer each reference kind read from stdin with its seconds."""
    for line in sys.stdin:
        print(repr(reference(line.strip())), flush=True)


if __name__ == "__main__":
    serve()
