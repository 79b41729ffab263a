"""Contiguous shards of a trial range, run in forked worker processes.

A child is a fork of the calling process, so it starts with every module,
argument and monkeypatch of its parent in place, and nothing needs to be
pickled on the way in.  Its result comes back pickled through a pipe, and
it leaves through ``os._exit``: it never flushes the stdio buffers it
shares with its parent, nor runs the parent's atexit hooks.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading


def usable_cpus() -> int:
    """CPUs this process may run on (``taskset`` restricts them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(trials: int, cpus: int, can_fork: bool = True,
                 threads: int = 1) -> int:
    """Shards for ``trials`` trials on ``cpus`` usable CPUs.

    One per CPU and at most one per trial.  Without ``os.fork``, or with
    other Python threads alive (a forked child would inherit their locks
    in whatever state they are in), everything runs in one shard.
    """
    if not can_fork or threads > 1:
        return 1
    return max(1, min(cpus, trials))


def default_workers(trials: int) -> int:
    """:func:`worker_count` for this process as it runs now."""
    return worker_count(trials, usable_cpus(), hasattr(os, "fork"),
                        threading.active_count())


def shard_ranges(trials: int, workers: int) -> list[range]:
    """``range(trials)`` cut into ``workers`` contiguous ranges, in order."""
    return [range(s * trials // workers, (s + 1) * trials // workers)
            for s in range(workers)]


def map_shards(task, trials: int, workers: int) -> list:
    """``[task(shard) for shard in shard_ranges(trials, workers)]``.

    The first shard runs in this process, each other one in a forked
    child.  Every child is reaped before this returns or raises; if this
    process raises first, the children still running are killed.  A child
    that exits without sending its result raises :class:`RuntimeError`.
    """
    first, *rest = shard_ranges(trials, workers)
    children = []  # (pid, read end of its pipe)
    payloads = []
    statuses = []
    try:
        for shard in rest:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(task, shard, write, [read] + [fd for _, fd in children])
            os.close(write)
            children.append((pid, read))
        results = [task(first)]
        for _, read in children:
            with open(read, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        for pid, read in children:
            os.close(read)
            if len(payloads) < len(children):
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for shard, payload, status in zip(rest, payloads, statuses):
        if not payload:
            raise RuntimeError(
                f"the worker for trials {shard.start}..{shard.stop - 1} "
                f"exited with status {status} without a result")
        results.append(pickle.loads(payload))
    return results


def _child(task, shard: range, write: int, inherited: list[int]) -> None:
    """Run one shard in a forked child, send its result, and exit."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        payload = pickle.dumps(task(shard), pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)
