"""Contiguous shards of a trial range, run in forked worker processes.

A child is a fork of the calling process, so it starts with every module,
argument and monkeypatch of its parent in place, and nothing needs to be
pickled on the way in.  Its result comes back pickled through a pipe, and
it leaves through ``os._exit``: it never flushes the stdio buffers it
shares with its parent, nor runs the parent's atexit hooks.

Where there are no more shards than usable CPUs, each shard is pinned to
its own CPU: Linux tends to start a forked child on its parent's CPU and
leave it there, and the two shards then share one CPU while another idles.
Placement changes no result, only the time it takes.  Where
``os.sched_setaffinity`` is missing or fails, nothing is pinned.
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
    Where ``os.fork`` fails, this process runs the shards left unforked,
    in order, after its own.

    With no more shards than usable CPUs, shard s runs pinned to the s-th
    of them, in sorted order; this process is pinned only while it runs
    its own shards, and its CPU mask is restored however they end.
    """
    first, *rest = shard_ranges(trials, workers)
    mask = (os.sched_getaffinity(0)
            if rest and hasattr(os, "sched_setaffinity") else None)
    cpus = sorted(mask) if mask and workers <= len(mask) else None
    children = []  # (pid, read end of its pipe)
    payloads = []
    statuses = []
    try:
        for s, shard in enumerate(rest, 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # EAGAIN or ENOMEM: the rest run here
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _child(task, shard, write, [read] + [fd for _, fd in children],
                       cpus and cpus[s])
            os.close(write)
            children.append((pid, read))
        pinned = bool(children and cpus) and _pin(cpus[0])
        try:
            own = [task(shard) for shard in [first, *rest[len(children):]]]
        finally:
            if pinned:
                os.sched_setaffinity(0, mask)
        for _, read in children:
            with open(read, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        for pid, read in children:
            os.close(read)
            if len(payloads) < len(children):
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    results = own[:1]
    for shard, payload, status in zip(rest, payloads, statuses):
        if not payload:
            raise RuntimeError(
                f"the worker for trials {shard.start}..{shard.stop - 1} "
                f"exited with status {status} without a result")
        results.append(pickle.loads(payload))
    return results + own[1:]


def _pin(cpu: int) -> bool:
    """Confine the calling thread to ``cpu``; False where that fails."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return False
    return True


def _child(task, shard: range, write: int, inherited: list[int],
           cpu: int | None) -> None:
    """Run one shard in a forked child, on ``cpu`` if it is not None, send
    its result, and exit."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        if cpu is not None:
            _pin(cpu)
        payload = pickle.dumps(task(shard), pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)
