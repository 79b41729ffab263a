import errno
import os

import pytest

from cellbounds import montecarlo
from cellbounds._shards import (map_shards, shard_ranges, usable_cpus,
                               worker_count)
from cellbounds.montecarlo import Suite, TrialRecord, run_suites


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def cpu_mask():
    """This thread's CPU mask, or None where the platform cannot tell."""
    return (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
            else None)


# pinning is seen only where it can be set and a pin narrows the mask
pinnable = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(cpu_mask()) < 2,
    reason="needs sched_setaffinity and at least 2 usable CPUs")


def test_worker_count_rule():
    assert worker_count(3, cpus=10**6) == 3
    assert worker_count(1, cpus=2) == 1
    assert worker_count(0, cpus=2) == 1
    assert worker_count(100, cpus=2) == 2
    assert worker_count(100, cpus=2, can_fork=False) == 1
    assert worker_count(100, cpus=2, threads=2) == 1


@pytest.mark.parametrize("trials, workers", [(7, 3), (100, 2), (2, 3), (0, 1)])
def test_shard_ranges_cover_the_trials_in_order(trials, workers):
    shards = shard_ranges(trials, workers)
    assert len(shards) == workers
    assert [i for shard in shards for i in shard] == list(range(trials))


def test_map_shards_runs_each_shard_in_its_own_process():
    results = map_shards(lambda shard: (os.getpid(), list(shard)), 7, 3)
    assert [trials for _, trials in results] == [[0, 1], [2, 3], [4, 5, 6]]
    pids = [pid for pid, _ in results]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == 3
    assert no_child_left()


@pinnable
def test_each_shard_runs_on_its_own_cpu():
    mask = cpu_mask()
    workers = min(len(mask), 4)
    shards = map_shards(lambda shard: os.sched_getaffinity(0), workers,
                        workers)
    assert all(len(cpus) == 1 and cpus <= mask for cpus in shards)
    assert len(set().union(*shards)) == workers
    assert cpu_mask() == mask
    assert no_child_left()


def first_shard_raises(shard):
    if not shard.start:
        raise KeyError("first shard")
    return list(shard)


@pinnable
def test_cpu_mask_is_restored_when_the_pinned_first_shard_raises():
    mask = cpu_mask()
    with pytest.raises(KeyError):
        map_shards(first_shard_raises, 4, 2)
    assert cpu_mask() == mask
    assert no_child_left()


@pinnable
def test_more_shards_than_cpus_pins_nothing(monkeypatch):
    mask = cpu_mask()
    real = os.sched_getaffinity
    # the mask map_shards reads has one CPU, so two shards are too many; a
    # pin would show in the real mask each shard reports
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {min(mask)})
    assert map_shards(lambda shard: real(0), 2, 2) == [mask, mask]
    assert real(0) == mask


def refuse_to_pin(pid, cpus):
    raise OSError(errno.EINVAL, "Invalid argument")


@pinnable
@pytest.mark.parametrize("setaffinity", [refuse_to_pin, None],
                         ids=["raises", "missing"])
def test_unpinnable_shards_give_the_same_results(monkeypatch, setaffinity):
    mask = cpu_mask()
    if setaffinity is None:
        monkeypatch.delattr(os, "sched_setaffinity")
    else:
        monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
    results = map_shards(lambda shard: (list(shard), os.sched_getaffinity(0)),
                         5, 2)
    assert results == [([0, 1], mask), ([2, 3, 4], mask)]
    assert no_child_left()


def test_shards_run_without_cpu_affinity_calls(monkeypatch, tmp_path):
    # a platform with neither call: the CPUs are os.cpu_count(), nothing
    # is pinned, and verify writes what one worker writes
    from cellbounds import cli
    mask = cpu_mask()
    real = os.sched_getaffinity if mask is not None else lambda pid: None
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert usable_cpus() == 3
    assert map_shards(lambda shard: real(0), 3, 3) == [mask] * 3
    assert no_child_left()
    workers = []
    real_map = montecarlo.map_shards
    monkeypatch.setattr(montecarlo, "map_shards", lambda task, trials, n:
                        workers.append(n) or real_map(task, trials, n))
    argv = ["verify", "--trials", "7", "--seed", "5", "--out"]
    assert cli.main([*argv, str(tmp_path / "three.csv")]) == 0
    pin_workers(monkeypatch, 1)
    assert cli.main([*argv, str(tmp_path / "one.csv")]) == 0
    assert workers == [3, 1]
    assert ((tmp_path / "three.csv").read_bytes()
            == (tmp_path / "one.csv").read_bytes())
    assert real(0) == mask
    assert no_child_left()


@pytest.mark.parametrize("failing_call", [1, 2])
def test_shards_left_unforked_run_in_this_process(monkeypatch, failing_call):
    real_fork = os.fork
    calls = []

    def fork():
        calls.append(None)
        if len(calls) == failing_call:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir(
        "/proc/self/fd") else None
    results = map_shards(lambda shard: (os.getpid(), list(shard)), 7, 3)
    assert [trials for _, trials in results] == [[0, 1], [2, 3], [4, 5, 6]]
    # every shard from the failed fork on runs here, after the first
    pids = [pid for pid, _ in results]
    assert [pid == os.getpid() for pid in pids] == (
        [True, True, True] if failing_call == 1 else [True, False, True])
    assert len(calls) == failing_call
    assert no_child_left()
    if fds is not None:  # the failed fork's pipe is closed
        assert len(os.listdir("/proc/self/fd")) == fds


def test_worker_dying_without_result_raises():
    def task(shard):
        if shard.start:
            os._exit(7)
        return list(shard)

    mask = cpu_mask()
    with pytest.raises(RuntimeError, match="status 7 without a result"):
        map_shards(task, 4, 2)
    assert cpu_mask() == mask
    assert no_child_left()


def test_children_are_reaped_when_the_first_shard_raises():
    mask = cpu_mask()
    with pytest.raises(KeyError):
        map_shards(first_shard_raises, 4, 3)
    assert cpu_mask() == mask
    assert no_child_left()


def counting_suite(label, trials, fail_at=()):
    """One record per trial, odd trials counted as skipped; raises at the
    first trial in fail_at."""
    def records(shard):
        for i in shard:
            if i in fail_at:
                raise ValueError(f"{label} trial {i}")
        return [TrialRecord(i, 0.0, 0.0, float(i), float(trials))
                for i in shard], sum(i % 2 for i in shard)
    return Suite(label, trials, records)


def pin_workers(monkeypatch, workers):
    monkeypatch.setattr(montecarlo, "default_workers", lambda trials: workers)


def test_run_suites_merge_in_trial_order(monkeypatch):
    suites = [counting_suite("a", 7), counting_suite("b", 1),
              counting_suite("c", 7)]
    pin_workers(monkeypatch, 1)
    serial = run_suites(suites)
    for workers in (2, 3):
        pin_workers(monkeypatch, workers)
        assert run_suites(suites) == serial
    assert [len(rep.records) for rep in serial] == [7, 1, 7]
    assert [rep.skipped for rep in serial] == [3, 0, 3]
    assert no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_suites_raise_what_a_serial_run_raises(monkeypatch, workers):
    # a later shard fails in an earlier suite than the first shard does,
    # and several shards fail in the same suite: the earliest suite wins,
    # then the earliest trial
    suites = [counting_suite("a", 6, fail_at={3, 5}),
              counting_suite("b", 6, fail_at={0})]
    pin_workers(monkeypatch, workers)
    mask = cpu_mask()
    with pytest.raises(ValueError, match="^a trial 3$"):
        run_suites(suites)
    assert cpu_mask() == mask
    assert no_child_left()
