import os

import pytest

from cellbounds._shards import map_shards, shard_ranges, worker_count
from cellbounds.montecarlo import Suite, TrialRecord, run_suites


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


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


def test_worker_dying_without_result_raises():
    def task(shard):
        if shard.start:
            os._exit(7)
        return list(shard)

    with pytest.raises(RuntimeError, match="status 7 without a result"):
        map_shards(task, 4, 2)
    assert no_child_left()


def test_children_are_reaped_when_the_first_shard_raises():
    def task(shard):
        if not shard.start:
            raise KeyError("first shard")
        return list(shard)

    with pytest.raises(KeyError):
        map_shards(task, 4, 3)
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


def test_run_suites_merge_in_trial_order():
    suites = [counting_suite("a", 7), counting_suite("b", 1),
              counting_suite("c", 7)]
    serial = run_suites(suites, workers=1)
    for workers in (2, 3):
        assert run_suites(suites, workers) == serial
    assert [len(rep.records) for rep in serial] == [7, 1, 7]
    assert [rep.skipped for rep in serial] == [3, 0, 3]
    assert no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_suites_raise_what_a_serial_run_raises(workers):
    # a later shard fails in an earlier suite than the first shard does,
    # and several shards fail in the same suite: the earliest suite wins,
    # then the earliest trial
    suites = [counting_suite("a", 6, fail_at={3, 5}),
              counting_suite("b", 6, fail_at={0})]
    with pytest.raises(ValueError, match="^a trial 3$"):
        run_suites(suites, workers)
    assert no_child_left()
