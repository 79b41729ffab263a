"""The vectorized seeding pass against numpy's own SeedSequence.

The verifier's streams are fixed by numpy's seeding of ``[seed, i]``,
``[seed, i, 1]`` and ``[trial seed]`` (see ``cellbounds.montecarlo``),
which a shard of ``verify`` derives in two passes, so every word a pass
derives must equal numpy's, over the whole domain of non-negative
integers: multi-word seeds and indices included, where the entropy
outgrows the pool's four words.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellbounds import _seeding, cli, montecarlo
from cellbounds.montecarlo import (check_scheduled_bound, lattice_factory,
                                   trial_seed, trial_streams)
from cellbounds.pathloss import BoundedPowerLaw

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 7]
INDICES = [0, 1, 2**32 - 1, 2**32]
# trial indices on both sides of 2**32, where an index gains a second word
STRADDLE = range(2**32 - 3, 2**32 + 3)


def numpy_words(entropy):
    seq = np.random.SeedSequence(entropy)
    return seq.generate_state(1)[0], seq.generate_state(4, np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_states_equal_numpy_for_every_seed_and_index(seed):
    rows = [(seed, i, *tail) for i in [*INDICES, *STRADDLE]
            for tail in ((), (1,))]
    words = _seeding.states(rows)
    assert words.dtype == np.uint64 and words.shape == (len(rows), 4)
    for row, first, state in zip(rows, _seeding.first_words(words), words):
        word0, expected = numpy_words(list(row))
        assert first == word0
        assert np.array_equal(state, expected), row


@pytest.mark.parametrize("batch", [4096, 2])
def test_lists_of_every_length_in_one_batch_or_several(monkeypatch, batch):
    # 0 to 9 words in one pass: the short lists are zero-padded, and each
    # word past the pool's four mixes only into the lists that have it
    monkeypatch.setattr(_seeding, "_BATCH", batch)
    rows = [(), (5,), (2**32 + 1,), (1, 2, 3), (2**96 + 7,), (2**64 + 5, 3),
            (2**96 + 7, 2**32, 1), (2**200 + 9, 4, 1), (0, 0, 0, 0, 0)]
    words = _seeding.states(rows)
    for row, state in zip(rows, words):
        assert np.array_equal(state, numpy_words(list(row))[1]), row


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2**200), max_size=9), max_size=20))
def test_random_batches_equal_numpy(rows):
    # lists of 0 to 63 words, all in one pass
    words = _seeding.states(rows)
    assert words.shape == (len(rows), 4)
    for row, state in zip(rows, words):
        assert np.array_equal(state, numpy_words(row)[1]), row


def test_trial_seed_and_streams_equal_numpy():
    for seed in SEEDS:
        for index in INDICES:
            assert trial_seed(seed, index) == numpy_words([seed, index])[0]
    # a trial's sample stream is seeded by its trial seed
    first, second = trial_streams([(2**70, STRADDLE), (3, range(2))])
    for streams, seed, trials in ((first, 2**70, STRADDLE),
                                  (second, 3, range(2))):
        assert streams.seeds == [numpy_words([seed, i])[0] for i in trials]
        assert streams.centers.shape == streams.samples.shape == (
            len(trials), 4)
        for i, tseed, center, sample in zip(trials, streams.seeds,
                                            streams.centers, streams.samples):
            assert np.array_equal(center, numpy_words([seed, i, 1])[1])
            assert np.array_equal(sample, numpy_words([tseed])[1])


@pytest.mark.parametrize("entropy", [[0], [7], [2**32], [42, 3, 1],
                                     [2**70, 2**32 - 1, 1]])
def test_generators_draw_what_default_rng_draws(entropy):
    ours = _seeding.generator(_seeding.states([entropy])[0])
    theirs = np.random.default_rng(entropy)
    for draw in (lambda g: g.random(3), lambda g: g.poisson(1e3),
                 lambda g: g.uniform(-5.0, 7.0, 4),
                 lambda g: g.integers(2**62)):
        assert np.array_equal(draw(ours), draw(theirs))


def test_the_adapter_hands_pcg64_four_contiguous_words():
    words = _seeding.states([(1, 2), (3, 4)])
    drawn = _seeding._Drawn(words[1]).generate_state(4, np.uint64)
    assert drawn.dtype == np.uint64 and drawn.shape == (4,)
    assert drawn.flags["C_CONTIGUOUS"]
    with pytest.raises(ValueError):
        _seeding._Drawn(words[1]).generate_state(8, np.uint32)


@pytest.mark.parametrize("call", [
    lambda: trial_seed(-1, 0),
    lambda: trial_seed(0, -1),
    lambda: _seeding.states([(5,), (-2**40,)]),
    lambda: trial_streams([(-1, range(3))]),
    lambda: check_scheduled_bound(lattice_factory(2.0, 10.0), 1.0,
                                  BoundedPowerLaw(4), seed=-1),
])
def test_negative_entropy_raises_value_error(call):
    with pytest.raises(ValueError, match="non-negative"):
        call()


def test_an_empty_batch_has_no_words():
    assert _seeding.states([]).shape == (0, 4)
    assert montecarlo.trial_streams([]) == []


def test_a_shard_of_verify_derives_its_streams_in_two_passes(tmp_path,
                                                            monkeypatch):
    # the suites of `verify --suite all`: four drawing ones, two of them
    # Matern, and three scheduled ones of one trial, which draw nothing
    captured = []
    run_suites = montecarlo.run_suites
    monkeypatch.setattr(montecarlo, "run_suites",
                        lambda suites: captured.append(suites)
                        or run_suites(suites))
    assert cli.main(["verify", "--suite", "all", "--trials", "3",
                     "--out", str(tmp_path / "all.csv")]) == 0
    (suites,) = captured
    assert len(suites) == 7
    passes = []
    states = _seeding.states
    monkeypatch.setattr(_seeding, "states",
                        lambda rows: passes.append(len(rows)) or states(rows))
    done, exc = montecarlo._run_shard(suites, range(3))
    assert exc is None and len(done) == len(suites)
    # trial seeds and centers of 3 + 3 + 1 + 3 + 1 + 1 + 1 trials, then
    # their samples
    assert passes == [26, 13]
