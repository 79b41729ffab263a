"""numpy's ``SeedSequence``, run on a batch of entropy lists at once.

``np.random.SeedSequence(entropy)`` hashes the 32-bit words of its entropy
into a pool of four words and hashes the pool into the words it draws;
``np.random.default_rng(entropy)`` seeds PCG64 with the first four 64-bit
words of that draw.  Built one at a time, each costs microseconds of
Python-level set-up.  :func:`states` runs numpy's ``mix_entropy`` and
``generate_state`` (``numpy/random/bit_generator.pyx``) loop for loop, with
numpy's running hash constant carried by a :class:`_Hash`, but each loop
over the words of one list runs over every entropy list of a batch at once:
a fixed number of numpy calls, a few more per entropy word past the pool's
four.  :func:`generator` hands one row of the result to
``np.random.PCG64``, so every draw still comes from numpy's own generator.
For an entropy list ``e`` of non-negative integers::

    states([e])[0] == SeedSequence(e).generate_state(4, np.uint64)
    first_words(states([e]))[0] == SeedSequence(e).generate_state(1)[0]
    generator(states([e])[0]) draws what default_rng(e) draws

Every uint32 operation has an array operand, so it wraps silently; between
numpy scalars it would warn.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
# numpy's hash constants: A mixes entropy into the pool, B draws from it
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# Entropy lists hashed in one pass: about 300 bytes each while it runs.  A
# shard of verify's acceptance run has about 350.
_BATCH = 4096


def _words(entropy) -> list[int]:
    """numpy's coercion of an entropy list: the 32-bit words of each of its
    integers, from the lowest up to the highest non-zero one (at least
    one), end to end."""
    words = []
    for value in entropy:
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


class _Hash:
    """numpy's ``hashmix`` with its running hash constant, which starts at
    ``init`` and is multiplied by ``mult`` at every hash."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, values: np.ndarray, count: int) -> np.ndarray:
        """The next ``count`` hashes, as ``count`` rows: row k hashes row k
        of ``values`` (or ``values`` itself, if it is one row) with the
        next constant."""
        consts = [self.const]
        for _ in range(count):
            consts.append(consts[-1] * self.mult & _MASK32)
        self.const = consts[-1]
        consts = np.array(consts, dtype=np.uint32)[:, None]
        out = values ^ consts[:-1]
        out *= consts[1:]
        out ^= out >> 16
        return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's ``mix(x, y)`` of each pair of words, in place in ``x``;
    clobbers ``y``."""
    x *= _MIX_MULT_L
    y *= _MIX_MULT_R
    x -= y
    x ^= x >> 16
    return x


def states(rows) -> np.ndarray:
    """Per entropy list of the sequence ``rows`` (each a sequence of
    non-negative integers), ``SeedSequence(list).generate_state(4,
    np.uint64)``: the four PCG64 seeding words, as a C-contiguous
    (len(rows), 4) uint64 array.  A negative integer raises ValueError, as
    in numpy.

    The lists are hashed ``_BATCH`` at a time, which bounds the memory of
    a pass."""
    out = np.empty((len(rows), 4), dtype=np.uint64)
    for first in range(0, len(rows), _BATCH):
        out[first:first + _BATCH] = _states(rows[first:first + _BATCH])
    return out


def _states(rows: list) -> np.ndarray:
    """:func:`states` of at most ``_BATCH`` lists, in one pass: numpy's
    ``mix_entropy`` and ``generate_state``, each loop over the words of
    one list run over every list of the batch at once."""
    lists = [_words(row) for row in rows]
    n = len(lists)
    lengths = np.array([len(words) for words in lists], dtype=np.intp)
    height = max(_POOL, int(lengths.max(initial=0)))
    # zero-padding to the pool's four words is exact: numpy hashes a 0 for
    # each missing one; past four, only the lists that have a word mix it
    words = np.array([w + [0] * (height - len(w)) for w in lists],
                     dtype=np.uint32).reshape(n, height).T
    mixing = _Hash(_INIT_A, _MULT_A)
    pool = mixing(words[:_POOL], _POOL)
    for src in range(_POOL):  # each pool word into the other three
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], mixing(pool[src], _POOL - 1))
    for j in range(_POOL, height):  # each word past four into all four
        mixed = _mix(pool.copy(), mixing(words[j], _POOL))
        np.copyto(pool, mixed, where=lengths > j)
    drawn = _Hash(_INIT_B, _MULT_B)(np.concatenate((pool, pool)), 2 * _POOL)
    # numpy pairs the 32-bit words, low one first, into 64-bit words
    return np.ascontiguousarray(drawn.T, dtype="<u4").view("<u8").astype(
        np.uint64, copy=False)


def first_words(words: np.ndarray) -> list[int]:
    """Per row of :func:`states`, ``SeedSequence(list).generate_state(1)[0]``:
    the low half of its first 64-bit word."""
    return (words[:, 0] & _MASK32).tolist()


class _Drawn(ISeedSequence):
    """A seed sequence whose PCG64 words are already drawn."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only PCG64's four uint64 words were drawn")
        return self.words


def generator(words: np.ndarray) -> np.random.Generator:
    """numpy's PCG64 Generator seeded with one row of :func:`states`."""
    return np.random.Generator(np.random.PCG64(_Drawn(words)))
