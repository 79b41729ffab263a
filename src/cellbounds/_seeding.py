"""numpy's ``SeedSequence``, run on a batch of entropy lists at once.

``np.random.SeedSequence(entropy)`` hashes the 32-bit words of its entropy
into a pool of four words and hashes the pool into the words it draws;
``np.random.default_rng(entropy)`` seeds PCG64 with the first four 64-bit
words of that draw.  Built one at a time, each costs microseconds of
Python-level set-up.  :func:`states` runs the same algorithm, with the hash
constants of ``numpy/random/bit_generator.pyx``, on every entropy list of a
batch in a fixed number of numpy calls (a few more per entropy word past
the pool's four), and :func:`generator` hands one of its rows to
``np.random.PCG64``, so every draw still comes from numpy's own generator.
For an entropy list ``e`` of non-negative integers::

    states([e])[0] == SeedSequence(e).generate_state(4, np.uint64)
    first_words(states([e]))[0] == SeedSequence(e).generate_state(1)[0]
    generator(states([e])[0]) draws what default_rng(e) draws

Every operation is on arrays, whose uint32 arithmetic wraps silently; on
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
# Entropy lists hashed in one pass: about 600 bytes each while it runs.  A
# shard of verify's acceptance run has about 350.
_BATCH = 4096


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    """The first ``count + 1`` values of numpy's running hash constant: the
    k-th hash of a word is xored with value k and multiplied by value k+1."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The constants of the pass, one row per use: the mixing's, one per
    pool word, and the draw's, one per output word.

    Mixing rows 0-1 hash the first four entropy words into the pool; rows
    2+2i and 3+2i hash pool word i into each other word in turn (its own
    entries are unused); rows 10-11 are the two multipliers of ``mix``.
    Draw rows 0-1 hash the pool, twice over, into eight output words.
    """
    a = _hash_constants(_INIT_A, _MULT_A, 16)
    b = _hash_constants(_INIT_B, _MULT_B, 8)
    rows = [a[0:4], a[1:5]]
    for i in range(_POOL):
        xor, mul = [0] * _POOL, [0] * _POOL
        for step, dst in enumerate(d for d in range(_POOL) if d != i):
            xor[dst], mul[dst] = a[4 + 3 * i + step], a[5 + 3 * i + step]
        rows += [xor, mul]
    rows += [[_MIX_MULT_L] * _POOL, [_MIX_MULT_R] * _POOL]
    return (np.array(rows, dtype=np.uint32)[:, :, None],
            np.array([b[0:8], b[1:9]], dtype=np.uint32)[:, :, None])


_MIXING, _DRAW = _tables()


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


def _hashmix(out: np.ndarray, values: np.ndarray, xor: np.ndarray,
             mul: np.ndarray, scratch: np.ndarray) -> None:
    """numpy's ``hashmix`` of each value, into ``out``."""
    np.bitwise_xor(values, xor, out=out)
    out *= mul
    np.right_shift(out, 16, out=scratch)
    out ^= scratch


def _mix(pool: np.ndarray, hashed: np.ndarray, left: np.ndarray,
         right: np.ndarray, scratch: np.ndarray) -> None:
    """numpy's ``mix(pool, hashed)``, in place in ``pool``; clobbers
    ``hashed``."""
    pool *= left
    hashed *= right
    pool -= hashed
    np.right_shift(pool, 16, out=scratch)
    pool ^= scratch


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
    """:func:`states` of at most ``_BATCH`` lists, in one pass."""
    lists = [_words(row) for row in rows]
    n = len(lists)
    lengths = np.array([len(words) for words in lists], dtype=np.intp)
    height = max(_POOL, int(lengths.max(initial=0)))
    # zero-padding to the pool's four words is exact: numpy hashes a 0 for
    # each missing one; past four, only the lists that have a word mix it
    words = np.array([w + [0] * (height - len(w)) for w in lists],
                     dtype=np.uint32).reshape(n, height).T
    # every constant at the pool's shape, so that no operation broadcasts
    c = list(np.repeat(_MIXING, n, axis=2))
    pool, hashed, scratch = np.empty((3, _POOL, n), dtype=np.uint32)
    _hashmix(pool, words[:_POOL], c[0], c[1], scratch)
    for i in range(_POOL):  # mix word i into the others, then restore it
        word = pool[i].copy()
        _hashmix(hashed, word, c[2 + 2 * i], c[3 + 2 * i], scratch)
        _mix(pool, hashed, c[10], c[11], scratch)
        pool[i] = word
    for j in range(_POOL, height):  # each word past four into every word
        a = _hash_constants(_INIT_A, _MULT_A, 4 * j + 4)[4 * j:]
        _hashmix(hashed, words[j], np.array(a[:4], dtype=np.uint32)[:, None],
                 np.array(a[1:], dtype=np.uint32)[:, None], scratch)
        mixed = pool.copy()
        _mix(mixed, hashed, c[10], c[11], scratch)
        np.copyto(pool, mixed, where=lengths > j)
    draw = np.repeat(_DRAW, n, axis=2)
    drawn = np.concatenate((pool, pool))
    _hashmix(drawn, drawn, draw[0], draw[1], np.empty_like(drawn))
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
