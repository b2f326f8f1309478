"""Deterministic per-task random streams derived from one master seed.

Every simulated quantity in this package draws from a stream keyed by
(master seed, purpose, trial, n-index). Streams are built on Philox, a
counter-based generator, so results are identical no matter in which
order cells are evaluated, and a run with more trials reproduces the
trials of a shorter run exactly.

The Philox key of ``stream(seed, *key)`` is
``SeedSequence(seed, spawn_key=key).generate_state(2, uint64)`` and its
counter starts at 0, so its draws equal those of
``Generator(Philox(SeedSequence(seed, spawn_key=key)))``. Building a
``SeedSequence`` per call costs more than a small model's whole cell, so
this module computes the same words itself and shares most of the work
between cells: the pool of the seed and the key words before the trial
(key position 1) is taken once from numpy, and the trial word and the
words after it are mixed in for a block of consecutive trials at a time,
as numpy integer arithmetic (see ``BLOCK``). The last few blocks are
memoized; which ones are cached never changes a draw. The generator's
``bit_generator.seed_seq`` is a shim that hands Philox the derived key:
it is not a ``SeedSequence`` and cannot be spawned.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Purpose tags used as the first spawn-key component. Values are frozen:
# changing them changes every simulated number downstream of a seed.
TASK = 1
DATA = 2
TEST = 3
TARGET = 4
REG_POINTS = 5
# 6 is retired (it named validation data, which no stream ever drew); never reuse it.
TRAIN = 7

# Keys of trials from _SINGLE on are derived in aligned blocks of BLOCK
# trials, which share one numpy computation; BLOCK is a power of two, so the
# last block ends exactly at the largest one-word trial, 2**32 - 1. Earlier
# trials are derived one at a time, so a run with few trials pays for no
# keys it never uses: on a 2-core x86 box one key as Python ints took ~8 us
# once the pool before it was cached, and a block ~150 us.
BLOCK = 1024
_SINGLE = 16

# Philox's counter and output buffer as a fresh generator starts them.
_ZERO_WORDS = (0, 0, 0, 0)

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx, after
# M. E. O'Neill's seed_seq_fe). Its pool has 4 uint32 words.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _hash_consts(init: int, mult: int, start: int, count: int) -> tuple[int, ...]:
    """init * mult**k mod 2**32 for k in [start, start + count)."""
    out = [init * pow(mult, start, 2**32) & _MASK32]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return tuple(out)


# generate_state hashes the 4 output words with a sequence of its own.
_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 0, _POOL + 1)


@functools.lru_cache(maxsize=16)
def _word_consts(j: int) -> tuple[int, ...]:
    """The hashmix constants of key word j.

    The k-th hashmix call of the entropy mixing XORs with INIT_A * MULT_A**k
    and multiplies by INIT_A * MULT_A**(k + 1), mod 2**32. The seed, padded
    to the 4 pool words, takes calls 0-15 and key word j calls 16 + 4j to
    19 + 4j.
    """
    return _hash_consts(_INIT_A, _MULT_A, _POOL * (_POOL + j), _POOL + 1)


# The two steps of SeedSequence on uint32 values, each held in a Python int
# or in a uint64 array (one lane of many keys at once), where no product of
# two 32-bit values can overflow.
def _hashmix(value, xor_const: int, mul_const: int):
    value = (value ^ xor_const) * mul_const & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _mix_word(pool: list, j: int, word) -> list:
    """Mix key word j into every lane of the pool."""
    c = _word_consts(j)
    return [_mix(p, _hashmix(word, c[i], c[i + 1])) for i, p in enumerate(pool)]


@functools.lru_cache(maxsize=8)
def _prefix_pool(seed: int, head: tuple[int, ...]) -> tuple[int, ...]:
    """The pool after the seed and the key words before the trial.

    This is numpy's own ``SeedSequence.pool``; the words mixed in after it
    continue its hash constants from call 16 + 4 * len(head).
    """
    return tuple(np.random.SeedSequence(seed, spawn_key=head).pool.tolist())


@functools.lru_cache(maxsize=4)
def _key_rows(seed: int, head: tuple[int, ...], tail: tuple[int, ...], start: int | None) -> np.ndarray:
    """Philox keys, shape (rows, 2) uint64, for the keys (*head, trial, *tail).

    The rows are the ``BLOCK`` trials from ``start``, mixed in as one uint64
    array per pool lane. With ``start=None`` there is no trial word and one
    row, for the key (*head, *tail), mixed as Python ints. The result is
    read-only, because the cache hands it to every caller.

    seed, head and tail are checked as ``stream`` checks them, so every
    cached block was derived from valid words.
    """
    seed, words = _checked(seed, head + tail)
    head, tail = words[: len(head)], words[len(head) :]
    pool = list(_prefix_pool(seed, head))
    j = len(head)
    if start is not None:
        pool = _mix_word(pool, j, start + np.arange(BLOCK, dtype=np.uint64))
        j += 1
    for j, word in enumerate(tail, start=j):
        pool = _mix_word(pool, j, word)
    # generate_state(2, uint64): 4 output words, paired low word first.
    c = _OUT_CONSTS
    w = [_hashmix(p, c[i], c[i + 1]) for i, p in enumerate(pool)]
    keys = np.array([w[0] | w[1] << 32, w[2] | w[3] << 32], dtype=np.uint64).T.reshape(-1, 2)
    keys.flags.writeable = False
    return keys


class _FixedKey(ISeedSequence):
    """A seed sequence that hands Philox one precomputed 128-bit key.

    It stands in for the ``SeedSequence`` whose state it holds, so Philox
    skips the OS entropy read and the second ``generate_state``. It cannot
    be spawned.
    """

    __slots__ = ("_key", "_start")

    def __init__(self, key: list[int]):
        self._key = key
        # Philox's state at counter 0 under the key; restart() reuses the dict.
        self._start = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO_WORDS, "key": key},
            "buffer": _ZERO_WORDS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def restart(self, bit_generator: np.random.Philox, key: list[int]) -> None:
        """Set ``bit_generator``, the Philox this sequence seeded, to counter 0 under ``key``."""
        self._key = key
        self._start["state"]["key"] = key
        bit_generator.state = self._start

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a fixed Philox key is exactly 2 uint64 words")
        return np.array(self._key, dtype=np.uint64)


def _checked(seed: int, key: tuple) -> tuple[int, tuple[int, ...]]:
    """seed and key as Python ints; ValueError unless they fit 64 and 32 bits."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    key = tuple(map(int, key))
    for k in key:
        if not 0 <= k <= _MASK32:
            raise ValueError(f"key entries must be 32-bit unsigned integers, got {k}")
    return seed, key


def _derived_key(seed: int, key: tuple) -> list[int]:
    """The 2 words of the Philox key of (seed, key), as Python ints.

    Philox's state setter reads Python ints faster than numpy scalars.
    """
    trial = key[1] if len(key) > 1 else None
    # A block in the cache was derived from valid words, so with a plain int
    # seed and trial word the trial word is all that is left to check.
    if not (type(seed) is int and type(trial) is int and _SINGLE <= trial <= _MASK32):
        seed, key = _checked(seed, key)
        if len(key) < 2 or key[1] < _SINGLE:
            return _key_rows(seed, key[:2], key[2:], None)[0].tolist()
        trial = key[1]
    offset = trial % BLOCK
    return _key_rows(seed, key[:1], key[2:], trial - offset)[offset].tolist()


def stream(seed: int, *key: int, reuse: np.random.Generator | None = None) -> np.random.Generator:
    """Return the Generator for (seed, key).

    The same (seed, key) always yields the same stream, and distinct keys
    yield statistically independent streams. Its draws equal those of
    ``Generator(Philox(SeedSequence(seed, spawn_key=key)))``. Without
    ``reuse`` each call returns a fresh generator, independent of every
    other.

    ``reuse`` must be a generator this function returned earlier. It is
    reset to the start of (seed, key) and returned, which costs less than
    building a new one and gives the same draws whatever was drawn from it
    before: a Philox stream is set by its key and counter alone (Salmon et
    al., SC'11). The earlier stream of ``reuse`` ends there.
    """
    row = _derived_key(seed, key)
    if reuse is None:
        return np.random.Generator(np.random.Philox(_FixedKey(row)))
    fixed = reuse.bit_generator.seed_seq if isinstance(reuse, np.random.Generator) else None
    if not isinstance(fixed, _FixedKey):
        raise ValueError("reuse must be a generator returned by stream()")
    fixed.restart(reuse.bit_generator, row)
    return reuse
