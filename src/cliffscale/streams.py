"""Deterministic per-task random streams derived from one master seed.

Every simulated quantity in this package draws from a stream keyed by
(master seed, purpose, trial, n). Streams are built on Philox, a
counter-based generator whose key and counter carry a stream's identity
(Salmon et al., SC'11), so results are identical no matter in which
order cells are evaluated or which grid holds them: a run with more
trials, or on a finer grid, reproduces the cells of a shorter run
exactly.

The Philox key of ``stream(seed, *key)`` is ``(seed, len(key))`` and its
counter starts at ``(0, *key)``, padded with zeros to 4 words. The seed
and every key word lie in [0, 2**64), the width of one Philox word.
Draws advance only the counter's low word, so two keys never share a
counter; the key's length in the Philox key keeps ``(a,)`` apart from
``(a, 0)``. ``jumped()`` and ``advance()`` move the upper counter words,
into other keys' streams. The generator's ``bit_generator.seed_seq`` is
a shim that hands Philox its key; it cannot be spawned.

A runner walks one generator over a grid row's cells with
``stream(seed, purpose, trial, n, reuse=g)``. Along a row only the
trial changes: when the seed, purpose and n are the very objects of the
previous such call, checked then, the call checks and writes counter
word 2, the trial, alone before it applies the state. Any other key,
such as the first of a new row, is checked and written whole.
Every runner calls ``check_key(seed)`` before its first cell, so a bad
seed fails with ``seed: ...`` before any cell draws.
"""

from __future__ import annotations

from operator import index

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Purpose tags used as the first key word. Values are frozen:
# changing them changes every simulated number downstream of a seed.
TASK = 1
DATA = 2
TEST = 3
TARGET = 4
REG_POINTS = 5
# 6 is retired (it named validation data, which no stream ever drew); never reuse it.
TRAIN = 7

# A key fills at most the 3 upper counter words.
_MAX_WORDS = 3


class _FixedKey(ISeedSequence):
    """The seed sequence of one stream() generator: its Philox key and state.

    Handing Philox a fixed key spares the OS entropy read of a Philox built
    without a seed. ``point`` rewrites the one state dict in place.
    """

    __slots__ = ("state", "_key", "_counter", "_row")

    def __init__(self):
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._key = self.state["state"]["key"]
        self._counter = self.state["state"]["counter"]
        # The seed, first and last word of the last 3-word key set: the
        # objects themselves, each checked when it was set. None otherwise.
        self._row = None

    def point(self, seed: int, key: tuple) -> list:
        """Check (seed, key) as stream() does, set the state to its start; return its counter.

        A 3-word key whose seed, first and last word are the very objects of
        the last 3-word key set, as the next trial of a grid row is, checks
        and writes only its middle word. Nothing changes when a check fails.
        """
        row = self._row
        if row is not None and len(key) == 3 and seed is row[0] and key[0] is row[1] and key[2] is row[2]:
            trial = key[1]
            if type(trial) is int and 0 <= trial < 2**64:
                self._counter[2] = trial
                return self._counter
        _checked(seed, key)
        self._key[:] = seed, len(key)
        self._counter[1:] = key + (0, 0, 0)[len(key) :]
        self._row = (seed, key[0], key[2]) if len(key) == 3 else None
        return self._counter

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a fixed Philox key is exactly 2 uint64 words")
        return np.array(self._key, dtype=np.uint64)


def _checked(seed: int, key: tuple) -> None:
    """ValueError unless seed and key are 64-bit words and key has at most 3 of them.

    Every word must be an integer, as ``operator.index`` takes it: Philox
    would truncate a fraction such as 2.5 to 2 and draw another stream.
    """
    try:
        if not 0 <= index(seed) < 2**64:
            raise ValueError(f"seed: must be a 64-bit unsigned integer, got {seed}")
        if len(key) > _MAX_WORDS:
            raise ValueError(f"a stream key has at most {_MAX_WORDS} words, got {len(key)}")
        # One loop is cheaper than min() and max() over at most 3 words.
        for word in key:
            if not 0 <= index(word) < 2**64:
                raise ValueError(f"key entries must be 64-bit unsigned integers, got {word}")
    except TypeError:
        bad = next(w for w in (seed, *key) if not hasattr(type(w), "__index__"))
        # A bad seed is named as the field it is; key words are the package's own.
        field = "seed: " if bad is seed else ""
        raise ValueError(f"{field}seed and key entries must be integers, got {bad!r}") from None


def check_key(seed: int, *key: int) -> None:
    """Raise the ValueError that ``stream(seed, *key)`` raises for a bad seed or key."""
    _checked(seed, key)


def stream(seed: int, *key: int, reuse: np.random.Generator | None = None) -> np.random.Generator:
    """Return the Generator for (seed, key).

    The same (seed, key) always yields the same stream, and distinct keys
    yield statistically independent streams. Its draws equal those of
    ``Generator(Philox(key=np.array([seed, len(key)], np.uint64),
    counter=np.array([0, *key, 0, ...], np.uint64)))``. Without
    ``reuse`` each call returns a fresh generator, independent of every
    other.

    ``reuse`` must be a generator this function returned earlier. It is
    reset to the start of (seed, key) and returned, which costs less than
    building a new one and gives the same draws whatever was drawn from it
    before: a Philox stream is set by its key and counter alone. The
    earlier stream of ``reuse`` ends there. Moving ``reuse`` to the next
    trial of the same (seed, purpose, n) costs least of all (see the
    module docstring).
    """
    if reuse is None:
        fixed = _FixedKey()
        # As an array: Philox reads a list holding a word at or above 2**63 as float64.
        counter = np.array(fixed.point(seed, key), np.uint64)
        return np.random.Generator(np.random.Philox(fixed, counter=counter))
    fixed = reuse.bit_generator.seed_seq if isinstance(reuse, np.random.Generator) else None
    if not isinstance(fixed, _FixedKey):
        raise ValueError("reuse must be a generator returned by stream()")
    fixed.point(seed, key)
    reuse.bit_generator.state = fixed.state
    return reuse
