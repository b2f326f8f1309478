"""Deterministic per-task random streams derived from one master seed.

Every simulated quantity in this package draws from a stream keyed by
(master seed, purpose, trial, n-index). Streams are built on Philox, a
counter-based generator whose key and counter carry a stream's identity
(Salmon et al., SC'11), so results are identical no matter in which
order cells are evaluated, and a run with more trials reproduces the
trials of a shorter run exactly.

The Philox key of ``stream(seed, *key)`` is ``(seed, len(key))`` and its
counter starts at ``(0, *key)``, padded with zeros to 4 words. Draws
advance only the counter's low word, so two keys never share a counter;
the key's length in the Philox key keeps ``(a,)`` apart from ``(a, 0)``.
``jumped()`` and ``advance()`` move the upper counter words, into other
keys' streams. The generator's ``bit_generator.seed_seq`` is a shim that
hands Philox its key; it cannot be spawned.
"""

from __future__ import annotations

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

_MASK32 = 0xFFFFFFFF
# A key fills at most the 3 upper counter words.
_MAX_WORDS = 3


class _FixedKey(ISeedSequence):
    """The seed sequence of one stream() generator: its Philox key and state.

    Handing Philox a fixed key spares the OS entropy read of a Philox built
    without a seed. ``point`` rewrites the one state dict in place.
    """

    __slots__ = ("state",)

    def __init__(self):
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def point(self, seed: int, key: tuple) -> list:
        """Set the state to the start of (seed, key); return its counter."""
        words = self.state["state"]
        words["key"][:] = seed, len(key)
        words["counter"][1:] = key + (0, 0, 0)[len(key) :]
        return words["counter"]

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a fixed Philox key is exactly 2 uint64 words")
        return np.array(self.state["state"]["key"], dtype=np.uint64)


def _checked(seed: int, key: tuple) -> None:
    """ValueError unless seed fits 64 bits and key is at most 3 words of 32 bits."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if len(key) > _MAX_WORDS:
        raise ValueError(f"a stream key has at most {_MAX_WORDS} words, got {len(key)}")
    if key and not (min(key) >= 0 and max(key) <= _MASK32):
        bad = next(k for k in key if not 0 <= k <= _MASK32)
        raise ValueError(f"key entries must be 32-bit unsigned integers, got {bad}")


def stream(seed: int, *key: int, reuse: np.random.Generator | None = None) -> np.random.Generator:
    """Return the Generator for (seed, key).

    The same (seed, key) always yields the same stream, and distinct keys
    yield statistically independent streams. Its draws equal those of
    ``Generator(Philox(key=np.array([seed, len(key)], np.uint64),
    counter=(0, *key, 0, ...)))``. Without ``reuse`` each call returns a
    fresh generator, independent of every other.

    ``reuse`` must be a generator this function returned earlier. It is
    reset to the start of (seed, key) and returned, which costs less than
    building a new one and gives the same draws whatever was drawn from it
    before: a Philox stream is set by its key and counter alone. The
    earlier stream of ``reuse`` ends there.
    """
    _checked(seed, key)
    if reuse is None:
        fixed = _FixedKey()
        return np.random.Generator(np.random.Philox(fixed, counter=fixed.point(seed, key)))
    fixed = reuse.bit_generator.seed_seq if isinstance(reuse, np.random.Generator) else None
    if not isinstance(fixed, _FixedKey):
        raise ValueError("reuse must be a generator returned by stream()")
    fixed.point(seed, key)
    reuse.bit_generator.state = fixed.state
    return reuse
