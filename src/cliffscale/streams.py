"""Deterministic per-task random streams derived from one master seed.

Every simulated quantity in this package draws from a stream keyed by
(master seed, purpose, trial, n-index). Streams are built on Philox, a
counter-based generator, so results are identical no matter in which
order cells are evaluated, and a run with more trials reproduces the
trials of a shorter run exactly.
"""

from __future__ import annotations

import numpy as np

# Purpose tags used as the first spawn-key component. Values are frozen:
# changing them changes every simulated number downstream of a seed.
TASK = 1
DATA = 2
TEST = 3
TARGET = 4
REG_POINTS = 5
VALIDATION = 6
TRAIN = 7


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Generator for (seed, key).

    The same (seed, key) always yields the same stream, and distinct keys
    yield statistically independent streams.
    """
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))
