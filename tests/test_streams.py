"""Streams: keys derived in blocks give numpy's SeedSequence draws exactly."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliffscale import streams


def reference(seed, *key):
    """The generator ``stream`` must reproduce, built the documented way."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def raw(rng, count=8):
    return rng.bit_generator.random_raw(count)


B = streams.BLOCK
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
# Block edges and the switch from single keys to blocks (every power of two
# up to 2B, and one either side), plus the last one-word trial and its block.
EDGE_TRIALS = sorted({t for k in range(12) for t in (2**k - 1, 2**k, 2**k + 1)} | {2**32 - B, 2**32 - 1})

seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))
words = st.integers(0, 2**32 - 1)
trials = st.one_of(st.sampled_from(EDGE_TRIALS), words)
keys = st.one_of(
    st.tuples(),
    st.tuples(words),
    st.tuples(words, trials),
    st.tuples(words, trials, words),
    st.tuples(words, trials, words, words),
)


@given(seed=seeds, key=keys)
def test_draws_match_seed_sequence(seed, key):
    np.testing.assert_array_equal(raw(streams.stream(seed, *key)), raw(reference(seed, *key)))


@pytest.mark.parametrize("trial", EDGE_TRIALS)
def test_every_block_edge_matches(trial):
    for seed in EDGE_SEEDS:
        key = (streams.DATA, trial, 3)
        np.testing.assert_array_equal(raw(streams.stream(seed, *key)), raw(reference(seed, *key)))


# random_raw(4) of the first generators, recorded from the SeedSequence-based
# implementation. Identity tests elsewhere compare two runs of the same code,
# so only these literals catch a change of stream.
PINNED = {
    (0,): [0x0399E5B222B82FA9, 0x41FD08C1F00F3BC5, 0x78B8824162EE4D04, 0x176747919E02739D],
    (1, 2, 3, 4): [0x707628A0314B8C94, 0xA40D0B15B952A35A, 0xE24BB7E15A9CE818, 0x38E2A59BD5AD2F15],
    (2**64 - 1, 7, 2**32 - 1, 0): [0xF3E9D495EA1E5035, 0x4B65BE8E67B70611, 0x4C4D5F566D4CBAEF, 0x439B60D46703E315],
    (2024, 2, 1500, 3): [0xC8E92D7CE850FBE5, 0x0C8EBD6DF3B253FD, 0x6FD0E2908FDA1E76, 0x3EE520F15E4194FB],
    (2**32, 4, 20): [0x64D472E72689FAC4, 0xDC8968A3D38BAC4A, 0xFB1061D87BF8181F, 0x65E486C4D28DF44F],
}


@pytest.mark.parametrize("args", list(PINNED), ids=str)
def test_pinned_words(args):
    assert raw(streams.stream(*args), 4).tolist() == PINNED[args]


@pytest.mark.parametrize("key", [(streams.DATA, 5, 1), (streams.DATA, B + 7, 1), (streams.TASK,)])
def test_same_key_generators_are_independent(key):
    want = raw(reference(9, *key)).tolist()
    a, b = streams.stream(9, *key), streams.stream(9, *key)
    got_a, got_b = [], []
    for _ in want:
        got_a.append(int(a.bit_generator.random_raw()))
        got_b.append(int(b.bit_generator.random_raw()))
    assert got_a == want
    assert got_b == want


def test_call_order_and_cache_do_not_change_draws():
    seed, n_trials = 31, B + 80
    cell_keys = [
        key
        for n_idx in range(2)
        for trial in range(n_trials)
        for key in ((streams.TASK, trial), (streams.DATA, trial, n_idx), (streams.TEST, trial, n_idx))
    ]
    forward = {key: raw(streams.stream(seed, *key), 2).tolist() for key in cell_keys}
    streams._key_rows.cache_clear()
    streams._prefix_pool.cache_clear()
    backward = {key: raw(streams.stream(seed, *key), 2).tolist() for key in reversed(cell_keys)}
    assert backward == forward
    for key in cell_keys[:: 97]:
        assert forward[key] == raw(reference(seed, *key), 2).tolist()


def test_seed_seq_is_the_derived_key():
    rng = streams.stream(5, streams.TRAIN, 40, 2)
    want = np.random.SeedSequence(5, spawn_key=(streams.TRAIN, 40, 2)).generate_state(2, np.uint64)
    np.testing.assert_array_equal(rng.bit_generator.seed_seq.generate_state(2, np.uint64), want)


@pytest.mark.parametrize(
    "args",
    [(-1,), (2**64,), (2**64, 1, 2), (0, -1), (0, 2**32), (0, 1, 2**32), (0, 1, -3), (0, 1, 2, 2**32)],
    ids=str,
)
def test_out_of_range_rejected(args):
    with pytest.raises(ValueError):
        streams.stream(*args)


# Ways to use a generator before it is handed back through ``reuse``: 32-bit
# draws leave half a word in ``uinteger``, and raw or normal draws leave the
# 4-word output buffer partly used.
EARLIER_USE = st.lists(
    st.sampled_from([
        lambda g: g.integers(0, 2**31, dtype=np.uint32),
        lambda g: g.integers(0, 2**31, size=3, dtype=np.int32),
        lambda g: g.bit_generator.random_raw(),
        lambda g: g.standard_normal(),
        lambda g: g.random(5),
        lambda g: g.chisquare(7),
    ]),
    max_size=6,
)


@given(seed=seeds, key=keys, first=st.tuples(seeds, keys), use=EARLIER_USE)
def test_reuse_restarts_the_stream(seed, key, first, use):
    g = streams.stream(first[0], *first[1])
    for f in use:
        f(g)
    assert streams.stream(seed, *key, reuse=g) is g
    np.testing.assert_array_equal(raw(g), raw(streams.stream(seed, *key)))
    for f in use:
        f(g)
    streams.stream(seed, *key, reuse=g)
    want = streams.stream(seed, *key)
    got, expected = [(r.integers(0, 2**32, dtype=np.uint32), r.standard_normal(), r.chisquare(999)) for r in (g, want)]
    assert got == expected
    np.testing.assert_array_equal(g.bit_generator.seed_seq.generate_state(2, np.uint64),
                                  want.bit_generator.seed_seq.generate_state(2, np.uint64))


@pytest.mark.parametrize("args", [(-1,), (2**64, 1, 2), (0, 2**32), (0, 1, -3)], ids=str)
def test_reuse_rejects_a_bad_key_like_a_fresh_call(args):
    g = streams.stream(1, 2)
    with pytest.raises(ValueError) as fresh:
        streams.stream(*args)
    with pytest.raises(ValueError) as reused:
        streams.stream(*args, reuse=g)
    assert str(reused.value) == str(fresh.value)


@pytest.mark.parametrize("other", [np.random.default_rng(0), np.random.Generator(np.random.Philox(0)), "rng"])
def test_reuse_takes_only_a_generator_from_stream(other):
    with pytest.raises(ValueError, match="reuse"):
        streams.stream(1, 2, reuse=other)


# A trial word from streams._SINGLE on, as a plain int, is looked up in the
# block cache without stream()'s word checks; the block's other words are
# checked when the block is derived. Each case is also rejected, with the
# same message, at trial 3, which is checked word by word.
@pytest.mark.parametrize(
    "seed, head, tail",
    [(-1, (1,), (2,)), (2**64, (1,), ()), (0, (2**32,), ()), (0, (1,), (-3,)), (0, (1,), (2, 2**32))],
    ids=str,
)
def test_block_trials_reject_bad_words_like_single_trials(seed, head, tail):
    streams.stream(0, 1, 40, 2)
    with pytest.raises(ValueError) as single:
        streams.stream(seed, *head, 3, *tail)
    for trial in (40, B + 40):
        with pytest.raises(ValueError) as block:
            streams.stream(seed, *head, trial, *tail, reuse=streams.stream(1, 2))
        assert str(block.value) == str(single.value)


def test_word_types_do_not_change_the_stream():
    # numpy integers take the checked path and plain ints the cached one;
    # either may fill the cache first.
    typed = (np.uint64(7), np.int32(2), np.uint32(40), np.int64(3))
    for first, second in [((7, 2, 40, 3), typed), (typed, (7, 2, 40, 3))]:
        streams._key_rows.cache_clear()
        a = raw(streams.stream(*first))
        np.testing.assert_array_equal(raw(streams.stream(*second)), a)
        np.testing.assert_array_equal(a, raw(reference(7, 2, 40, 3)))
