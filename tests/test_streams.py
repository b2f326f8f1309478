"""Streams: each key goes straight into a Philox key and counter."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cliffscale import streams


def reference(seed, *key):
    """The generator ``stream`` must reproduce, built the documented way.

    The key is a uint64 array: numpy reads a tuple holding a seed at or
    above 2**63 as float64.
    """
    counter = (0, *key) + (0,) * (3 - len(key))
    return np.random.Generator(np.random.Philox(key=np.array([seed, len(key)], dtype=np.uint64), counter=counter))


def raw(rng, count=8):
    return rng.bit_generator.random_raw(count)


EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
EDGE_WORDS = [0, 1, 2**31, 2**32 - 1]

seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))
words = st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2**32 - 1))
keys = st.lists(words, max_size=3).map(tuple)


@given(seed=seeds, key=keys)
def test_draws_match_the_documented_expression(seed, key):
    np.testing.assert_array_equal(raw(streams.stream(seed, *key)), raw(reference(seed, *key)))


# random_raw(4) of the first generators. Identity tests elsewhere compare
# two runs of the same code, so only these literals catch a change of stream.
PINNED = {
    (0,): [0x02F4BA6408E4D89B, 0x3DD62B0B9CA8C5B2, 0x1C8667A55D902E79, 0x907D7A052FD5B4DC],
    (1, 2, 3, 4): [0x8E555B0E987355FA, 0x062BBD0F6702293F, 0x30E99B00E2641207, 0xD8FB72B85E18F533],
    (2**64 - 1, 7, 2**32 - 1, 0): [0x598705CE828B95ED, 0x40E411561B502D93, 0x18B17AB6C16EB756, 0xC4CD03540FCAAB74],
    (2024, 2, 1500, 3): [0x09C3628B9265FDC9, 0x68919886077E51F6, 0xAD2F10082A634EF0, 0x26B385BDD7FD461C],
    (2**32, 4, 20): [0x24C0B741F9DCC88B, 0xE6BB5DAE728F0A55, 0x16FF0B2911EFBD69, 0xA2ECB49717DCB7E1],
}


@pytest.mark.parametrize("args", list(PINNED), ids=str)
def test_pinned_words(args):
    assert raw(streams.stream(*args), 4).tolist() == PINNED[args]


def test_trailing_zero_words_give_other_streams():
    draws = {key: raw(streams.stream(3, *key)).tolist() for key in [(), (0,), (0, 0), (0, 0, 0), (5,), (5, 0), (5, 0, 0)]}
    assert len({tuple(d) for d in draws.values()}) == len(draws)


@pytest.mark.parametrize("key", [(streams.DATA, 5, 1), (streams.DATA, 1031, 1), (streams.TASK,)])
def test_same_key_generators_are_independent(key):
    want = raw(reference(9, *key)).tolist()
    a, b = streams.stream(9, *key), streams.stream(9, *key)
    got_a, got_b = [], []
    for _ in want:
        got_a.append(int(a.bit_generator.random_raw()))
        got_b.append(int(b.bit_generator.random_raw()))
    assert got_a == want
    assert got_b == want


def test_call_order_does_not_change_draws():
    seed, n_trials = 31, 80
    cell_keys = [
        key
        for n_idx in range(2)
        for trial in range(n_trials)
        for key in ((streams.TASK, trial), (streams.DATA, trial, n_idx), (streams.TEST, trial, n_idx))
    ]
    forward = {key: raw(streams.stream(seed, *key), 2).tolist() for key in cell_keys}
    backward = {key: raw(streams.stream(seed, *key), 2).tolist() for key in reversed(cell_keys)}
    assert backward == forward
    for key in cell_keys[::37]:
        assert forward[key] == raw(reference(seed, *key), 2).tolist()


def test_seed_seq_is_the_derived_key():
    rng = streams.stream(5, streams.TRAIN, 40, 2)
    np.testing.assert_array_equal(rng.bit_generator.seed_seq.generate_state(2, np.uint64), [5, 3])
    np.testing.assert_array_equal(rng.bit_generator.state["state"]["key"], [5, 3])


@pytest.mark.parametrize(
    "args",
    [(-1,), (2**64,), (2**64, 1, 2), (0, -1), (0, 2**32), (0, 1, 2**32), (0, 1, -3), (0, 1, 2, 2**32),
     (0, 0, 0, 0, 0)],
    ids=str,
)
def test_out_of_range_rejected(args):
    with pytest.raises(ValueError):
        streams.stream(*args)


@pytest.mark.parametrize("args", [(1, 2.5), (1.7, 2), (1, 2.0), (1, 2, np.float64(3.0)), (1, "3"), (2.0,)], ids=str)
def test_fractional_words_rejected(args):
    # Philox would truncate 2.5 to 2 and silently draw another key's stream.
    with pytest.raises(ValueError, match="must be integers"):
        streams.stream(*args)
    with pytest.raises(ValueError, match="must be integers"):
        streams.stream(*args, reuse=streams.stream(1, 2))


def test_four_words_rejected():
    with pytest.raises(ValueError, match="at most 3 words, got 4"):
        streams.stream(1, 2, 3, 4, 5)


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


@pytest.mark.parametrize("args", [(-1,), (2**64, 1, 2), (0, 2**32), (0, 1, -3), (0, 1, 2, 3, 4), (1, 2.9)],
                         ids=str)
def test_reuse_rejects_a_bad_key_like_a_fresh_call(args):
    g = streams.stream(1, 2)
    before = raw(streams.stream(1, 2, reuse=g))
    streams.stream(1, 2, reuse=g)
    with pytest.raises(ValueError) as fresh:
        streams.stream(*args)
    with pytest.raises(ValueError) as reused:
        streams.stream(*args, reuse=g)
    assert str(reused.value) == str(fresh.value)
    np.testing.assert_array_equal(raw(g), before)


@pytest.mark.parametrize("other", [np.random.default_rng(0), np.random.Generator(np.random.Philox(0)), "rng"])
def test_reuse_takes_only_a_generator_from_stream(other):
    with pytest.raises(ValueError, match="reuse"):
        streams.stream(1, 2, reuse=other)


def test_word_types_do_not_change_the_stream():
    typed = (np.uint64(7), np.int32(2), np.uint32(40), np.int64(3))
    a = raw(streams.stream(7, 2, 40, 3))
    np.testing.assert_array_equal(raw(streams.stream(*typed)), a)
    np.testing.assert_array_equal(raw(streams.stream(*typed, reuse=streams.stream(1))), a)
    np.testing.assert_array_equal(a, raw(reference(7, 2, 40, 3)))


# Trials a row walk may meet: edge words, words out of range or of another
# type, each taking the path a fresh call takes.
WALK_TRIALS = st.one_of(st.sampled_from(EDGE_WORDS), st.sampled_from([-1, 2**32, 2.0, np.int64(3), True]))
# The same purpose and n-index objects recur, as in a grid row; shorter keys
# break the row.
WALK_KEYS = st.one_of(
    st.tuples(st.sampled_from([streams.DATA, streams.TEST]), WALK_TRIALS, st.sampled_from([0, 1, 2**32 - 1])),
    st.tuples(st.sampled_from([streams.DATA, streams.TEST]), WALK_TRIALS),
    st.tuples(st.sampled_from([streams.DATA, streams.TEST])),
)


@given(seed=seeds, keys=st.lists(WALK_KEYS, min_size=1, max_size=10))
@example(seed=2**40, keys=[(2, 5, 1), (2, 6, 1), (2, 2**32, 1), (2, 7, 1), (2,), (2, 8, 1), (3, 8, 1), (2, 9, 0)])
def test_a_walk_acts_as_fresh_calls(seed, keys):
    g = streams.stream(seed, 9)
    shadow = streams.stream(seed, 9)
    for key in keys:
        try:
            fresh = streams.stream(seed, *key)
        except ValueError as exc:
            with pytest.raises(ValueError) as reused:
                streams.stream(seed, *key, reuse=g)
            assert str(reused.value) == str(exc)
        else:
            assert streams.stream(seed, *key, reuse=g) is g
            shadow = fresh
        # A refused key leaves g on the stream it was on.
        np.testing.assert_array_equal(raw(g, 3), raw(shadow, 3))
