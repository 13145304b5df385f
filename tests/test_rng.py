"""Counter-based stream tests: known-answer vectors, batching invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from securakit import rng
from securakit.errors import DomainError
from securakit.rng import (
    CounterRng,
    _philox4x32,
    _uniform_pair_scalar,
    uniform_block,
    uniform_pairs,
)

KNOWN_ANSWERS = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    (
        (0xFFFFFFFF,) * 4,
        (0xFFFFFFFF,) * 2,
        (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
    ),
    (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
]


# Published known-answer vectors for the Philox-4x32-10 block function.
@pytest.mark.parametrize("counter,key,expected", KNOWN_ANSWERS)
def test_philox_known_answer(counter, key, expected):
    # the same words on uint64 lanes and on Python ints
    args = [np.array([w], dtype=np.uint64) for w in counter + key]
    got = tuple(int(word[0]) for word in _philox4x32(*args))
    assert got == expected
    words = _philox4x32(*counter, *key)
    assert all(type(word) is int for word in words)
    assert words == expected


@pytest.mark.parametrize("counter,key,expected", KNOWN_ANSWERS)
def test_philox_known_answer_with_scalar_key(counter, key, expected):
    lanes = [np.array([w, w], dtype=np.uint64) for w in counter]
    got = _philox4x32(*lanes, *key)
    assert [[int(x) for x in word] for word in got] == [[e, e] for e in expected]
    # counter words mixed, as _blocks passes them: a lane of one entry is a Python int
    mixed = _philox4x32(*lanes[:2], *counter[2:], *key)
    assert [word.tolist() for word in mixed] == [[e, e] for e in expected]


def test_pair_known_answer():
    (c0, c1, c2, c3), (k0, k1), (x0, x1, x2, x3) = KNOWN_ANSWERS[2]
    seed, trial, substream, counter = (k1 << 32) | k0, c2, c3, (c1 << 32) | c0
    second = (((x2 << 32 | x3) >> 11) + 1) * 2.0 ** -53
    first = float(uniform_block(seed, trial, substream, counter))
    assert first == (((x0 << 32 | x1) >> 11) + 1) * 2.0 ** -53
    assert _uniform_pair_scalar(seed, trial, substream, counter) == (first, second)
    bulk = uniform_pairs(seed, np.array([trial]), substream, np.array([counter]))
    assert [u.tolist() for u in bulk] == [[first], [second]]


def test_uniform_range_and_determinism():
    r1 = CounterRng(seed=123, trial=5, substream=2)
    r2 = CounterRng(seed=123, trial=5, substream=2)
    draws = [r1.uniform() for _ in range(1000)]
    assert draws == [r2.uniform() for _ in range(1000)]
    assert all(0.0 < u <= 1.0 for u in draws)


def test_scalar_and_bulk_draws_agree():
    scalar = CounterRng(seed=9, trial=3)
    bulk = CounterRng(seed=9, trial=3)
    a = np.array([scalar.uniform() for _ in range(300)])
    b = bulk.uniforms(300)
    assert np.array_equal(a, b)


def test_mixed_scalar_bulk_consumption_is_one_stream():
    r = CounterRng(seed=9, trial=3)
    head = [r.uniform() for _ in range(3)]
    tail = r.uniforms(5)
    expected = CounterRng(seed=9, trial=3).uniforms(8)
    assert head == list(expected[:3])
    assert np.array_equal(tail, expected[3:])
    # a pair is the next block, and its first double is that block's draw
    pair = r.uniform_pair()
    assert pair == tuple(float(u) for u in uniform_pairs(9, 3, 0, 8))
    assert pair[0] == CounterRng(seed=9, trial=3).uniforms(9)[8]
    assert r.uniform() == _uniform_pair_scalar(9, 3, 0, 9)[0]


@pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
def test_draw_count_must_be_an_integer(n):
    r = CounterRng(seed=4)
    with pytest.raises(DomainError) as info:
        r.uniforms(n)
    assert str(info.value) == f"draw count must be an integer, got {n!r}"
    # the stream did not move, and an integer of any type is a count
    assert r.uniform() == CounterRng(seed=4).uniform()
    assert np.array_equal(r.uniforms(np.int64(3)), CounterRng(seed=4).uniforms(4)[1:])


def test_uniform_block_batching_invariance():
    counters = np.arange(50, dtype=np.uint64)
    whole = uniform_block(7, 11, 0, counters)
    pieces = np.concatenate([uniform_block(7, 11, 0, counters[i : i + 7]) for i in range(0, 50, 7)])
    assert np.array_equal(whole, pieces)


def test_distinct_cells_are_distinct_streams():
    base = CounterRng(seed=1, trial=0, substream=0).uniforms(64)
    for kwargs in ({"trial": 1}, {"substream": 1}):
        other = CounterRng(seed=1, **kwargs).uniforms(64)
        assert not np.array_equal(base, other)
    assert not np.array_equal(base, CounterRng(seed=2).uniforms(64))


def test_cell_bounds_rejected():
    with pytest.raises(DomainError):
        CounterRng(seed=-1)
    with pytest.raises(DomainError):
        CounterRng(seed=2 ** 64)
    with pytest.raises(DomainError):
        CounterRng(seed=0, trial=2 ** 32)
    with pytest.raises(DomainError):
        CounterRng(seed=0, substream=-3)
    for draw in (uniform_block, uniform_pairs):
        for trial, substream in ((-1, 0), (2 ** 32, 0), (np.array([0, 2 ** 32]), 0),
                                 (0, -1), (0, 2 ** 32), (0, 2 ** 64), (np.arange(3), np.array([0, -1, 2])),
                                 (np.arange(3), np.array([1, 2 ** 32, 2], dtype=np.uint64))):
            with pytest.raises(DomainError):
                draw(0, trial, substream, 0)


@pytest.mark.parametrize("kind", [np.int64, np.uint64])
def test_numpy_integer_cells_draw_the_python_int_cells(kind):
    # a numpy integer word in the cipher's rounds would overflow int64, or be promoted to float64
    # by numpy < 2, so each cell is taken as Python ints
    seed, trial, substream = 2 ** 40 + 5, 4_000_000_000, 7
    expected = CounterRng(seed, trial, substream)
    got = CounterRng(kind(seed), kind(trial), np.uint32(substream))
    assert (got.seed, got.trial, got.substream) == (seed, trial, substream)
    assert all(type(word) is int for word in (got.seed, got.trial, got.substream))
    assert [got.uniform_pair() for _ in range(3)] == [expected.uniform_pair() for _ in range(3)]
    assert np.array_equal(got.uniforms(5), expected.uniforms(5))
    for draw in (uniform_block, uniform_pairs):
        assert np.array_equal(draw(kind(seed), kind(trial), substream, kind(9)), draw(seed, trial, substream, 9))


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
def test_seed_must_be_an_integer(seed):
    for make in (CounterRng, lambda s: uniform_block(s, 0, 0, 0)):
        with pytest.raises(DomainError) as info:
            make(seed)
        assert str(info.value) == f"seed must be an integer, got {seed!r}"


@pytest.mark.parametrize("draw", [uniform_block, uniform_pairs])
@pytest.mark.parametrize("trial, substream, counter", [
    (np.array([1.5]), 0, 0),  # not the draw of trial 1
    (1, 2.9, 0),  # not substream 2
    (np.array([1, 2]), np.array([0.0, 1.0]), 0),
    (True, 0, 0),
])
def test_cells_must_be_integers(draw, trial, substream, counter):
    message = r"^(trial index|substream id) must be an integer, got (float64|bool) values$"
    with pytest.raises(DomainError, match=message):
        draw(0, trial, substream, counter)


@pytest.mark.parametrize("draw", [uniform_block, uniform_pairs])
@pytest.mark.parametrize("counter, got", [
    (np.array([-2], dtype=np.int64), -2),  # not the block of counter 2**64 - 2
    (-1, -1),
    (2 ** 64, 2 ** 64),
    (np.array([[3], [-5]]), -5),
])
def test_draw_indices_outside_the_counter_range_are_rejected(draw, counter, got):
    with pytest.raises(DomainError, match=rf"^draw index must be in \[0, 2\*\*64\), got {got}$"):
        draw(0, np.arange(4), 0, counter)


@pytest.mark.parametrize("counter", [np.array([2.0]), 1.5])
def test_draw_indices_must_be_integers(counter):
    with pytest.raises(DomainError, match=r"^draw index must be an integer, got float64 values$"):
        uniform_block(0, 1, 0, counter)


def test_draw_indices_at_the_ends_of_the_counter_range_are_accepted():
    for counter in (0, 2 ** 64 - 1):
        expected = _uniform_pair_scalar(5, 1, 2, counter)
        for form in (counter, np.array([counter], dtype=np.uint64), np.array([[counter]], dtype=np.uint64)):
            assert np.ravel(uniform_pairs(5, 1, 2, form)).tolist() == list(expected)


@given(
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    trial=st.integers(min_value=0, max_value=2 ** 32 - 1),
    counter=st.integers(min_value=0, max_value=2 ** 63),
)
def test_draws_always_in_half_open_unit_interval(seed, trial, counter):
    u = uniform_block(seed, np.array([trial]), 0, np.array([counter]))
    assert 0.0 < u[0] <= 1.0


def test_uniform_mean_matches_theory():
    u = CounterRng(seed=2024).uniforms(200_000)
    # mean 1/2, sd of mean = 1/sqrt(12 n)
    assert abs(u.mean() - 0.5) < 3.0 / np.sqrt(12 * u.size)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    trials=st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1), min_size=1, max_size=9),
    substream=st.integers(min_value=0, max_value=2 ** 32 - 1),
    counters=st.lists(st.integers(min_value=2 ** 32, max_value=2 ** 64 - 1), min_size=9, max_size=9),
)
def test_uniform_block_equals_scalar_cipher(seed, trials, substream, counters):
    counters = counters[: len(trials)]
    expected = [_uniform_pair_scalar(seed, t, substream, c)[0] for t, c in zip(trials, counters)]
    block = uniform_block(seed, np.array(trials, dtype=np.uint64), substream,
                          np.array(counters, dtype=np.uint64))
    assert block.tolist() == expected
    # one trial against many counters, and many trials against one counter
    assert uniform_block(seed, trials[0], substream, np.array(counters, dtype=np.uint64)).tolist() == [
        _uniform_pair_scalar(seed, trials[0], substream, c)[0] for c in counters]
    assert uniform_block(seed, np.array(trials, dtype=np.uint64), substream, counters[0]).tolist() == [
        _uniform_pair_scalar(seed, t, substream, counters[0])[0] for t in trials]


@pytest.mark.parametrize("chunk", [1, 3, 64, 1000])
def test_uniform_block_chunking_is_invisible(monkeypatch, chunk):
    trials = np.arange(5, 1005, dtype=np.uint64)
    counters = np.arange(2 ** 40, 2 ** 40 + 1000, dtype=np.uint64)
    for draw in (uniform_block, uniform_pairs):
        whole = draw(2 ** 63 + 5, trials, 7, counters)
        per_lane = draw(2 ** 63 + 5, trials, 7, 2 ** 33)
        with monkeypatch.context() as patch:
            patch.setattr(rng, "_CHUNK", chunk)
            assert np.array_equal(draw(2 ** 63 + 5, trials, 7, counters), whole)
            assert np.array_equal(draw(2 ** 63 + 5, trials, 7, 2 ** 33), per_lane)
            empty = draw(2 ** 63 + 5, trials[:0], 7, 2 ** 33)
            assert np.shape(empty) == ((0,) if draw is uniform_block else (2, 0))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    trials=st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1), min_size=1, max_size=9),
    substreams=st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1), min_size=9, max_size=9),
    counters=st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1), min_size=9, max_size=9),
    scalar=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_uniform_pairs_equal_scalar_pairs(seed, trials, substreams, counters, scalar):
    # each of trial, substream and counter is one scalar or one entry per lane
    columns = [trials, substreams[: len(trials)], counters[: len(trials)]]
    n = 1 if all(scalar) else len(trials)
    expected = [_uniform_pair_scalar(seed, *(c[0 if one else i] for c, one in zip(columns, scalar)))
                for i in range(n)]
    first, second = uniform_pairs(
        seed, *(c[0] if one else np.array(c, dtype=np.uint64) for c, one in zip(columns, scalar)))
    assert np.shape(first) == np.shape(second) == (() if all(scalar) else (n,))
    assert list(zip(np.ravel(first).tolist(), np.ravel(second).tolist())) == expected


def test_hold_and_choice_doubles_are_uncorrelated():
    hold, choice = uniform_pairs(2024, np.arange(1000, dtype=np.uint64)[:, None], 0,
                                 np.arange(1000, dtype=np.uint64))
    n = hold.size
    assert n == 10 ** 6
    r = np.corrcoef(hold.ravel(), choice.ravel())[0, 1]
    assert abs(r) < 5 / np.sqrt(n)
