import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec.rng import substream, substreams

SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5]
# prefixes of 1 to 9 words: the id enters the first pool pass or the last
PARTS = [(), (7,), ("eval-graph",), ("client", 3), ("a", 1, "b", 2**40 + 3), (-4, "neg")]
IDS = [0, 1, 2**32 - 1, 9, 3, 3, 0]


def assert_same_streams(bulk, seed, parts, ids) -> None:
    bulk = list(bulk)
    assert len(bulk) == len(ids)
    for stream, i in zip(bulk, ids):
        one = substream(seed, *parts, i)
        assert stream.bit_generator.state == one.bit_generator.state
        assert stream.random(3).tobytes() == one.random(3).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("parts", PARTS)
def test_substreams_are_the_single_key_streams(seed, parts):
    assert_same_streams(substreams(seed, *parts, ids=IDS), seed, parts, IDS)


def test_substreams_seed_as_numpy_seed_sequence_does():
    seed, parts = 2**64 + 5, ("client", 12)
    label = int.from_bytes(hashlib.blake2b(b"client", digest_size=8).digest(), "big")
    entropy = [seed, label, 12]
    for stream, i in zip(substreams(seed, *parts, ids=[0, 77]), [0, 77]):
        ref = np.random.default_rng(np.random.SeedSequence(entropy + [i]))
        assert stream.bit_generator.state == ref.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**70),
    parts=st.lists(st.one_of(st.integers(-(2**40), 2**70), st.text(max_size=6)), max_size=4),
    ids=st.lists(st.integers(0, 2**32 - 1), max_size=6),
)
def test_substreams_match_on_any_key(seed, parts, ids):
    assert_same_streams(substreams(seed, *parts, ids=ids), seed, parts, ids)


def test_ids_may_be_an_array_or_a_range():
    for ids in (np.array([4, 2], dtype=np.uint32), np.array([4, 2]), range(3)):
        assert_same_streams(substreams(5, "x", ids=ids), 5, ("x",), list(ids))


def test_no_ids_give_no_streams():
    assert list(substreams(0, "x", ids=[])) == []
    assert list(substreams(0, ids=np.empty(0, dtype=np.int64))) == []


@pytest.mark.parametrize(
    "ids", [[-1], [0, 2**32], [2**64], [1.0], np.array([0.5]), [[1, 2]], [True]]
)
def test_ids_outside_one_word_raise(ids):
    with pytest.raises(ValueError):
        substreams(0, "x", ids=ids)


@pytest.mark.parametrize("part", [1.0, np.float64(1.0), None, b"1", (1,)])
def test_parts_that_are_neither_int_nor_str_raise(part):
    with pytest.raises(TypeError):
        substream(0, part)
    with pytest.raises(TypeError):
        substreams(0, part, ids=[1])


def test_string_and_int_parts_stay_distinct():
    draws = {substream(0, part).random() for part in ("1.0", "1", 1, np.int64(1))}
    assert len(draws) == 3  # 1 and np.int64(1) are one key


def test_streams_are_made_as_they_are_reached():
    streams = substreams(9, "eval-graph", ids=range(5, 5000))
    assert not isinstance(streams, list)
    assert_same_streams(streams, 9, ("eval-graph",), list(range(5, 5000)))


def test_a_pass_that_drops_each_stream_holds_one_generator_at_a_time():
    def peak(pass_over, n: int) -> int:
        tracemalloc.start()
        try:
            for stream in pass_over(substreams(3, "pretrain-graph", ids=np.arange(n))):
                stream.random()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a generator holds about 780 B; mixing the seed words peaks near 200 B per id
    for n in (4096, 16384):
        assert peak(iter, n) < peak(list, n) / 3
