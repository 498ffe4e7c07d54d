"""Stream derivation against NumPy's ``SeedSequence``, the reference.

Replication ``r`` of seed ``s`` on path ``p`` must get exactly the stream of
``default_rng(SeedSequence(entropy=s, spawn_key=(*p, r)))``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwbandit import replication_stream, replication_streams
from kwbandit.montecarlo import REPLICATION_CHUNK
from kwbandit.rng import StreamChunk, _SeedRows


def reference_stream(seed, path, r):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(*path, r)))


def assert_same_stream(stream, expected):
    assert stream.bit_generator.state == expected.bit_generator.state
    assert np.array_equal(stream.integers(0, 2**63, size=3), expected.integers(0, 2**63, size=3))
    assert stream.normal(size=2).tolist() == expected.normal(size=2).tolist()


# Seeds of one word, of four (the pool size) and of five.
seeds = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**128 - 1, 2**128]), st.integers(0, 2**130))
# Path elements of one word, and of two or more.
path_elements = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70))
paths = st.lists(path_elements, max_size=3).map(tuple)
# Starts just before a chunk boundary, and just before an index gains a word.
starts = st.one_of(
    st.integers(0, 5),
    st.builds(lambda k, back: k * REPLICATION_CHUNK - back, st.integers(1, 3), st.integers(0, 5)),
    st.builds(lambda words, back: 2 ** (32 * words) - back, st.integers(1, 2), st.integers(0, 5)),
)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, path=paths, start=starts, width=st.integers(1, 8))
def test_streams_match_seed_sequence(seed, path, start, width):
    chunk = StreamChunk(seed, width, path, start)
    # a chunk builds its streams afresh on every pass
    passes = [replication_streams(seed, width, path, start), list(chunk), list(chunk)]
    assert len(chunk) == width
    for streams in passes:
        assert len(streams) == width
        for i, stream in enumerate(streams):
            assert_same_stream(stream, reference_stream(seed, path, start + i))
    for i in range(width):
        assert_same_stream(replication_stream(seed, *path, start + i), reference_stream(seed, path, start + i))


def test_default_path_and_start():
    for r, stream in enumerate(replication_streams(7, 3)):
        assert_same_stream(stream, reference_stream(7, (), r))


@pytest.mark.parametrize(
    ("seed", "path", "r"),
    [(-1, (), 0), (0, (-1,), 0), (0, (3, -2), 0), (0, (), -1)],
    ids=["seed", "path", "second-path-element", "replication"],
)
def test_negative_key_is_a_one_line_value_error(seed, path, r):
    with pytest.raises(ValueError):
        np.random.SeedSequence(entropy=seed, spawn_key=(*path, r))
    calls = (
        lambda: replication_stream(seed, *path, r),
        lambda: replication_streams(seed, 2, path, r),
        lambda: StreamChunk(seed, 2, path, r),
    )
    for call in calls:
        with pytest.raises(ValueError, match=">= 0") as info:
            call()
        assert "\n" not in str(info.value)


def test_stream_without_replication_index_is_a_value_error():
    with pytest.raises(ValueError, match="replication index"):
        replication_stream(5)


def test_streams_cannot_spawn():
    for stream in (replication_stream(0, 0), next(iter(StreamChunk(0, 2)))):
        with pytest.raises(TypeError):
            stream.spawn(1)


@pytest.mark.parametrize(
    ("n_words", "dtype"), [(8, np.uint32), (4, np.uint32), (2, np.uint64), (8, np.uint64)], ids=str
)
def test_seed_rows_give_only_four_uint64_words(n_words, dtype):
    seeds = _SeedRows(np.zeros((2, 4), dtype=np.uint64))
    with pytest.raises(ValueError, match="only 4 uint64 seed words") as info:
        seeds.generate_state(n_words, dtype)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("build", [lambda: replication_stream(3, 1, 4), lambda: next(iter(StreamChunk(3, 2, (1,), 4)))])
def test_jumped_streams_match_seed_sequence(build):
    jumped = build().bit_generator.jumped()
    expected = reference_stream(3, (1,), 4).bit_generator.jumped()
    assert jumped.state == expected.state
    assert np.random.Generator(jumped).random() == np.random.Generator(expected).random()
