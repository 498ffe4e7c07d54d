"""Splittable random streams for reproducible replications.

Stream derivation: replication ``r`` of an experiment with seed ``s``
uses the PCG64 stream that
``numpy.random.SeedSequence(entropy=s, spawn_key=(*path, r))`` seeds.
Sweeps prepend the sweep-point index to ``path``.  Streams are therefore
a pure function of (seed, path, replication index): adding replications,
reordering execution, or batching replications differently never
perturbs existing streams.

``SeedSequence`` hashes its entropy words one at a time in interpreted
code.  Its pool mixing and ``generate_state`` use only fixed hash
constants, so this module reproduces them as masked integer arithmetic
that runs on ints and on arrays alike: the words that all replications of
a (seed, path) share are mixed once, and the replication indices of a
whole chunk are mixed in as one array.  The test suite holds NumPy's
``SeedSequence`` as the reference.

A stream then costs only NumPy's ``PCG64`` and ``Generator`` construction:
one ``_SeedRows`` per chunk hands each ``PCG64`` built from it the next
row of the chunk's seed words.  ``StreamChunk`` builds a chunk's streams
one at a time as it is iterated, so the engine can draw from each stream
and drop it before it builds the next (see ``trajectory``);
``replication_streams`` returns them as a list.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

RandomStream = np.random.Generator

# SeedSequence's pool size, hash constants and shift (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFF_FFFF
# PCG64 asks its seed sequence for four uint64 words, hashed as eight uint32 words.
_SEED_WORDS = 4


def _words(n: int, name: str) -> list[int]:
    """Little-endian uint32 words of ``n``; ``[0]`` for 0 (NumPy's rule)."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_pairs(const: int, mult: int):
    """SeedSequence's running hash constant: ``(constant, constant * mult)``
    for each successive hash."""
    while True:
        following = const * mult & _MASK32
        yield const, following
        const = following


# generate_state's hash constants for the eight uint32 words PCG64 asks for.
_STATE_HASHES = list(itertools.islice(_hash_pairs(_INIT_B, _MULT_B), 2 * _SEED_WORDS))


def _hash(value, xor, mul):
    """SeedSequence's hashmix (and generate_state step) on ints or uint64 arrays."""
    value = (value ^ xor) * mul & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    # Each product is reduced first, so an int product fits before it meets an array.
    value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix_words(pool: list, words, constants) -> None:
    """Mix each word into every pool word: the tail of SeedSequence.mix_entropy."""
    for word in words:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, *next(constants)))


@functools.lru_cache(maxsize=128)
def _shared_pool(prefix: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """SeedSequence.mix_entropy over the words that all replications of a
    (seed, path) share; returns the pool and the running hash constant.

    ``prefix`` is the run entropy, zero-padded to the pool size, followed by
    the path words, so its first pool-size words fill the pool.  The result
    is cached, so single streams of one (seed, path) share this work too.
    """
    constants = _hash_pairs(_INIT_A, _MULT_A)
    pool = [_hash(word, *next(constants)) for word in prefix[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(constants)))
    _mix_words(pool, prefix[_POOL_SIZE:], constants)
    return tuple(pool), next(constants)[0]


def _seed_words(prefix: tuple[int, ...], index_words: list) -> np.ndarray:
    """PCG64's four uint64 seed words for the entropy ``prefix + index_words``.

    Each index word is an int, or a uint64 array holding that uint32 word
    for many replications; the result is ``(4,)`` if all are ints and
    ``(n, 4)`` otherwise.  The arithmetic is masked to 32 bits, so both give
    SeedSequence's uint32 results.
    """
    pool, const = _shared_pool(prefix)
    pool = list(pool)
    _mix_words(pool, index_words, _hash_pairs(const, _MULT_A))
    # SeedSequence.generate_state(4, np.uint64): eight uint32 words, of
    # which 2j and 2j+1 are the low and high halves of uint64 word j.
    state = [_hash(pool[i % _POOL_SIZE], *pair) for i, pair in enumerate(_STATE_HASHES)]
    words = [lo | hi << 32 for lo, hi in zip(state[0::2], state[1::2])]
    # PCG64 reads a stream's four words from one contiguous row.
    return np.array(words, dtype=np.uint64).T.copy()


class _SeedRows(ISeedSequence):
    """Hands each PCG64 built from it the next row of ``rows``, an
    ``(n, 4)`` uint64 array of precomputed seed words, so one object seeds
    a whole chunk's streams.

    It cannot spawn, so ``Generator.spawn`` on a stream raises ``TypeError``.
    """

    def __init__(self, rows: np.ndarray):
        self._rows = iter(rows)

    def generate_state(self, n_words, dtype=np.uint32):
        # the identity test spares the common call a dtype construction
        if n_words != _SEED_WORDS or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError(f"only {_SEED_WORDS} uint64 seed words are derived, not {n_words} of {np.dtype(dtype)}")
        return next(self._rows)


def _entropy_prefix(base_seed: int, path) -> tuple[int, ...]:
    """The seed's words zero-padded to the pool size, then the path's words:
    how SeedSequence assembles its entropy when the spawn key is not empty."""
    words = _words(base_seed, "base_seed")
    words += [0] * (_POOL_SIZE - len(words))
    for element in path:
        words += _words(element, "stream path element")
    return tuple(words)


class StreamChunk:
    """The streams of replications ``path + (start,)`` ..
    ``path + (start + count - 1,)``: a sized iterable that builds them
    afresh, in index order, each time it is iterated.

    A chunk holds no stream.  Each pass derives the chunk's seed words in
    one vectorized pass, then builds each stream, from one ``_SeedRows``
    that holds them, only when the stream is asked for; so a caller that
    draws from each stream once and drops it never holds more than one.
    """

    def __init__(self, base_seed: int, count: int, path: tuple[int, ...] = (), start: int = 0):
        self._prefix = _entropy_prefix(base_seed, path)
        _words(start, "replication index")
        self._start, self._count = start, count

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[RandomStream]:
        start, stop = self._start, self._start + self._count
        # Indices that share their words above the lowest are derived
        # together, with the shared words as ints and the lowest word as an
        # array.
        while start < stop:
            end = min(stop, ((start >> 32) + 1) << 32)
            low, *high = _words(start, "replication index")
            index_words = [np.arange(low, low + end - start, dtype=np.uint64), *high]
            seeds = _SeedRows(_seed_words(self._prefix, index_words))
            yield from map(RandomStream, map(np.random.PCG64, itertools.repeat(seeds, end - start)))
            start = end


def replication_streams(
    base_seed: int, count: int, path: tuple[int, ...] = (), start: int = 0
) -> list[RandomStream]:
    """Streams for replications ``path + (start,) .. path + (start+count-1,)``,
    derived together: a ``StreamChunk``'s streams as a list."""
    return list(StreamChunk(base_seed, count, path, start))


def replication_stream(base_seed: int, *path: int) -> RandomStream:
    """Independent generator for one replication, keyed by ``(seed, *path)``;
    the last element of ``path`` is the replication index."""
    if not path:
        raise ValueError("replication_stream needs a replication index after base_seed")
    *path, index = path
    words = _seed_words(_entropy_prefix(base_seed, path), _words(index, "replication index"))
    return RandomStream(np.random.PCG64(_SeedRows(words[None])))
