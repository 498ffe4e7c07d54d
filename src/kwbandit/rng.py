"""Splittable random streams for reproducible replications.

Stream derivation: replication ``r`` of an experiment with seed ``s``
uses ``numpy.random.SeedSequence(entropy=s, spawn_key=(*path, r))``.
Sweeps prepend the sweep-point index to ``path``.  Streams are therefore
a pure function of (seed, path, replication index): adding replications,
reordering execution, or batching replications differently never
perturbs existing streams.
"""

from __future__ import annotations

import numpy as np

RandomStream = np.random.Generator


def replication_stream(base_seed: int, *path: int) -> RandomStream:
    """Independent generator for one replication, keyed by (seed, *path)."""
    if base_seed < 0:
        raise ValueError(f"base_seed must be >= 0, got {base_seed}")
    return np.random.default_rng(np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(path)))


def replication_streams(base_seed: int, count: int, path: tuple[int, ...] = ()) -> list[RandomStream]:
    """Streams for replications ``path + (0,) .. path + (count-1,)``."""
    return [replication_stream(base_seed, *path, r) for r in range(count)]
