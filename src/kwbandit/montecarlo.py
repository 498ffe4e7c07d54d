"""Monte-Carlo estimation of expected total regret over replications:
``regret_lanes`` packs many experiments into shared batches, and
``regret_samples`` is its one-experiment case.  Both, and
``simulate_batch`` for a batch of one lane, stay entry points because the
benchmark's tracer counts the engine through them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .noise import NoiseModel
from .objectives import shared_kind
from .rng import StreamChunk
from .schedule import EnvironmentSchedule
from .traces import TraceSink
from .trajectory import BatchResult, Lane, Policy, simulate_batch, simulate_lanes

# Upper bound on the rows (replications, over all lanes) simulated together,
# which bounds the generator states alive at once.  Results do not depend on it.
REPLICATION_CHUNK = 1024


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean and standard error of the total regret."""

    mean: float
    standard_error: float

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "MonteCarloEstimate":
        """Mean and standard error of ``samples``; the error of one sample is 0."""
        n = len(samples)
        stderr = 0.0 if n < 2 else float(np.std(samples, ddof=1) / np.sqrt(n))
        return cls(mean=float(np.mean(samples)), standard_error=stderr)

    def lower_confidence(self, z: float = 3.0) -> float:
        return self.mean - z * self.standard_error


@dataclass(frozen=True)
class Experiment:
    """The inputs of one Monte-Carlo estimate: replication ``r`` runs
    ``policy`` on ``env`` under ``noise`` and draws from the stream keyed by
    ``(base_seed, *seed_path, r)``; ``probe_steps`` as in ``simulate_batch``."""

    policy: Policy
    env: EnvironmentSchedule
    noise: NoiseModel
    replications: int
    base_seed: int
    seed_path: tuple[int, ...] = ()
    probe_steps: tuple[int, ...] = ()

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")

    def batch_key(self) -> tuple:
        """Experiments with equal keys can share a batch (see ``simulate_lanes``)."""
        return type(self.policy), self.env.domain, self.env.horizon, shared_kind(self.env.objectives), self.noise


Samples = tuple[np.ndarray, dict[int, np.ndarray]]


def regret_lanes(experiments: Sequence[Experiment], trace: TraceSink | None = None) -> list[Samples]:
    """``regret_samples`` of every experiment, in experiment order, from
    batches that run several experiments in one step loop.

    Experiments with one ``batch_key``, and so one horizon, are cut in
    experiment order into (experiment, replication range) pieces, packed
    into batches of at most ``REPLICATION_CHUNK`` rows; each piece is a
    lane, and draws from a private ``StreamChunk`` that builds the piece's
    streams only when the engine iterates it.  Every result is a pure
    function of its experiment: the packing only bounds memory and never
    changes a result.  A batch of one lane runs through ``simulate_batch``.
    ``trace`` receives the trace of replication 0 of the first experiment,
    block by block, as the engine runs.
    """
    groups: dict[tuple, list[int]] = {}
    for i, experiment in enumerate(experiments):
        groups.setdefault(experiment.batch_key(), []).append(i)
    pieces: list[list[BatchResult]] = [[] for _ in experiments]

    def run(batch: list[tuple[int, int, int]]) -> None:
        lanes = [
            Lane(
                experiments[i].policy,
                experiments[i].env,
                StreamChunk(experiments[i].base_seed, count, experiments[i].seed_path, start),
                experiments[i].probe_steps,
                record_trace=trace if trace is not None and i == start == 0 else False,
            )
            for i, start, count in batch
        ]
        noise = experiments[batch[0][0]].noise
        if len(lanes) == 1:
            # The same loop, entered where perfbench's tracer counts trajectory.*.
            lane = lanes[0]
            results = [simulate_batch(lane.policy, lane.env, noise, lane.rngs, lane.record_trace, lane.probe_steps)]
        else:
            results = simulate_lanes(lanes, noise)
        for (i, _, _), result in zip(batch, results):
            pieces[i].append(result)

    for members in groups.values():
        batch, room = [], REPLICATION_CHUNK
        for i in members:
            start, replications = 0, experiments[i].replications
            while start < replications:
                count = min(room, replications - start)
                batch.append((i, start, count))
                start, room = start + count, room - count
                if room == 0:
                    run(batch)
                    batch, room = [], REPLICATION_CHUNK
        if batch:
            run(batch)

    def join(arrays: list[np.ndarray]) -> np.ndarray:
        # an experiment that ran in one piece needs no copy
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    samples = []
    for experiment, results in zip(experiments, pieces):
        totals = join([res.total_regret for res in results])
        probes = {int(s): join([res.distance_probes[int(s)] for res in results]) for s in experiment.probe_steps}
        samples.append((totals, probes))
    return samples


def regret_samples(
    policy: Policy,
    env: EnvironmentSchedule,
    noise: NoiseModel,
    replications: int,
    base_seed: int,
    seed_path: tuple[int, ...] = (),
    probe_steps: tuple[int, ...] = (),
    trace: TraceSink | None = None,
) -> Samples:
    """Total regret of every replication, ordered by replication index,
    and the requested distance probes; ``trace`` receives the trace of
    replication 0 block by block.

    Replication ``r`` draws from the stream keyed by
    ``(base_seed, *seed_path, r)``; results are a pure function of that
    key, so running them in chunks of ``REPLICATION_CHUNK`` only bounds
    memory and never changes a result.  This is the one-experiment case of
    ``regret_lanes``.
    """
    experiment = Experiment(policy, env, noise, replications, base_seed, seed_path, probe_steps)
    return regret_lanes([experiment], trace)[0]

