"""Monte-Carlo estimation of expected total regret over replications."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import NoiseModel
from .rng import replication_streams
from .schedule import EnvironmentSchedule
from .trajectory import Policy, RegretTrace, simulate_batch

# Upper bound on the replications simulated together, which bounds the
# generator states and noise blocks alive at once.  Results do not depend on it.
REPLICATION_CHUNK = 1024


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean and standard error of the total regret."""

    mean: float
    standard_error: float
    replications: int
    base_seed: int

    @classmethod
    def from_samples(cls, samples: np.ndarray, base_seed: int) -> "MonteCarloEstimate":
        """Mean and standard error of ``samples``; the error of one sample is 0."""
        n = len(samples)
        stderr = 0.0 if n < 2 else float(np.std(samples, ddof=1) / np.sqrt(n))
        return cls(mean=float(np.mean(samples)), standard_error=stderr, replications=n, base_seed=base_seed)

    def upper_confidence(self, z: float = 3.0) -> float:
        return self.mean + z * self.standard_error

    def lower_confidence(self, z: float = 3.0) -> float:
        return self.mean - z * self.standard_error


def regret_samples(
    policy: Policy,
    env: EnvironmentSchedule,
    noise: NoiseModel,
    replications: int,
    base_seed: int,
    seed_path: tuple[int, ...] = (),
    probe_steps: tuple[int, ...] = (),
    record_first_trace: bool = False,
) -> tuple[np.ndarray, dict[int, np.ndarray], RegretTrace | None]:
    """Total regret of every replication, ordered by replication index.

    Replication ``r`` draws from the stream keyed by
    ``(base_seed, *seed_path, r)``; results are a pure function of that
    key, so running them in chunks of ``REPLICATION_CHUNK`` only bounds
    memory and never changes a result.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")

    def run_chunk(chunk: range):
        return simulate_batch(
            policy,
            env,
            noise,
            replication_streams(base_seed, len(chunk), seed_path, chunk.start),
            record_trace=record_first_trace and chunk.start == 0,
            probe_steps=probe_steps,
        )

    results = [
        run_chunk(range(start, min(start + REPLICATION_CHUNK, replications)))
        for start in range(0, replications, REPLICATION_CHUNK)
    ]

    totals = np.concatenate([res.total_regret for res in results])
    probes: dict[int, np.ndarray] = {}
    for s in probe_steps:
        probes[int(s)] = np.concatenate([res.distance_probes[int(s)] for res in results])
    trace = results[0].trace if record_first_trace else None
    return totals, probes, trace


def monte_carlo_regret(
    policy: Policy,
    env: EnvironmentSchedule,
    noise: NoiseModel,
    replications: int,
    base_seed: int,
    seed_path: tuple[int, ...] = (),
) -> MonteCarloEstimate:
    """Mean and standard error of total regret over independent replications."""
    if replications < 2:
        raise ValueError(f"monte_carlo_regret needs replications >= 2, got {replications}")
    totals, _, _ = regret_samples(policy, env, noise, replications, base_seed, seed_path=seed_path)
    return MonteCarloEstimate.from_samples(totals, base_seed)
