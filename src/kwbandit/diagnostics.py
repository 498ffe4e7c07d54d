"""Monte-Carlo diagnostics: the one-step distance recursion check and the
calibration of the windowed rule's steady-distance constant."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import FixedStepConfig, SlidingWindowConfig
from .montecarlo import Experiment, MonteCarloEstimate, regret_lanes, regret_samples
from .noise import NoiseModel
from .objectives import ObjectiveSpec
from .schedule import EnvironmentSchedule
from .trajectory import FixedStepPolicy, SlidingWindowPolicy
from .tuning import error_floor


@dataclass(frozen=True)
class RecursionCheckReport:
    """Empirical one-step inequality for the fixed-step rule.  The one
    dataclass of the package: the benchmark reads a report's values with
    ``dataclasses.asdict``.

    Checks, at probe step s, whether

        est E||X_{s+1} - theta||^2 <= gamma * est E||X_s - theta||^2
                                      + H(beta) + 3 * SE

    where SE is the standard error of the paired per-replication statistic
    ||X_{s+1}-theta||^2 - gamma*||X_s-theta||^2 (replications are paired,
    so the combined error is measured on the difference directly).
    """

    probe_step: int
    replications: int
    estimate_s: float
    estimate_s_next: float
    gamma: float
    floor: float
    paired_mean: float
    paired_stderr: float
    holds: bool


def distance_recursion_check(
    config: FixedStepConfig,
    objective: ObjectiveSpec,
    noise: NoiseModel,
    x0,
    probe_step: int,
    replications: int,
    base_seed: int,
) -> RecursionCheckReport:
    """Estimate both sides of the one-step squared-distance recursion on a
    stationary objective by independent replications, replication r drawing
    from the stream keyed ``(base_seed, r)``."""
    if probe_step < 1:
        raise ValueError(f"probe_step must be >= 1, got {probe_step}")
    if replications < 2:
        raise ValueError(f"replications must be >= 2, got {replications}")
    env = EnvironmentSchedule.stationary(horizon=probe_step, objective=objective)
    policy = FixedStepPolicy(config=config, x0=tuple(np.atleast_1d(np.asarray(x0, dtype=float))))
    _, probes = regret_samples(policy, env, noise, replications, base_seed, probe_steps=(probe_step, probe_step + 1))
    dist_s = probes[probe_step]
    dist_next = probes[probe_step + 1]
    gamma = config.gamma
    epsilon = objective.mean_value_offset(config.c)
    floor = error_floor(
        config.beta,
        config.c,
        noise.sigma_tilde2(objective.domain.dimension),
        objective.domain.diameter,
        objective.constants.k4,
        objective.constants.k2,
        epsilon,
    )
    paired = MonteCarloEstimate.from_samples(dist_next - gamma * dist_s)
    return RecursionCheckReport(
        probe_step=probe_step,
        replications=replications,
        estimate_s=float(np.mean(dist_s)),
        estimate_s_next=float(np.mean(dist_next)),
        gamma=gamma,
        floor=floor,
        paired_mean=paired.mean,
        paired_stderr=paired.standard_error,
        holds=paired.mean <= floor + 3.0 * paired.standard_error,
    )


def calibrate_window_constant(
    objective: ObjectiveSpec,
    noise: NoiseModel,
    x0,
    windows: tuple[int, ...],
    replications: int,
    base_seed: int,
    c: float | None = None,
    epochs: int = 3,
) -> float:
    """Fit the steady-distance constant of the windowed rule.

    For each window length L, runs the stationary rule past its first
    window and measures the average squared distance over a full later
    window of steps; the constant is the largest sqrt(L) * average over
    the probe grid.  Freeze the result before using it in bounds or
    window tuning.

    ``c`` applies to every window length (keeping the constant comparable
    across the grid); it defaults to the objective-independent value 0.5.
    All window lengths go through one ``regret_lanes`` call; each runs for
    its own horizon, so each fills batches of its own.
    """
    if not windows:
        raise ValueError("need at least one window length to calibrate")
    if replications < 2:
        raise ValueError(f"replications must be >= 2, got {replications}")
    if epochs < 2:
        raise ValueError(f"epochs must be >= 2 (the first window is warm-up), got {epochs}")
    c_used = 0.5 if c is None else float(c)
    x0 = tuple(np.atleast_1d(np.asarray(x0, dtype=float)))
    lengths = sorted(set(int(w) for w in windows))
    experiments = [
        Experiment(
            SlidingWindowPolicy(config=SlidingWindowConfig(window=window, x0=x0, c=c_used)),
            EnvironmentSchedule.stationary(horizon=window * epochs, objective=objective),
            noise,
            replications,
            base_seed,
            seed_path=(index,),
            probe_steps=tuple(range(window + 1, window * epochs + 1)),
        )
        for index, window in enumerate(lengths)
    ]
    best = 0.0
    for window, experiment, (_, probes) in zip(lengths, experiments, regret_lanes(experiments)):
        average = float(np.stack([probes[s] for s in experiment.probe_steps]).mean(axis=1).mean())
        best = max(best, float(np.sqrt(window)) * average)
    return best
