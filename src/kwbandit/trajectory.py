"""Trajectory execution and per-step regret measurement.

The engine runs many independent replications at once, vectorized across
replications, while consuming one private random stream per replication.
Per-replication results are bitwise identical whatever the batch
composition: every operation is elementwise across replications and each
stream is consumed in a fixed per-step order (axis-major, plus before
minus), so adding replications or splitting them into different batches
never perturbs existing ones.

A measuring rule evaluates the objective once per step, on one stacked
array of the step's 1 + 2d points for every replication: x itself, whose
value gives the step's regret, then x + c e_i and x - c e_i for each axis
i, clamped into the box, whose noisy values give the central-difference
gradient estimate.

``simulate_batch`` is the only implementation of the three step rules;
``algorithms`` holds their configs and the decaying schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .algorithms import FixedStepConfig, SlidingWindowConfig, vanilla_perturbation, vanilla_step_size
from .noise import NONE, NoiseModel
from .rng import RandomStream
from .schedule import EnvironmentSchedule

_NOISE_BLOCK_VALUES = 4_000_000


@dataclass(frozen=True)
class VanillaPolicy:
    """Decaying schedule: step s uses rate s**(-1/2), perturbation s**(-1/4)."""

    x0: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))


@dataclass(frozen=True)
class FixedStepPolicy:
    """Constant rate/perturbation ascent from x0."""

    config: FixedStepConfig
    x0: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))


@dataclass(frozen=True)
class SlidingWindowPolicy:
    """Finite-memory ascent; the anchor lives in the config."""

    config: SlidingWindowConfig


@dataclass(frozen=True)
class OraclePolicy:
    """Clairvoyant baseline playing the current maximizer; zero regret."""


@dataclass(frozen=True)
class StaticPolicy:
    """Plays x0 forever; never measures."""

    x0: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))


Policy = Union[VanillaPolicy, FixedStepPolicy, SlidingWindowPolicy, OraclePolicy, StaticPolicy]


@dataclass(frozen=True)
class RegretTrace:
    """Per-step record of one trajectory.

    ``actions[s-1]`` is the action taken at step s (the initial point for
    s = 1); ``inst_regret[s-1] = f_s(theta_s) - f_s(X_s)`` measured against
    the true objective, which the algorithm itself never sees.
    """

    actions: np.ndarray
    inst_regret: np.ndarray
    cum_regret: np.ndarray
    episode: np.ndarray
    boundary_contact: np.ndarray
    final_x: np.ndarray

    @property
    def horizon(self) -> int:
        return self.actions.shape[0]

    @property
    def total_regret(self) -> float:
        return float(self.cum_regret[-1])

    def episode_regret_totals(self) -> np.ndarray:
        """Per-episode sums of instantaneous regret, episode order."""
        starts = np.flatnonzero(np.diff(self.episode, prepend=self.episode[0] - 1))
        return np.add.reduceat(self.inst_regret, starts)


@dataclass(frozen=True)
class BatchResult:
    """Outcome of a batch of replications."""

    total_regret: np.ndarray
    trace: RegretTrace | None
    distance_probes: dict[int, np.ndarray]


def _policy_start(policy: Policy, env: EnvironmentSchedule) -> np.ndarray:
    if isinstance(policy, OraclePolicy):
        return env.objectives[0].theta_array.copy()
    if isinstance(policy, SlidingWindowPolicy):
        x0 = np.asarray(policy.config.x0, dtype=float)
    else:
        x0 = np.asarray(policy.x0, dtype=float)
    env.domain.require_inside(x0, what="starting point x0")
    return x0


def simulate_batch(
    policy: Policy,
    env: EnvironmentSchedule,
    noise: NoiseModel,
    rngs: list[RandomStream],
    record_trace: bool = False,
    probe_steps: tuple[int, ...] = (),
) -> BatchResult:
    """Run one trajectory per stream in ``rngs``; all share (policy, env,
    noise) but draw noise from their own stream.

    ``probe_steps`` requests per-replication squared distances
    ``||X_s - theta_s||**2`` at the listed steps (``horizon + 1`` probes the
    iterate left after the final update).  When ``record_trace`` is set,
    the full per-step trace of replication 0 is returned.
    """
    domain = env.domain
    d = domain.dimension
    lo, hi = domain.lower_array, domain.upper_array
    reps = len(rngs)
    horizon = env.horizon
    if reps < 1:
        raise ValueError("need at least one replication stream")

    probes = sorted(set(int(s) for s in probe_steps))
    if probes and not (1 <= probes[0] and probes[-1] <= horizon + 1):
        raise ValueError(f"probe steps must lie in [1, horizon + 1 = {horizon + 1}], got {probes}")
    probe_set = set(probes)
    probe_out: dict[int, np.ndarray] = {}

    x_start = _policy_start(policy, env)
    x = np.tile(x_start, (reps, 1))

    measuring = isinstance(policy, (VanillaPolicy, FixedStepPolicy, SlidingWindowPolicy))
    is_vanilla = isinstance(policy, VanillaPolicy)
    is_fixed = isinstance(policy, FixedStepPolicy)
    is_oracle = isinstance(policy, OraclePolicy)

    if is_fixed:
        beta = policy.config.beta
        c = policy.config.c
    if isinstance(policy, SlidingWindowPolicy):
        swc = policy.config
        weights = swc.weights
        window = swc.window
        c = swc.c
        anchor = x_start
        action_sum = np.zeros((reps, d))
        filled = 0
    if measuring:
        # The 1 + 2d points of a step, one (reps, d) slab each: slab 0 is x,
        # slabs 1 + 2i and 2 + 2i are x + c e_i and x - c e_i (axis-major,
        # plus before minus).  plus[i] and minus[i] view coordinate i of
        # slabs 1 + 2i and 2 + 2i, the only coordinates a step perturbs.
        points = np.empty((1 + 2 * d, reps, d))
        flat_points = points.reshape(-1, d)
        diagonal = (2 * points.strides[0] + points.strides[2], points.strides[1])
        plus = as_strided(points[1, :, 0], shape=(d, reps), strides=diagonal)
        minus = as_strided(points[2, :, 0], shape=(d, reps), strides=diagonal)
        lo_col, hi_col = lo[:, None], hi[:, None]

    cum = np.zeros(reps)
    if record_trace:
        tr_actions = np.empty((horizon, d))
        tr_inst = np.empty(horizon)
        tr_cum = np.empty(horizon)
        tr_episode = np.empty(horizon, dtype=np.int64)
        tr_contact = np.zeros(horizon, dtype=bool)

    episode_idx = 0
    objective = env.objectives[0]
    theta = objective.theta_array
    f_at_theta = objective.max_value
    episode_end = env.change_times[1:] + (horizon + 1,)
    next_change = episode_end[0]

    values_per_step = 2 * d if (measuring and noise.kind != NONE) else 0
    block_cap = max(1, _NOISE_BLOCK_VALUES // max(1, reps * max(1, values_per_step)))

    step = 1
    while step <= horizon:
        block = min(block_cap, horizon - step + 1)
        if values_per_step:
            noise_block = np.empty((reps, block, values_per_step))
            for r, rng in enumerate(rngs):
                noise_block[r] = noise.draw(rng, block * values_per_step).reshape(block, values_per_step)
        for j in range(block):
            s = step + j
            if s == next_change:
                episode_idx += 1
                next_change = episode_end[episode_idx]
                objective = env.objectives[episode_idx]
                theta = objective.theta_array
                f_at_theta = objective.max_value
                if is_oracle:
                    x = np.tile(theta, (reps, 1))

            if measuring:
                if is_vanilla:
                    c = vanilla_perturbation(s)
                points[...] = x
                x_cols = x.T
                np.minimum(x_cols + c, hi_col, out=plus)
                np.maximum(x_cols - c, lo_col, out=minus)
                values = objective._value(flat_points).reshape(1 + 2 * d, reps)
                inst = f_at_theta - values[0]
            else:
                inst = f_at_theta - objective._value(x)
            cum += inst
            if s in probe_set:
                diff = x - theta
                probe_out[s] = np.sum(diff * diff, axis=-1)
            if record_trace:
                tr_actions[s - 1] = x[0]
                tr_inst[s - 1] = inst[0]
                tr_cum[s - 1] = cum[0]
                tr_episode[s - 1] = episode_idx + 1
                if measuring:
                    tr_contact[s - 1] = ((x[0] + c > hi) | (x[0] - c < lo)).any()

            if not measuring:
                continue

            samples = values[1:]
            if values_per_step:
                samples = samples + noise_block[:, j].T
            grad_est = (samples[0::2] - samples[1::2]).T / (2.0 * c)

            if is_vanilla:
                x = np.clip(x + vanilla_step_size(s) * grad_est, lo, hi)
            elif is_fixed:
                x = np.clip(x + beta * grad_est, lo, hi)
            else:
                if filled == window:
                    action_sum = np.zeros((reps, d))
                    filled = 0
                action_sum = action_sum + weights[filled] * grad_est
                filled += 1
                x = np.clip(anchor + action_sum, lo, hi)
        step += block

    if horizon + 1 in probe_set:
        diff = x - theta
        probe_out[horizon + 1] = np.sum(diff * diff, axis=-1)

    trace = None
    if record_trace:
        for arr in (tr_actions, tr_inst, tr_cum, tr_episode, tr_contact):
            arr.flags.writeable = False
        final = x[0].copy()
        final.flags.writeable = False
        trace = RegretTrace(
            actions=tr_actions,
            inst_regret=tr_inst,
            cum_regret=tr_cum,
            episode=tr_episode,
            boundary_contact=tr_contact,
            final_x=final,
        )
    return BatchResult(total_regret=cum, trace=trace, distance_probes=probe_out)
