"""Trajectory execution and per-step regret measurement.

The engine runs many independent replications at once, vectorized across
replications, while consuming one private random stream per replication.
Per-replication results are bitwise identical whatever the batch
composition: every operation is elementwise across replications and each
stream is consumed in a fixed per-step order (axis-major, plus before
minus), so adding replications or splitting them into different batches
never perturbs existing ones.

Each measuring rule (decaying-step, fixed-step, sliding-window) is two
operations: ``perturbations(first, count)`` gives the perturbation c of a
block of steps, and ``update(x, g, s)`` overwrites the iterates x with
those that follow step s, given its gradient estimates g.  One loop, which
never asks which rule it runs, evaluates the objective once per step on
one stacked array of the step's 1 + 2d points for every replication: x
itself, whose value gives the step's regret, then x + c e_i and x - c e_i
for each axis i, clamped into the box, whose noisy values give the
central-difference gradient estimate.

Every array the loop writes (the points, their values, the gradient, the
iterates, the regret and its running sum, the window's action sum) is
allocated once per batch, and each operation is a ufunc writing into one
of them with ``out=``.  No ufunc writes over an input that can have one
element: NumPy's overlap check costs more than the operation itself on
the one-element arrays of a one-replication batch, so the running sums
alternate between two arrays and the updates go through scratch arrays.
The decaying schedule's tables are built once per noise block, and the
block's noise is written in place by ``NoiseModel.fill``: one generator
call per replication writes its row of standard draws, then one pass
scales the whole block.  With ``record_trace`` the loop stores only
replication 0's action, regret and cumulative regret; the boundary-contact
column (from the actions and each step's c) and the episode column (from
the change times) are derived after it in vectorized passes.

The oracle and static policies never measure: their action changes only
at an episode start, so each episode's regret is evaluated once.

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

# A noise block holds at most this many noise values and spans at most this
# many steps; the per-block tables of perturbations and rates stay as small.
_NOISE_BLOCK_VALUES = 4_000_000
_NOISE_BLOCK_STEPS = 4096
# Slab 1 + 2i of a step's points is x + c e_i, slab 2 + 2i is x - c e_i.
_SIGNS = np.array([1.0, -1.0])


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


class _Rule:
    """A measuring rule: ``perturbations(first, count)`` gives the
    perturbation c of steps first .. first + count - 1 (a constant ``c``
    unless a rule overrides it), and ``update(x, g, s)`` overwrites the
    iterates x with those that follow step s.  ``step`` and ``trial`` are
    (reps, d) scratch arrays, so that no ufunc writes over its own input.
    """

    c: float

    def __init__(self, reps: int, lo: np.ndarray, hi: np.ndarray):
        self.lo, self.hi = lo, hi
        self.step, self.trial = np.empty((reps, lo.shape[0])), np.empty((reps, lo.shape[0]))

    def perturbations(self, first: int, count: int) -> np.ndarray:
        return np.full(count, self.c)

    def _project(self, x: np.ndarray, point: np.ndarray) -> None:
        """x <- project(point); ties go to the bound, as in np.clip."""
        np.maximum(point, self.lo, out=self.step)
        np.minimum(self.step, self.hi, out=x)

    def _ascend(self, x: np.ndarray, g: np.ndarray, rate) -> None:
        """x <- project(x + rate * g)."""
        np.multiply(g, rate, out=self.step)
        self._project(x, np.add(x, self.step, out=self.trial))


class _DecayingStep(_Rule):
    """Rate s**(-1/2) and perturbation s**(-1/4), tabulated per block."""

    def perturbations(self, first: int, count: int) -> np.ndarray:
        steps = range(first, first + count)
        self.first = first
        self.rates = np.fromiter(map(vanilla_step_size, steps), float, count)
        return np.fromiter(map(vanilla_perturbation, steps), float, count)

    def update(self, x: np.ndarray, g: np.ndarray, s: int) -> None:
        self._ascend(x, g, self.rates[s - self.first])


class _FixedStep(_Rule):
    """Constant rate beta and perturbation c."""

    def __init__(self, config: FixedStepConfig, reps: int, lo: np.ndarray, hi: np.ndarray):
        super().__init__(reps, lo, hi)
        self.beta, self.c = config.beta, config.c

    def update(self, x: np.ndarray, g: np.ndarray, s: int) -> None:
        self._ascend(x, g, self.beta)


class _SlidingWindow(_Rule):
    """x <- project(anchor + sum_n n**(-1/2) y_n) over the estimates since
    the last restart; the sum empties after ``window`` estimates."""

    def __init__(self, config: SlidingWindowConfig, anchor: np.ndarray, reps: int, lo: np.ndarray, hi: np.ndarray):
        super().__init__(reps, lo, hi)
        self.c, self.window, self.weights = config.c, config.window, config.weights
        self.anchor = anchor
        self.action_sum = np.zeros((reps, anchor.shape[0]))
        self.filled = 0

    def update(self, x: np.ndarray, g: np.ndarray, s: int) -> None:
        if self.filled == self.window:
            self.action_sum.fill(0.0)
            self.filled = 0
        np.multiply(g, self.weights[self.filled], out=self.step)
        np.add(self.action_sum, self.step, out=self.trial)
        self.action_sum, self.trial = self.trial, self.action_sum
        self.filled += 1
        self._project(x, np.add(self.anchor, self.action_sum, out=self.trial))


def _rule(policy: Policy, anchor: np.ndarray, reps: int, lo: np.ndarray, hi: np.ndarray) -> _Rule:
    if isinstance(policy, VanillaPolicy):
        return _DecayingStep(reps, lo, hi)
    if isinstance(policy, FixedStepPolicy):
        return _FixedStep(policy.config, reps, lo, hi)
    return _SlidingWindow(policy.config, anchor, reps, lo, hi)


class _TraceColumns:
    """Replication 0's per-step columns, as the step loops fill them."""

    def __init__(self, horizon: int, d: int):
        self.actions = np.empty((horizon, d))
        self.inst = np.empty(horizon)
        self.cum = np.empty(horizon)
        self.contact = np.zeros(horizon, dtype=bool)

    def finish(self, env: EnvironmentSchedule, x: np.ndarray) -> RegretTrace:
        episode = np.repeat(np.arange(1, env.num_episodes + 1), env.episode_lengths)
        trace = RegretTrace(
            actions=self.actions,
            inst_regret=self.inst,
            cum_regret=self.cum,
            episode=episode,
            boundary_contact=self.contact,
            final_x=x[0].copy(),
        )
        for column in (trace.actions, trace.inst_regret, trace.cum_regret, episode, trace.boundary_contact, trace.final_x):
            column.flags.writeable = False
        return trace


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
    the full per-step trace of replication 0 is returned.  Every returned
    array is new and owns its memory.
    """
    domain = env.domain
    lo, hi = domain.lower_array, domain.upper_array
    reps = len(rngs)
    horizon = env.horizon
    if reps < 1:
        raise ValueError("need at least one replication stream")

    probes = sorted(set(int(s) for s in probe_steps))
    if probes and not (1 <= probes[0] and probes[-1] <= horizon + 1):
        raise ValueError(f"probe steps must lie in [1, horizon + 1 = {horizon + 1}], got {probes}")
    probe_out: dict[int, np.ndarray] = {}

    x_start = _policy_start(policy, env)
    x = np.tile(x_start, (reps, 1))
    columns = _TraceColumns(horizon, domain.dimension) if record_trace else None

    if isinstance(policy, (OraclePolicy, StaticPolicy)):
        cum = _hold(isinstance(policy, OraclePolicy), env, x, set(probes), probe_out, columns)
    else:
        cum = _measure(_rule(policy, x_start, reps, lo, hi), env, noise, rngs, x, set(probes), probe_out, columns)

    if horizon + 1 in probes:
        probe_out[horizon + 1] = env.objectives[-1]._squared_distance(x)
    trace = columns.finish(env, x) if columns is not None else None
    return BatchResult(total_regret=cum, trace=trace, distance_probes=probe_out)


def _measure(
    rule: _Rule,
    env: EnvironmentSchedule,
    noise: NoiseModel,
    rngs: list[RandomStream],
    x: np.ndarray,
    probe_set: set[int],
    probe_out: dict[int, np.ndarray],
    columns: _TraceColumns | None,
) -> np.ndarray:
    """The step loop of a measuring rule: advances x in place and returns
    each replication's total regret.

    The loop never branches on the rule.  Boundary contacts are derived
    after each noise block's steps, from the recorded actions and the
    block's perturbations."""
    reps, d = x.shape
    horizon = env.horizon
    lo, hi = env.domain.lower_array, env.domain.upper_array
    lo_col, hi_col = lo[:, None], hi[:, None]
    x_cols = x.T

    # The 1 + 2d points of a step, one (reps, d) slab each: slab 0 is x,
    # slabs 1 + 2i and 2 + 2i are x + c e_i and x - c e_i (axis-major,
    # plus before minus).  shifted[0, i] and shifted[1, i] view coordinate
    # i of slabs 1 + 2i and 2 + 2i, the only coordinates a step perturbs.
    points = np.empty((1 + 2 * d, reps, d))
    flat_points = points.reshape(-1, d)
    slab, row, col = points.strides
    shifted = as_strided(points[1, :, 0], shape=(2, d, reps), strides=(slab, 2 * slab + col, row))
    values = np.empty((1 + 2 * d, reps))
    flat_values = values.reshape(-1)
    at_x, samples = values[0], values[1:]
    plus_samples, minus_samples = samples[0::2], samples[1::2]
    diff, quotient = np.empty((d, reps)), np.empty((d, reps))
    grad = quotient.T
    inst, cum, cum_next = np.empty(reps), np.zeros(reps), np.empty(reps)

    values_per_step = 2 * d if noise.kind != NONE else 0
    block_cap = max(1, min(_NOISE_BLOCK_STEPS, _NOISE_BLOCK_VALUES // (reps * max(1, values_per_step))))
    if values_per_step:
        noise_block = np.empty((reps, min(block_cap, horizon), values_per_step))
        step_noise = noise_block.transpose(1, 2, 0)
    if columns is not None:
        tr_actions, tr_inst, tr_cum = columns.actions, columns.inst, columns.cum
        x_first = x[0]

    episode_idx = 0
    objective = env.objectives[0]
    f_at_theta = objective.max_value
    episode_end = env.change_times[1:] + (horizon + 1,)
    next_change = episode_end[0]

    step = 1
    while step <= horizon:
        block = min(block_cap, horizon - step + 1)
        cs = rule.perturbations(step, block)
        offsets = np.multiply.outer(cs, _SIGNS)[:, :, None, None]
        spans = 2.0 * cs
        if values_per_step:
            noise.fill(rngs, noise_block[:, :block])
        for j in range(block):
            s = step + j
            if s == next_change:
                episode_idx += 1
                next_change = episode_end[episode_idx]
                objective = env.objectives[episode_idx]
                f_at_theta = objective.max_value

            points[...] = x
            np.add(x_cols, offsets[j], out=shifted)
            np.maximum(shifted, lo_col, out=shifted)
            np.minimum(shifted, hi_col, out=shifted)
            objective._value(flat_points, out=flat_values)
            np.subtract(f_at_theta, at_x, out=inst)
            np.add(cum, inst, out=cum_next)
            cum, cum_next = cum_next, cum
            if s in probe_set:
                probe_out[s] = objective._squared_distance(x)
            if columns is not None:
                tr_actions[s - 1] = x_first
                tr_inst[s - 1] = inst[0]
                tr_cum[s - 1] = cum[0]

            if values_per_step:
                np.add(samples, step_noise[j], out=samples)
            np.subtract(plus_samples, minus_samples, out=diff)
            np.divide(diff, spans[j], out=quotient)
            rule.update(x, grad, s)

        if columns is not None:
            rows = slice(step - 1, step - 1 + block)
            actions, c_col = tr_actions[rows], cs[:, None]
            np.any((actions + c_col > hi) | (actions - c_col < lo), axis=1, out=columns.contact[rows])
        step += block
    return cum


def _hold(
    oracle: bool,
    env: EnvironmentSchedule,
    x: np.ndarray,
    probe_set: set[int],
    probe_out: dict[int, np.ndarray],
    columns: _TraceColumns | None,
) -> np.ndarray:
    """Oracle and static play: the action changes only when the oracle
    moves to a new episode's maximizer, so an episode's regret is one value.
    Returns each replication's total regret."""
    cum = np.zeros(len(x))
    ends = env.change_times[1:] + (env.horizon + 1,)
    for objective, first, end in zip(env.objectives, env.change_times, ends):
        if oracle:
            x[...] = objective.theta_array
        inst = objective.max_value - objective._value(x)
        for s in range(first, end):
            np.add(cum, inst, out=cum)
            if s in probe_set:
                probe_out[s] = objective._squared_distance(x)
            if columns is not None:
                columns.cum[s - 1] = cum[0]
        if columns is not None:
            columns.actions[first - 1 : end - 1] = x[0]
            columns.inst[first - 1 : end - 1] = inst[0]
    return cum
