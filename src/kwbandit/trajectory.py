"""Trajectory execution and per-step regret measurement.

The engine runs many independent replications at once, vectorized across
replications, while consuming one private random stream per replication.
Per-replication results are bitwise identical whatever the batch
composition: every operation is elementwise across replications and each
stream is consumed in a fixed per-step order (axis-major, plus before
minus), so adding replications or splitting them into different batches
never perturbs existing ones.

A batch is a list of lanes, each one experiment's share: a (policy, env,
streams, probe steps) tuple.  Lanes share the rule, the box, the objective
kind and the noise model; what else differs between them is a per-row
column: the rate and perturbation, the window's anchor and weight, and the
current objective's theta, coefficients and f(theta).  The rows are the
lanes' replications concatenated longest horizon first, so the active rows
shrink to a prefix as lanes end.  Each lane's episode changes and probes
fire at its own steps, precomputed into one table that the loop checks with
one integer comparison per step; window restarts are listed per noise
block.  ``simulate_batch`` is the one-lane case.

Each measuring rule (decaying-step, fixed-step, sliding-window) is two
operations: ``perturbations(first, count)`` gives the perturbation c of a
block of steps, and ``update(x, g, s)`` overwrites the iterates x with those
that follow step s, given its gradient estimates g.  One loop, which never
asks which rule it runs, evaluates the objective once per step on one
stacked array of the step's 1 + 2d points for every active row: x itself,
whose value gives the step's regret, then x + c e_i and x - c e_i for each
axis i, clamped into the box, whose noisy values give the central-difference
gradient estimate.

Every array the loop writes is allocated once per stretch of steps with the
same active rows, and each operation is a ufunc writing into one of them
with ``out=``.  No ufunc writes over an input that can have one element:
NumPy's overlap check costs more than the operation itself on one-element
arrays, so the running sums alternate between two arrays and the updates go
through scratch arrays.  The decaying schedule's tables are built once per
noise block, and ``NoiseModel.fill`` writes the block in place, one
generator call per replication.  A block holds at most
``_NOISE_BLOCK_VALUES`` values over all rows, and a row longer than one
64-byte line starts an odd number of lines after the previous one, so that
one step's values of every row fall into different cache sets.  With
``record_trace`` the loop stores the traced row's action, regret and
cumulative regret; the boundary-contact and episode columns are derived
after it.

The oracle and static policies never measure: their action changes only
at an episode start, so each episode's regret is evaluated once.

``simulate_lanes`` is the only implementation of the three step rules;
``algorithms`` holds their configs and the decaying schedule.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, repeat
from typing import Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .algorithms import FixedStepConfig, SlidingWindowConfig, vanilla_perturbation, vanilla_step_size
from .noise import NONE, NoiseModel
from .objectives import ObjectiveSpec, shared_kind
from .rng import RandomStream
from .schedule import EnvironmentSchedule

# A noise block holds at most this many noise values over all its rows
# (2 MB, however many lanes share the batch) and spans at most this many
# steps, which bounds the per-block tables too.
_NOISE_BLOCK_VALUES = 262_144
_NOISE_BLOCK_STEPS = 4096
# Floats in a 64-byte cache line.
_LINE_FLOATS = 64 // 8
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


@dataclass(frozen=True)
class Lane:
    """One experiment's share of a batch: ``policy`` on ``env`` with one
    replication per stream in ``rngs``, squared distances probed at
    ``probe_steps`` and, with ``record_trace``, the per-step trace of its
    first replication."""

    policy: Policy
    env: EnvironmentSchedule
    rngs: Sequence[RandomStream]
    probe_steps: tuple[int, ...] = ()
    record_trace: bool = False

    def __post_init__(self):
        if len(self.rngs) < 1:
            raise ValueError("need at least one replication stream")
        probes = tuple(sorted(set(int(s) for s in self.probe_steps)))
        horizon = self.env.horizon
        if probes and not (1 <= probes[0] and probes[-1] <= horizon + 1):
            raise ValueError(f"probe steps must lie in [1, horizon + 1 = {horizon + 1}], got {list(probes)}")
        object.__setattr__(self, "probe_steps", probes)


def _policy_start(policy: Policy, env: EnvironmentSchedule) -> np.ndarray:
    if isinstance(policy, OraclePolicy):
        return env.objectives[0].theta_array.copy()
    if isinstance(policy, SlidingWindowPolicy):
        x0 = np.asarray(policy.config.x0, dtype=float)
    else:
        x0 = np.asarray(policy.x0, dtype=float)
    env.domain.require_inside(x0, what="starting point x0")
    return x0


def _by_row(values, counts: list[int]) -> np.ndarray:
    """values[k] repeated on the counts[k] rows of lane k."""
    return np.asarray(values, dtype=float).repeat(counts, axis=0)


class _ObjectiveRows:
    """The current objective of every active row as columns laid out like a
    step's points, (1 + 2d) slabs of the active rows flattened: the shared
    kind's ``_value`` reads ``theta_array`` and its coefficients from here
    as from one objective.  ``max_value`` is f(theta) by row."""

    def _squared_distance(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``ObjectiveSpec._squared_distance``, bit for bit.  For d <= 2 the
        squares are added as columns, since a reduction over a short last
        axis runs one loop per point; two terms give the same sum in
        either order."""
        d = x.shape[-1]
        if d == 1:
            u = np.subtract(x[:, 0], self.theta_array[:, 0])
            return np.multiply(u, u, out=out)
        if d == 2:
            u = np.subtract(x, self.theta_array)
            np.multiply(u, u, out=u)
            return np.add(u[:, 0], u[:, 1], out=out)
        return ObjectiveSpec._squared_distance(self, x, out)

    def __init__(self, kind: type[ObjectiveSpec], slabs: int, rows: int, d: int):
        self.names = ("theta_array",) + kind.coefficients
        self.slabbed = (slabs, rows, -1)
        self.theta_array = np.empty((slabs * rows, d))
        for name in kind.coefficients:
            setattr(self, name, np.empty(slabs * rows))
        self.max_value = np.empty(rows)

    def set(self, rows: slice, objective: ObjectiveSpec) -> None:
        """The rows ``rows`` now see ``objective``; a coefficient it lacks is 0."""
        for name in self.names:
            getattr(self, name).reshape(self.slabbed)[:, rows] = getattr(objective, name, 0.0)
        self.max_value[rows] = objective.max_value

    def keep(self, n: int) -> None:
        """Drop every row past the first n."""
        slabs, rows, _ = self.slabbed
        if n < rows:
            for name in self.names:
                column = getattr(self, name)
                setattr(self, name, column.reshape(self.slabbed)[:, :n].reshape(slabs * n, *column.shape[1:]))
            self.slabbed = (slabs, n, -1)
            self.max_value = self.max_value[:n]


class _Rule:
    """A measuring rule over a batch's rows: ``perturbations(first, count)``
    gives the perturbation c of steps first .. first + count - 1, shaped
    (count, 1) when it varies by step and (1, rows) when it varies by row;
    ``update(x, g, s)`` overwrites the iterates x with those that follow
    step s; ``keep(n)`` drops every row past the first n.  ``step`` and
    ``trial`` are scratch arrays, so that no ufunc writes over its own
    input.  The box bounds are repeated by row: against a (d,) operand, a
    ufunc over (rows, d) runs one inner loop per row."""

    def __init__(self, policies: list[Policy], counts: list[int], x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self.lo, self.hi = np.empty_like(x), np.empty_like(x)
        self.lo[...], self.hi[...] = lo, hi
        self.step, self.trial = np.empty_like(x), np.empty_like(x)

    def keep(self, n: int) -> None:
        self.lo, self.hi = self.lo[:n], self.hi[:n]
        self.step, self.trial = self.step[:n], self.trial[:n]

    def _project(self, x: np.ndarray, point: np.ndarray) -> None:
        """x <- project(point); ties go to the bound, as in np.clip."""
        np.maximum(point, self.lo, out=self.step)
        np.minimum(self.step, self.hi, out=x)

    def _ascend(self, x: np.ndarray, g: np.ndarray, rate) -> None:
        """x <- project(x + rate * g)."""
        np.multiply(g, rate, out=self.step)
        self._project(x, np.add(x, self.step, out=self.trial))


class _DecayingStep(_Rule):
    """Rate s**(-1/2) and perturbation s**(-1/4), tabulated per block as
    (count, 1) columns: a ufunc takes a one-element array operand faster
    than a float."""

    def perturbations(self, first: int, count: int) -> np.ndarray:
        steps = range(first, first + count)
        self.first = first
        self.rates = np.fromiter(map(vanilla_step_size, steps), float, count)[:, None]
        return np.fromiter(map(vanilla_perturbation, steps), float, count)[:, None]

    def update(self, x: np.ndarray, g: np.ndarray, s: int) -> None:
        self._ascend(x, g, self.rates[s - self.first])


class _FixedStep(_Rule):
    """Constant rate beta and perturbation c, by row."""

    def __init__(self, policies, counts, x, lo, hi):
        super().__init__(policies, counts, x, lo, hi)
        self.beta = _by_row([policy.config.beta for policy in policies], counts)[:, None]
        self.c = _by_row([policy.config.c for policy in policies], counts)

    def keep(self, n: int) -> None:
        super().keep(n)
        self.beta, self.c = self.beta[:n], self.c[:n]

    def perturbations(self, first: int, count: int) -> np.ndarray:
        return self.c[None]

    def update(self, x: np.ndarray, g: np.ndarray, s: int) -> None:
        self._ascend(x, g, self.beta)


class _SlidingWindow(_Rule):
    """x <- project(anchor + sum_n n**(-1/2) y_n) over the estimates since
    the last restart; lane k's sum empties after each ``window`` estimates.
    Step s on lane k's rows has n = (s - 1) % window + 1: the weights are
    tabulated per block by lane and gathered per step by row, and the
    block's restarts are listed by step."""

    def __init__(self, policies, counts, x, lo, hi):
        super().__init__(policies, counts, x, lo, hi)
        self.configs = [policy.config for policy in policies]
        bounds = list(accumulate(counts, initial=0))
        self.lane_rows = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self.c = _by_row([config.c for config in self.configs], counts)
        self.anchor = x.copy()
        self.action_sum = np.zeros_like(x)
        self.lane_of_row = np.arange(len(policies)).repeat(counts)
        self.weight = np.empty((len(x), 1))
        self.weight_of_row = self.weight[:, 0]

    def keep(self, n: int) -> None:
        super().keep(n)
        self.c, self.anchor, self.action_sum = self.c[:n], self.anchor[:n], self.action_sum[:n]
        self.lane_of_row, self.weight = self.lane_of_row[:n], self.weight[:n]
        self.weight_of_row = self.weight[:, 0]

    def perturbations(self, first: int, count: int) -> np.ndarray:
        filled = np.arange(first - 1, first - 1 + count)
        self.first = first
        self.weights = np.stack([config.weights[filled % config.window] for config in self.configs], axis=1)
        self.restarts = defaultdict(list)
        active = len(self.action_sum)
        for rows, config in zip(self.lane_rows, self.configs):
            if rows.start < active:
                window = config.window
                for s in range(first + (1 - first) % window, first + count, window):
                    if s > 1:
                        self.restarts[s].append(rows)
        return self.c[None]

    def update(self, x: np.ndarray, g: np.ndarray, s: int) -> None:
        if s in self.restarts:
            for rows in self.restarts[s]:
                self.action_sum[rows] = 0.0
        self.weights[s - self.first].take(self.lane_of_row, out=self.weight_of_row, mode="clip")
        np.multiply(g, self.weight, out=self.step)
        np.add(self.action_sum, self.step, out=self.trial)
        self.action_sum, self.trial = self.trial, self.action_sum
        self._project(x, np.add(self.anchor, self.action_sum, out=self.trial))


_RULES = {VanillaPolicy: _DecayingStep, FixedStepPolicy: _FixedStep, SlidingWindowPolicy: _SlidingWindow}


class _TraceColumns:
    """The traced row's per-step columns, as the step loops fill them."""

    def __init__(self, horizon: int, d: int):
        self.actions = np.empty((horizon, d))
        self.inst = np.empty(horizon)
        self.cum = np.empty(horizon)
        self.contact = np.zeros(horizon, dtype=bool)

    def finish(self, env: EnvironmentSchedule, final_x: np.ndarray) -> RegretTrace:
        episode = np.repeat(np.arange(1, env.num_episodes + 1), env.episode_lengths)
        trace = RegretTrace(
            actions=self.actions,
            inst_regret=self.inst,
            cum_regret=self.cum,
            episode=episode,
            boundary_contact=self.contact,
            final_x=final_x.copy(),
        )
        for column in (trace.actions, trace.inst_regret, trace.cum_regret, episode, trace.boundary_contact, trace.final_x):
            column.flags.writeable = False
        return trace


def _block_steps(rows: int, values_per_step: int, length: int) -> int:
    """Steps per noise block for ``rows`` rows over a stretch of ``length`` steps."""
    return max(1, min(_NOISE_BLOCK_STEPS, length, _NOISE_BLOCK_VALUES // (rows * max(1, values_per_step))))


def _row_floats(width: int) -> int:
    """Floats from one noise-block row of ``width`` values to the next: the
    width itself when the row fits one 64-byte line, else the smallest odd
    number of lines that holds it.  An odd number of lines is coprime with
    the power-of-two number of cache sets, so one step's values of
    successive rows fall into different sets; 4,096 steps of two values
    (1,024 lines) would put them all into one."""
    if width <= _LINE_FLOATS:
        return width
    return (-(-width // _LINE_FLOATS) | 1) * _LINE_FLOATS


def _noise_block(buffer: np.ndarray, rows: int, steps: int, values_per_step: int) -> np.ndarray:
    """A (rows, steps, values_per_step) view of ``buffer`` whose rows are
    C-contiguous and ``_row_floats`` apart."""
    width = steps * values_per_step
    stride = _row_floats(width)
    return buffer[: rows * stride].reshape(rows, stride)[:, :width].reshape(rows, steps, values_per_step)


def simulate_lanes(lanes: Sequence[Lane], noise: NoiseModel) -> list[BatchResult]:
    """Run every lane in one step loop; returns each lane's result, in lane
    order.

    Lanes must share the rule (the policy's class) and the domain, and their
    objectives one kind (``objectives.shared_kind``); they all draw noise
    from ``noise``.  Each lane's result equals, bit for bit, that of a batch
    of the lane alone, whatever else shares its batch.  At most one lane
    records a trace.  Every returned array is new and owns its memory.
    """
    if not lanes:
        raise ValueError("need at least one lane")
    rule, domain = type(lanes[0].policy), lanes[0].env.domain
    if any(type(lane.policy) is not rule or lane.env.domain != domain for lane in lanes):
        raise ValueError("the lanes of one batch must share the rule and the domain")
    if sum(bool(lane.record_trace) for lane in lanes) > 1:
        raise ValueError("at most one lane of a batch records a trace")

    order = sorted(range(len(lanes)), key=lambda k: -lanes[k].env.horizon)
    ordered = [lanes[k] for k in order]
    if rule in (OraclePolicy, StaticPolicy):
        results = [_hold(lane) for lane in ordered]
    else:
        results = _measure(ordered, noise)
    by_lane: list[BatchResult] = [None] * len(lanes)
    for k, result in zip(order, results):
        by_lane[k] = result
    return by_lane


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
    array is new and owns its memory.  This is the one-lane case of
    ``simulate_lanes``.
    """
    return simulate_lanes([Lane(policy, env, rngs, probe_steps, record_trace)], noise)[0]


def _stretches(lanes: list[Lane], bounds: list[int]) -> list[tuple[int, int, int]]:
    """(rows, first, last) of each stretch of steps over which the same
    lanes run: the first ``rows`` rows, while the lanes are ordered longest
    horizon first."""
    stretches, first, active = [], 1, len(lanes)
    while active:
        last = lanes[active - 1].env.horizon
        stretches.append((bounds[active], first, last))
        first = last + 1
        while active and lanes[active - 1].env.horizon == last:
            active -= 1
    return stretches


def _measure(lanes: list[Lane], noise: NoiseModel) -> list[BatchResult]:
    """The step loop of a measuring rule over lanes ordered longest horizon
    first, with sorted probe steps; returns their results.

    The loop never branches on the rule or the lane.  Over each stretch
    the active rows are a fixed prefix, and noise blocks end with it;
    boundary contacts are derived after each noise block's steps, from the
    recorded actions and the block's perturbations."""
    domain = lanes[0].env.domain
    d = domain.dimension
    lo, hi = domain.lower_array, domain.upper_array
    lo_col, hi_col = lo[:, None], hi[:, None]
    slabs = 1 + 2 * d
    counts = [len(lane.rngs) for lane in lanes]
    bounds = list(accumulate(counts, initial=0))
    lane_rows = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    rngs = list(chain.from_iterable(lane.rngs for lane in lanes))

    x = np.array([_policy_start(lane.policy, lane.env) for lane in lanes]).repeat(counts, axis=0)
    rule = _RULES[type(lanes[0].policy)]([lane.policy for lane in lanes], counts, x, lo, hi)
    kind = shared_kind([o for lane in lanes for o in lane.env.objectives])
    evaluate = kind._value
    objectives = _ObjectiveRows(kind, slabs, len(x), d)
    current = [lane.env.objectives[0] for lane in lanes]
    for rows, objective in zip(lane_rows, current):
        objectives.set(rows, objective)
    probe_out: list[dict[int, np.ndarray]] = [{} for _ in lanes]

    def change(k: int, objective: ObjectiveSpec) -> None:
        current[k] = objective
        objectives.set(lane_rows[k], objective)

    def probe(k: int, s: int) -> None:
        probe_out[k][s] = current[k]._squared_distance(x[lane_rows[k]])

    # Each step's events: episode changes, then probes of the new episode's
    # objective.
    events = defaultdict(list)
    for k, lane in enumerate(lanes):
        for t, objective in zip(lane.env.change_times[1:], lane.env.objectives[1:]):
            events[t].append(partial(change, k, objective))
    for k, lane in enumerate(lanes):
        for t in lane.probe_steps:
            if t <= lane.env.horizon:
                events[t].append(partial(probe, k, t))
    event_steps = iter(sorted(events))
    next_event = next(event_steps, 0)

    stretches = _stretches(lanes, bounds)
    values_per_step = 2 * d if noise.kind != NONE else 0
    block_caps = [_block_steps(n, values_per_step, last - first + 1) for n, first, last in stretches]
    if values_per_step:
        buffer = np.empty(max(n * _row_floats(cap * values_per_step) for (n, _, _), cap in zip(stretches, block_caps)))

    traced = next((k for k, lane in enumerate(lanes) if lane.record_trace), None)
    columns = trace = None
    if traced is not None:
        columns = _TraceColumns(lanes[traced].env.horizon, d)
        tr_actions, tr_inst, tr_cum = columns.actions, columns.inst, columns.cum
        t_row = bounds[traced]
        x_traced = x[t_row]

    totals: list[np.ndarray] = [None] * len(lanes)
    cum, cum_next = np.zeros(len(x)), np.empty(len(x))
    active = len(lanes)
    for (n, step, last), block_cap in zip(stretches, block_caps):
        xs = x[:n]
        x_cols = xs.T
        rule.keep(n)
        objectives.keep(n)
        f_at_theta = objectives.max_value
        cum, cum_next = cum[:n], cum_next[:n]

        # The 1 + 2d points of a step, one (n, d) slab each: slab 0 is x,
        # slabs 1 + 2i and 2 + 2i are x + c e_i and x - c e_i (axis-major,
        # plus before minus).  shifted[0, i] and shifted[1, i] view
        # coordinate i of slabs 1 + 2i and 2 + 2i, the only coordinates a
        # step perturbs.
        points = np.empty((slabs, n, d))
        flat_points = points.reshape(-1, d)
        slab, row, col = points.strides
        shifted = as_strided(points[1, :, 0], shape=(2, d, n), strides=(slab, 2 * slab + col, row))
        values = np.empty((slabs, n))
        flat_values = values.reshape(-1)
        at_x, samples = values[0], values[1:]
        plus_samples, minus_samples = samples[0::2], samples[1::2]
        diff, quotient = np.empty((d, n)), np.empty((d, n))
        grad = quotient.T
        inst = np.empty(n)
        if values_per_step:
            noise_block = _noise_block(buffer, n, block_cap, values_per_step)
            step_noise = noise_block.transpose(1, 2, 0)

        while step <= last:
            block = min(block_cap, last - step + 1)
            # c by step, (block, 1), or by row, (1, n): step + j reads row k
            # of the tables, k = j or 0
            cs = rule.perturbations(step, block)
            offsets = np.multiply.outer(_SIGNS, cs).transpose(1, 0, 2)[:, :, None, :]
            spans = 2.0 * cs
            if values_per_step:
                noise.fill(rngs, noise_block[:, :block])
            for j, k in zip(range(block), range(block) if len(cs) > 1 else repeat(0)):
                s = step + j
                if s == next_event:
                    for event in events[s]:
                        event()
                    next_event = next(event_steps, 0)

                points[...] = xs
                np.add(x_cols, offsets[k], out=shifted)
                np.maximum(shifted, lo_col, out=shifted)
                np.minimum(shifted, hi_col, out=shifted)
                evaluate(objectives, flat_points, out=flat_values)
                np.subtract(f_at_theta, at_x, out=inst)
                np.add(cum, inst, out=cum_next)
                cum, cum_next = cum_next, cum
                if columns is not None:
                    tr_actions[s - 1] = x_traced
                    tr_inst[s - 1] = inst[t_row]
                    tr_cum[s - 1] = cum[t_row]

                if values_per_step:
                    np.add(samples, step_noise[j], out=samples)
                np.subtract(plus_samples, minus_samples, out=diff)
                np.divide(diff, spans[k], out=quotient)
                rule.update(xs, grad, s)

            if columns is not None:
                rows = slice(step - 1, step - 1 + block)
                actions = tr_actions[rows]
                c_col = np.broadcast_to(cs, (block, n))[:, t_row, None]
                np.any((actions + c_col > hi) | (actions - c_col < lo), axis=1, out=columns.contact[rows])
            step += block

        # The lanes whose horizon is ``last`` end here.
        while active and lanes[active - 1].env.horizon == last:
            active -= 1
            rows = lane_rows[active]
            totals[active] = cum[rows].copy()
            if last + 1 in lanes[active].probe_steps:
                probe_out[active][last + 1] = current[active]._squared_distance(x[rows])
            if active == traced:
                trace = columns.finish(lanes[active].env, x_traced)
                columns = None
    return [
        BatchResult(total_regret=total, trace=trace if k == traced else None, distance_probes=probes)
        for k, (total, probes) in enumerate(zip(totals, probe_out))
    ]


def _hold(lane: Lane) -> BatchResult:
    """Oracle and static play: the action changes only when the oracle
    moves to a new episode's maximizer, so an episode's regret is one value."""
    env, probes = lane.env, set(lane.probe_steps)
    oracle = isinstance(lane.policy, OraclePolicy)
    x = np.tile(_policy_start(lane.policy, env), (len(lane.rngs), 1))
    columns = _TraceColumns(env.horizon, env.domain.dimension) if lane.record_trace else None
    probe_out: dict[int, np.ndarray] = {}
    cum = np.zeros(len(x))
    ends = env.change_times[1:] + (env.horizon + 1,)
    for objective, first, end in zip(env.objectives, env.change_times, ends):
        if oracle:
            x[...] = objective.theta_array
        inst = objective.max_value - objective._value(x)
        for s in range(first, end):
            np.add(cum, inst, out=cum)
            if s in probes:
                probe_out[s] = objective._squared_distance(x)
            if columns is not None:
                columns.cum[s - 1] = cum[0]
        if columns is not None:
            columns.actions[first - 1 : end - 1] = x[0]
            columns.inst[first - 1 : end - 1] = inst[0]
    if env.horizon + 1 in probes:
        probe_out[env.horizon + 1] = env.objectives[-1]._squared_distance(x)
    trace = columns.finish(env, x[0]) if columns is not None else None
    return BatchResult(total_regret=cum, trace=trace, distance_probes=probe_out)
