"""Trajectory execution and per-step regret measurement.

The engine runs many independent replications at once, vectorized across
replications, while consuming one private random stream per replication.
Per-replication results are bitwise identical whatever the batch
composition: every operation is elementwise across replications and each
stream is consumed in a fixed per-step order (axis-major, plus before
minus), so adding replications or splitting them into different batches
never perturbs existing ones.

A batch is a list of lanes, each one experiment's share: a (policy, env,
streams, probe steps) tuple.  Lanes share the rule, the box, the horizon,
the objective kind and the noise model; what else differs between them is
a per-row column: the rate and perturbation, the window's anchor and
weight, and the current objective's theta, coefficients and f(theta).  The
rows are the lanes' replications concatenated in lane order, and every row
runs every step.  Each lane's episode changes and probes fire at its own
steps, precomputed into one table that the loop checks with one integer
comparison per step; window restarts are listed per noise block.
``simulate_batch`` is the one-lane case.

Each measuring rule (decaying-step, fixed-step, sliding-window) is two
operations: ``perturbations(first, count)`` gives the perturbation c of a
block of steps, and ``update(x, g, s)`` overwrites the iterates x with those
that follow step s, given its gradient estimates g.  One loop, which never
asks which rule it runs, evaluates the objective once per step on one
stacked array of the step's 1 + 2d points for every row, in sign-major
slabs: x itself, whose value gives the step's regret, then x + c e_i for
every axis i, then x - c e_i for every axis i, clamped into the box, whose
noisy values give the central-difference gradient estimate.  The
plus and the minus samples are then each one contiguous slab.  Only the
slabs are sign-major: each stream is still consumed axis-major, plus before
minus, and each noise block is permuted once into step-major, sign-major
order, so that a step adds one contiguous (2d, rows) slab of noise.

Every array the loop writes is allocated once per batch, and every view it
uses is built once per batch too.  Each per-step ufunc writes into one of
them with ``out=`` and takes NumPy's trivial loop: every operand is 0-d, or
has exactly the output's shape and is contiguous (a 1-D operand may be
strided).  A broadcast or a strided N-d operand makes NumPy build its
general iterator, which at one row costs an operation 2-3 us against about
0.9 us (numpy 2.4, 2.1 GHz Xeon).  So x and all rule state are
coordinate-major, C-contiguous (d, rows) arrays, the box bounds repeated by
row; a rate or perturbation that varies by step is a 0-d array; and an
operation runs in place only through the identical array object, since one
through a second view of the same memory pays NumPy's overlap solver.  One
``take`` gathers the step's points, coordinate-major, from x and its two
clamped corners.

Each step stores f(x) into a block buffer; the regret f(theta) - f(x) and
its running sum, added strictly left to right, are settled once per noise
block and before each objective change, so an episode change never meets
unsettled steps; a probe reads only x, so it settles nothing.  The
decaying schedule's tables are built once per noise block, and
``NoiseModel.fill`` writes the block in place, one generator call per
replication.  A lane's streams are a sized iterable, which a
``rng.StreamChunk`` builds only as it is iterated: a batch of one noise
block hands ``fill`` the lanes' streams as one lazy chain, so each stream
is built, drawn from and dropped before the next is built, and only a
batch of several blocks keeps its streams in a list.  A block's noise as
drawn, its step-major copy and the stored f(x) hold at most
``_NOISE_BLOCK_VALUES`` values over all rows together.
With ``record_trace`` the loop stores the traced row's action in a
block-sized ``TraceBlock``; its regret and cumulative regret are copied
from the block's settled rows, its episode column comes from the
schedule's change times, and its boundary contacts are derived after the
block's steps.  The block then goes to a ``TraceSink``, which writes it or
keeps it, so the engine holds no horizon-sized array: a traced run's
memory is bounded by the block budget, whatever the horizon.

The oracle and static policies never measure: their action changes only
at an episode start, so each episode's regret is evaluated once.  Their
steps run in blocks too, summed and traced as a measuring rule's are.

``simulate_lanes`` is the only implementation of the three step rules;
``algorithms`` holds their configs and the decaying schedule.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, repeat
from typing import Iterable, Sequence, Union

import numpy as np

from .algorithms import FixedStepConfig, SlidingWindowConfig, vanilla_perturbation, vanilla_step_size
from .domain import add_left_to_right
from .noise import NONE, NoiseModel
from .objectives import ObjectiveSpec, shared_kind
from .rng import RandomStream
from .schedule import EnvironmentSchedule
from .traces import RegretTrace, TraceBlock, TraceSink, sink_for

# A noise block holds at most this many values over all its rows (2 MB,
# however many lanes share the batch): the noise as drawn, its step-major
# copy and the stored f(x).  It spans at most this many steps, which bounds
# the per-block tables too.
_NOISE_BLOCK_VALUES = 262_144
_NOISE_BLOCK_STEPS = 4096


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
class BatchResult:
    """Outcome of a batch of replications."""

    total_regret: np.ndarray
    trace: RegretTrace | None
    distance_probes: dict[int, np.ndarray]


@dataclass(frozen=True)
class Lane:
    """One experiment's share of a batch: ``policy`` on ``env`` with one
    replication per stream in ``rngs``, a sized iterable (a list, or a
    ``rng.StreamChunk``, which builds its streams when iterated, and is
    iterated at most once per batch), squared distances probed at
    ``probe_steps`` and, with ``record_trace``, the per-step trace of its
    first replication: True keeps it in the lane's result, and a
    ``TraceSink`` receives it block by block instead.  The lanes of one
    batch run the same number of steps, ``env.horizon`` (see
    ``simulate_lanes``)."""

    policy: Policy
    env: EnvironmentSchedule
    rngs: Iterable[RandomStream]
    probe_steps: tuple[int, ...] = ()
    record_trace: bool | TraceSink = False

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


def _by_row(values, counts: list[int], d: int) -> np.ndarray:
    """values[k] repeated on the counts[k] rows of lane k, once per
    coordinate: a C-contiguous (d, rows) array."""
    return np.tile(np.asarray(values, dtype=float).repeat(counts), (d, 1))


class _ObjectiveRows:
    """The current objective of every row as columns laid out like a step's
    points: the shared kind's ``_value`` reads its coefficients from here as
    from one objective, one entry per point, (1 + 2d) slabs of the rows
    flattened.  Theta is held coordinate-major, (d, points), as the points
    are; ``max_value`` is f(theta) by row."""

    def _squared_distance(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """||x - theta||**2 of points x, (points, d), whose transpose is
        C-contiguous: the squares are formed as coordinate rows, and added
        left to right by ``domain.add_left_to_right``."""
        if x.shape[-1] == 1:
            u = np.subtract(x[:, 0], self.theta_cols[0], out=self.square_rows[0])
            return np.multiply(u, u, out=out)
        u = np.subtract(x.T, self.theta_cols, out=self.squares)
        np.multiply(u, u, out=u)
        return add_left_to_right(self.square_rows, out=out)

    def __init__(self, kind: type[ObjectiveSpec], slabs: int, rows: int, d: int):
        self.coefficients = kind.coefficients
        self.slabbed = (slabs, rows)
        self.theta_cols = np.empty((d, slabs * rows))
        for name in self.coefficients:
            setattr(self, name, np.empty(slabs * rows))
        self.max_value = np.empty(rows)
        self.squares = np.empty_like(self.theta_cols)
        self.square_rows = list(self.squares)

    def set(self, rows: slice, objective: ObjectiveSpec) -> None:
        """The rows ``rows`` now see ``objective``; a coefficient it lacks is 0."""
        d = len(self.theta_cols)
        self.theta_cols.reshape(d, *self.slabbed)[:, :, rows] = objective.theta_array[:, None, None]
        for name in self.coefficients:
            getattr(self, name).reshape(self.slabbed)[:, rows] = getattr(objective, name, 0.0)
        self.max_value[rows] = objective.max_value


class _Rule:
    """A measuring rule over a batch's rows, its state held coordinate-major
    as C-contiguous (d, rows) arrays, like the iterates x.

    ``perturbations(first, count)`` gives the perturbation c of steps first
    .. first + count - 1: a (count,) table when it varies by step, or a
    (1, d, rows) one when it varies by row.  ``update(x, g, s)`` overwrites
    x with the iterates that follow step s, given its gradient estimates g,
    (d, rows).  The box bounds are repeated by row and ``step`` and
    ``trial`` are scratch arrays, so that every operand of the update's
    ufuncs is 0-d or has the output's shape, which keeps them on NumPy's
    trivial loop (see the module docstring)."""

    def __init__(self, policies: list[Policy], counts: list[int], x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self.lo, self.hi = np.empty_like(x), np.empty_like(x)
        self.lo[...], self.hi[...] = lo[:, None], hi[:, None]
        self.step, self.trial = np.empty_like(x), np.empty_like(x)

    def _project(self, x: np.ndarray, point: np.ndarray) -> None:
        """x <- project(point); ties go to the bound, as in np.clip."""
        np.maximum(point, self.lo, out=self.step)
        np.minimum(self.step, self.hi, out=x)

    def _ascend(self, x: np.ndarray, g: np.ndarray, rate: np.ndarray) -> None:
        """x <- project(x + rate * g)."""
        np.multiply(g, rate, out=self.step)
        self._project(x, np.add(x, self.step, out=self.trial))


class _DecayingStep(_Rule):
    """Rate s**(-1/2) and perturbation s**(-1/4), tabulated per block; each
    step passes its rate to the ufuncs as a 0-d array, which they take as
    fast as a same-shaped operand and faster than a float."""

    def perturbations(self, first: int, count: int) -> np.ndarray:
        steps = range(first, first + count)
        self.first = first
        self.rates = np.fromiter(map(vanilla_step_size, steps), float, count)
        return np.fromiter(map(vanilla_perturbation, steps), float, count)

    def update(self, x: np.ndarray, g: np.ndarray, s: int) -> None:
        self._ascend(x, g, self.rates[s - self.first, ...])


class _FixedStep(_Rule):
    """Constant rate beta and perturbation c, by row."""

    def __init__(self, policies, counts, x, lo, hi):
        super().__init__(policies, counts, x, lo, hi)
        self.beta = _by_row([policy.config.beta for policy in policies], counts, len(x))
        self.c = _by_row([policy.config.c for policy in policies], counts, len(x))

    def perturbations(self, first: int, count: int) -> np.ndarray:
        return self.c[None]

    def update(self, x: np.ndarray, g: np.ndarray, s: int) -> None:
        self._ascend(x, g, self.beta)


class _SlidingWindow(_Rule):
    """x <- project(anchor + sum_n n**(-1/2) y_n) over the estimates since
    the last restart; lane k's sum empties after each ``window`` estimates.
    Step s on lane k's rows has n = (s - 1) % window + 1: the weights are
    tabulated per block by lane and gathered per step with one ``take``
    over the (d, rows) lane index, and the block's restarts are listed by
    step."""

    def __init__(self, policies, counts, x, lo, hi):
        super().__init__(policies, counts, x, lo, hi)
        self.configs = [policy.config for policy in policies]
        bounds = list(accumulate(counts, initial=0))
        self.lane_rows = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self.c = _by_row([config.c for config in self.configs], counts, len(x))
        self.anchor = x.copy()
        self.action_sum = np.zeros_like(x)
        self.lane_index = np.tile(np.arange(len(policies)).repeat(counts), (len(x), 1))
        self.weight = np.empty_like(x)

    def perturbations(self, first: int, count: int) -> np.ndarray:
        filled = np.arange(first - 1, first - 1 + count)
        self.first = first
        self.weights = np.stack([config.weights[filled % config.window] for config in self.configs], axis=1)
        self.restarts = defaultdict(list)
        for rows, config in zip(self.lane_rows, self.configs):
            window = config.window
            for s in range(first + (1 - first) % window, first + count, window):
                if s > 1:
                    self.restarts[s].append(rows)
        return self.c[None]

    def update(self, x: np.ndarray, g: np.ndarray, s: int) -> None:
        if s in self.restarts:
            for rows in self.restarts[s]:
                self.action_sum[:, rows] = 0.0
        self.weights[s - self.first].take(self.lane_index, out=self.weight, mode="clip")
        np.multiply(g, self.weight, out=self.step)
        np.add(self.action_sum, self.step, out=self.action_sum)
        self._project(x, np.add(self.anchor, self.action_sum, out=self.trial))


_RULES = {VanillaPolicy: _DecayingStep, FixedStepPolicy: _FixedStep, SlidingWindowPolicy: _SlidingWindow}


def _block_steps(rows: int, values_per_step: int, length: int) -> int:
    """Steps per noise block for ``rows`` rows over a run of ``length``
    steps.  Each step of a row holds ``values_per_step`` noise values as
    drawn, as many again in step-major order, and its f(x)."""
    per_step = rows * (2 * values_per_step + 1)
    return max(1, min(_NOISE_BLOCK_STEPS, length, _NOISE_BLOCK_VALUES // per_step))


def simulate_lanes(lanes: Sequence[Lane], noise: NoiseModel) -> list[BatchResult]:
    """Run every lane in one step loop; returns each lane's result, in lane
    order.

    Lanes must share the rule (the policy's class), the domain and the
    horizon, and their objectives one kind (``objectives.shared_kind``);
    they all draw noise from ``noise``.  Each lane's result equals, bit for
    bit, that of a batch of the lane alone, whatever else shares its batch.
    At most one lane records a trace.  Every returned array is new and owns
    its memory.
    """
    if not lanes:
        raise ValueError("need at least one lane")
    rule, domain, horizon = type(lanes[0].policy), lanes[0].env.domain, lanes[0].env.horizon
    if any(
        type(lane.policy) is not rule or lane.env.domain != domain or lane.env.horizon != horizon for lane in lanes
    ):
        raise ValueError("the lanes of one batch must share the rule, the domain and the horizon")
    if sum(bool(lane.record_trace) for lane in lanes) > 1:
        raise ValueError("at most one lane of a batch records a trace")
    if rule in (OraclePolicy, StaticPolicy):
        return [_hold(lane) for lane in lanes]
    return _measure(lanes, noise)


def simulate_batch(
    policy: Policy,
    env: EnvironmentSchedule,
    noise: NoiseModel,
    rngs: Iterable[RandomStream],
    record_trace: bool | TraceSink = False,
    probe_steps: tuple[int, ...] = (),
) -> BatchResult:
    """Run one trajectory per stream in ``rngs``, a sized iterable as in
    ``Lane``; all share (policy, env, noise) but draw noise from their own
    stream.

    ``probe_steps`` requests per-replication squared distances
    ``||X_s - theta_s||**2`` at the listed steps (``horizon + 1`` probes the
    iterate left after the final update).  When ``record_trace`` is True,
    the full per-step trace of replication 0 is returned; a ``TraceSink``
    receives it block by block instead, and the result holds none.  Every returned
    array is new and owns its memory.  This is the one-lane case of
    ``simulate_lanes``.
    """
    return simulate_lanes([Lane(policy, env, rngs, probe_steps, record_trace)], noise)[0]


def _gather_index(d: int, n: int) -> np.ndarray:
    """Where each entry of a step's points, coordinate-major (d, 1 + 2d, n),
    sits in the stacked corners (x, min(x + c, hi), max(x - c, lo)),
    (3, d, n): coordinate i of slab 1 + i comes from the second corner,
    coordinate i of slab 1 + d + i from the third, and every other entry
    from x."""
    axes = np.arange(d)
    corner = np.zeros((d, 1 + 2 * d), dtype=np.intp)
    corner[axes, 1 + axes] = 1
    corner[axes, 1 + d + axes] = 2
    return (((corner * d + axes[:, None]) * n)[:, :, None] + np.arange(n)).ravel()


def _measure(lanes: Sequence[Lane], noise: NoiseModel) -> list[BatchResult]:
    """The step loop of a measuring rule over lanes of one horizon, with
    sorted probe steps; returns their results.

    The loop never branches on the rule or the lane, and every row runs
    every step.  Regret is settled from the stored f(x) at the end of each
    noise block and before each objective change.  The traced row's block
    of trace rows gets its boundary contacts after the block's steps, from
    the recorded actions and the block's perturbations, and goes to the
    consumer then.  The totals and the probes of step ``horizon + 1`` are
    taken after the last block.  The lanes' streams are
    iterated once: lazily by the only block's fill, or into a list that
    every block reuses."""
    domain, horizon = lanes[0].env.domain, lanes[0].env.horizon
    d = domain.dimension
    lo, hi = domain.lower_array, domain.upper_array
    slabs = 1 + 2 * d
    counts = [len(lane.rngs) for lane in lanes]
    bounds = list(accumulate(counts, initial=0))
    lane_rows = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    n = bounds[-1]

    # The iterates x, coordinate-major, stacked with the step's two
    # perturbed corners, from which one take assembles the step's points.
    corners = np.empty((3, d, n))
    x, plus, minus = corners
    x[...] = np.array([_policy_start(lane.policy, lane.env) for lane in lanes]).repeat(counts, axis=0).T
    rule = _RULES[type(lanes[0].policy)]([lane.policy for lane in lanes], counts, x, lo, hi)
    kind = shared_kind([o for lane in lanes for o in lane.env.objectives])
    evaluate = kind._value
    objectives = _ObjectiveRows(kind, slabs, n, d)
    current = [lane.env.objectives[0] for lane in lanes]
    for rows, objective in zip(lane_rows, current):
        objectives.set(rows, objective)
    f_at_theta = objectives.max_value
    probe_out: list[dict[int, np.ndarray]] = [{} for _ in lanes]

    def distances(k: int) -> np.ndarray:
        return current[k]._squared_distance(x[:, lane_rows[k]].T)

    def change(k: int, objective: ObjectiveSpec) -> None:
        current[k] = objective
        objectives.set(lane_rows[k], objective)

    def probe(k: int, s: int) -> None:
        probe_out[k][s] = distances(k)

    # Each step's events: episode changes, then probes of the new episode's
    # objective.
    events = defaultdict(list)
    changes = set()
    for k, lane in enumerate(lanes):
        for t, objective in zip(lane.env.change_times[1:], lane.env.objectives[1:]):
            events[t].append(partial(change, k, objective))
            changes.add(t)
    for k, lane in enumerate(lanes):
        for t in lane.probe_steps:
            if t <= horizon:
                events[t].append(partial(probe, k, t))
    event_steps = iter(sorted(events))
    next_event = next(event_steps, 0)

    values_per_step = 2 * d if noise.kind != NONE else 0
    cap = _block_steps(n, values_per_step, horizon)
    # One block draws from each stream once, so it builds, draws and drops
    # each in turn; only several blocks keep every stream alive.
    rngs = chain.from_iterable(lane.rngs for lane in lanes)
    if cap < horizon:
        rngs = list(rngs)
    # Row 0 holds the cumulative regret by row so far, and row 1 + j the
    # f(x), then the regret, of step j of the current block.
    regret = np.zeros((cap + 1, n))
    if values_per_step:
        noise_block = np.empty((n, cap, values_per_step))
        step_noise = np.empty((cap, values_per_step, n))

    traced = next((k for k, lane in enumerate(lanes) if lane.record_trace), None)
    sink = blocks = columns = None
    if traced is not None:
        sink, blocks = sink_for(lanes[traced].record_trace)
        change_times = np.asarray(lanes[traced].env.change_times)
        t_row = bounds[traced]
        x_traced = x[:, t_row]

    def settle(first: int, end: int) -> None:
        """Regret and cumulative regret of the block's steps first .. end - 1
        from their stored f(x); the running sum adds strictly step by step."""
        fx = regret[1 + first : 1 + end]
        np.subtract(f_at_theta, fx, out=fx)
        if columns is not None:
            columns.inst_regret[first:end] = fx[:, t_row]
        running = regret[first : 1 + end]
        np.add.accumulate(running, axis=0, out=running)
        if columns is not None:
            columns.cum_regret[first:end] = fx[:, t_row]

    # The 1 + 2d points of a step, coordinate-major as (d, 1 + 2d, n) and
    # handed to the objective as (points, d): slab 0 is x, slab 1 + i is
    # x + c e_i and slab 1 + d + i is x - c e_i.  Their values are
    # sign-major too, so the plus and the minus samples are each one
    # contiguous (d, n) slab.
    gather = _gather_index(d, n)
    points = np.empty(d * slabs * n)
    at_points = points.reshape(d, slabs * n).T
    values = np.empty((slabs, n))
    flat_values = values.reshape(-1)
    at_x, samples = values[0], values[1:]
    plus_samples, minus_samples = values[1 : 1 + d], values[1 + d :]
    grad = np.empty((d, n))
    lo_rows, hi_rows = rule.lo, rule.hi

    step = 1
    while step <= horizon:
        block = min(cap, horizon - step + 1)
        # c by step, (block,), or by row, (1, d, n): step + j reads entry k
        # of the tables, k = j or 0
        cs = rule.perturbations(step, block)
        spans = 2.0 * cs
        if values_per_step:
            drawn = noise_block[:, :block]
            noise.fill(rngs, drawn)
            # Each stream's values stay axis-major, plus before minus; step
            # j's values of every row become one sign-major slab.
            by_sign = drawn.reshape(n, block, d, 2).transpose(1, 3, 2, 0)
            np.copyto(step_noise[:block].reshape(block, 2, d, n), by_sign)
        if sink is not None:
            columns = TraceBlock.empty(change_times, step, block, d)
            tr_actions = columns.actions
        settled = 0
        # step + j stores f(x) into f_x, row 1 + j of the regret, and adds
        # the noise slab noise_j
        by_step = zip(
            range(block),
            range(block) if cs.ndim == 1 else repeat(0),
            regret[1:],
            step_noise if values_per_step else repeat(None),
        )
        for j, k, f_x, noise_j in by_step:
            s = step + j
            if s == next_event:
                if s in changes:
                    settle(settled, j)
                    settled = j
                for event in events[s]:
                    event()
                next_event = next(event_steps, 0)

            # One-sided clamps: x lies in the box and c > 0, so x + c never
            # falls below lo nor x - c rises above hi, and the clamp on that
            # side would return its input bit for bit.
            c = cs[k, ...]
            np.add(x, c, out=plus)
            np.minimum(plus, hi_rows, out=plus)
            np.subtract(x, c, out=minus)
            np.maximum(minus, lo_rows, out=minus)
            corners.take(gather, out=points, mode="clip")
            evaluate(objectives, at_points, out=flat_values)
            f_x[...] = at_x
            if columns is not None:
                tr_actions[j] = x_traced

            if values_per_step:
                np.add(samples, noise_j, out=samples)
            np.subtract(plus_samples, minus_samples, out=grad)
            np.divide(grad, spans[k, ...], out=grad)
            rule.update(x, grad, s)
        settle(settled, block)
        regret[0] = regret[block]

        if columns is not None:
            c_col = cs[:, None] if cs.ndim == 1 else cs[0, :, t_row]
            np.any((tr_actions + c_col > hi) | (tr_actions - c_col < lo), axis=1, out=columns.boundary_contact)
            sink(columns)
        step += block

    for k, lane in enumerate(lanes):
        if horizon + 1 in lane.probe_steps:
            probe_out[k][horizon + 1] = distances(k)
    trace = RegretTrace.join(blocks, x_traced) if blocks is not None else None
    return [
        BatchResult(total_regret=regret[0, rows].copy(), trace=trace if k == traced else None, distance_probes=probes)
        for k, (rows, probes) in enumerate(zip(lane_rows, probe_out))
    ]


def _hold(lane: Lane) -> BatchResult:
    """Oracle and static play: the action changes only when the oracle
    moves to a new episode's maximizer, so an episode's regret is one value
    by row.  The steps run in blocks, as a measuring rule's do: each step's
    row of a block takes its episode's regret, and one accumulate adds the
    rows strictly step by step onto the running sum."""
    env, horizon, probes = lane.env, lane.env.horizon, lane.probe_steps
    oracle = isinstance(lane.policy, OraclePolicy)
    x = np.tile(_policy_start(lane.policy, env), (len(lane.rngs), 1))
    d = env.domain.dimension
    sink, blocks = sink_for(lane.record_trace)
    change_times = np.asarray(env.change_times)
    probe_out: dict[int, np.ndarray] = {}
    cap = _block_steps(len(x), 0, horizon)
    # Row 0 holds the cumulative regret by row so far, and row 1 + j the
    # regret of step j of the current block.
    regret = np.zeros((cap + 1, len(x)))
    step, block = 1, cap
    columns = TraceBlock.empty(change_times, step, block, d) if sink is not None else None
    ends = env.change_times[1:] + (horizon + 1,)
    for objective, first, end in zip(env.objectives, env.change_times, ends):
        if oracle:
            x[...] = objective.theta_array
        inst = objective.max_value - objective._value(x)
        for s in probes[bisect_left(probes, first) : bisect_left(probes, end)]:
            probe_out[s] = objective._squared_distance(x)
        while first < end:
            stop = min(end, step + block)
            regret[1 + first - step : 1 + stop - step] = inst
            if columns is not None:
                columns.actions[first - step : stop - step] = x[0]
                columns.inst_regret[first - step : stop - step] = inst[0]
            first = stop
            if stop == step + block:
                running = regret[: 1 + block]
                np.add.accumulate(running, axis=0, out=running)
                regret[0] = regret[block]
                if columns is not None:
                    columns.cum_regret[...] = regret[1 : 1 + block, 0]
                    sink(columns)
                step, block = stop, min(cap, horizon - stop + 1)
                if columns is not None and block:
                    columns = TraceBlock.empty(change_times, step, block, d)
    if horizon + 1 in probes:
        probe_out[horizon + 1] = env.objectives[-1]._squared_distance(x)
    trace = RegretTrace.join(blocks, x[0]) if blocks is not None else None
    return BatchResult(total_regret=regret[0].copy(), trace=trace, distance_probes=probe_out)
