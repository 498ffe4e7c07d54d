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
steps, precomputed into one table of events, and the loop runs each
block's steps in segments between them; window restarts are listed per
noise block.  ``simulate_batch`` is the one-lane case.

Each measuring rule gives, through ``tables(first, count)``, the
perturbation c and the rate of a block of steps; the decaying and
fixed-step rules share one step and differ only in their tables.  Each
rule family's step is written once, in ``steploop``, which generates its
two forms: the float form of a batch of one row, below, and the array
form, which never asks which rule it runs.  The array form evaluates the
objective once per step on one stacked array of the step's 1 + 2d points
for every row, in sign-major slabs: x itself, whose value gives the step's
regret, then x + c e_i for every axis i, then x - c e_i for every axis i,
clamped into the box, whose noisy values give the central-difference
gradient estimate.  The plus and the minus samples are then each one
contiguous slab.  Only the slabs are sign-major: each stream is still
consumed axis-major, plus before minus, and each noise block is permuted
once into step-major, sign-major order, so that a step adds one contiguous
(2d, rows) slab of noise.  The points are formed from x and its two
clamped corners, min(x + c, hi) and max(x - c, lo), held as one (3, d,
rows) array.  At d = 1 that array is the step's points, slab for slab, and
the objective reads it in place; at d > 1 one ``take`` gathers the points
from it, coordinate-major.

An array step is one NumPy call per arithmetic operation, plus the copy
of f(x) into the block buffer and the sliding window's gather of its
weights.  Every array the loop writes is allocated once per batch.  Every
view it reads is built once per batch, or once per block for a table by
row, except the step's rows of the block buffers and its entries of the
tables by step, which the loop iterates and hands the step: c, 2c and the
rate.  A step goes through two Python frames: the objective's ``_value``
and the ``_squared_distance`` it calls; at d > 1 a third,
``domain.add_left_to_right``.  The decaying schedule's tables,
built per block, run no Python frame per step.  Each ufunc is passed its
output by position, which costs about 40 ns less a call than ``out=``;
``maximum`` and ``minimum`` keep ``out=``, since NumPy 2.4 deprecates a
positional output for them.  Each takes NumPy's trivial loop: every operand
is 0-d, or has exactly the output's shape and is contiguous (a 1-D operand
may be strided).  A broadcast or a strided N-d operand makes NumPy build
its general iterator, which at 192 rows more than doubles an operation's
cost, from about 0.45 to 1.0 us at the machine's fastest (numpy 2.4.6,
Python 3.11, 2-vCPU Xeon with AVX-512; its speed drifted by up to 2x, the
ratio did not).  So x and all rule state are coordinate-major, C-contiguous
(d, rows) arrays, the box bounds repeated by row; a rate or perturbation
that varies by step is a 0-d array, which costs what a same-shaped operand
does, where a float costs about half as much again; and an operation runs
in place only through the identical array object, since one through a
second view of the same memory pays NumPy's overlap solver.

At one row a step's 20 or so NumPy calls cost about 0.4 us each on arrays
of one element, so a batch of one row with at most ``_FLOAT_AXES`` axes,
on objectives of exactly the kind ``QuadraticBowl`` or
``QuarticPerturbedBowl``, runs in the float form while NumPy ignores
underflow, about 1.5 us a step at d = 2, and switches to the array form at
a step that meets a value that is not finite.

Each step stores f(x) into a block buffer of one ledger (``_Ledger``),
which every policy shares: the regret f(theta) - f(x) and its running sum,
added strictly left to right, are settled once per noise block and before
each objective change, so an episode change never meets unsettled steps; a
probe reads only x, so it settles nothing.  The rules' tables are built
once per noise block.  One producer (``_step_major_noise``) draws each
block in place with ``NoiseModel.fill``, one generator call per
replication, and permutes it step-major.  A lane's streams are a sized
iterable, which a ``rng.StreamChunk`` builds only as it is iterated: a
batch of one noise block hands ``fill`` the lanes' streams as one lazy
chain, so each stream is built, drawn from and dropped before the next is
built, and only a batch of several blocks keeps its streams in a list.
The steps of a replication are sequential, but its noise depends on no
action, so the producer runs on two cores for a batch of at least
``_WORKER_ROWS`` rows (``_noise_blocks``): the process's one noise worker
(``noiseworker``), forked by the first such batch and reused by every
later one, fills rows [k, n) of each block in shared memory while the
parent fills rows [0, k).  A batch of one block splits its rows at
k = n // 2; a batch of several has the worker draw every row, one block
ahead of the loop.  A process that may run on one CPU only forks no
worker, and so does not share a draw.  Any other batch runs the
producer in-process, a block when the loop asks for it.  In-process, a
block's noise as drawn, its step-major copy and the stored f(x) hold at
most ``_NOISE_BLOCK_VALUES`` values over all rows together; a batch that
shares its draw holds a second step-major block, in the buffer that the
worker fills while the loop reads the first.  With ``record_trace`` the ledger
opens a block-sized ``TraceBlock``, in which the loop stores the traced
row's action; the ledger copies its regret and cumulative regret from the
block's settled rows, its episode column comes from the schedule's change
times, and the loop derives its boundary contacts after the block's
steps.  The ledger then hands it to a
``TraceSink``, which keeps it or, in ``run``, sends it to the writer
process that formats trace.csv (``tracewriter``), so the engine holds no
horizon-sized array: a traced run's memory is bounded by the block budget,
whatever the horizon, and the step loop spends no time on formatting.

The oracle and static policies never measure: their action changes only
at an episode start, so f(x) is evaluated once per episode and stored on
each of its steps.  The same ledger settles, sums and traces them.

``simulate_lanes`` runs the three step rules, whose steps ``steploop``
holds; ``algorithms`` holds their configs and the decaying schedule.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from contextlib import contextmanager
from functools import partial
from itertools import accumulate, chain, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from . import steploop
from .algorithms import FixedStepConfig, SlidingWindowConfig, decaying_schedule
from .domain import add_left_to_right
from .noise import NONE, NoiseModel
from .objectives import ObjectiveSpec, QuadraticBowl, QuarticPerturbedBowl, shared_kind
from .records import Record
from .rng import RandomStream, StreamChunk
from .schedule import EnvironmentSchedule
from .traces import RegretTrace, TraceBlock, TraceSink, sink_for

# A noise block holds at most this many values over all its rows (2 MB,
# however many lanes share the batch): the noise as drawn, its step-major
# copy and the stored f(x); a batch that shares its draw with the noise
# worker adds a second step-major copy.  It spans at most this many steps,
# which bounds the per-block tables too.
_NOISE_BLOCK_VALUES = 262_144
_NOISE_BLOCK_STEPS = 4096
# A batch with noise and at least this many rows shares its draw with the
# noise worker (``_noise_blocks``).  A request's round trip costs about
# 130 us, the two wake-ups of a pipe on a 2-vCPU VM most of it, and the
# worker takes about 2 us a row off a one-block batch; one-block batches of
# 5 and 20 steps at d = 1 broke even between 96 and 192 rows.
_WORKER_ROWS = 128
# A batch of one row with at most this many axes runs ``steploop``'s float
# form, whose step's cost grows as d squared: on 4,000-step one-row batches
# it took 0.8 us at d = 1 against the array form's 8 us, 10 against 15 at
# d = 16, and about as long as the array form at d = 24.
_FLOAT_AXES = 16


class VanillaPolicy(Record):
    """Decaying schedule: step s uses rate s**(-1/2), perturbation s**(-1/4)."""

    _fields = ("x0",)

    def __init__(self, x0: tuple[float, ...]):
        self._set(x0=tuple(float(v) for v in x0))


class FixedStepPolicy(Record):
    """Constant rate/perturbation ascent from x0."""

    _fields = ("config", "x0")

    def __init__(self, config: FixedStepConfig, x0: tuple[float, ...]):
        self._set(config=config, x0=tuple(float(v) for v in x0))


class SlidingWindowPolicy(Record):
    """Finite-memory ascent; the anchor lives in the config."""

    _fields = ("config",)

    def __init__(self, config: SlidingWindowConfig):
        self._set(config=config)


class OraclePolicy(Record):
    """Clairvoyant baseline playing the current maximizer; zero regret."""


class StaticPolicy(Record):
    """Plays x0 forever; never measures."""

    _fields = ("x0",)

    def __init__(self, x0: tuple[float, ...]):
        self._set(x0=tuple(float(v) for v in x0))


Policy = Union[VanillaPolicy, FixedStepPolicy, SlidingWindowPolicy, OraclePolicy, StaticPolicy]


class BatchResult(NamedTuple):
    """Outcome of a batch of replications."""

    total_regret: np.ndarray
    trace: RegretTrace | None
    distance_probes: dict[int, np.ndarray]


class Lane(Record):
    """One experiment's share of a batch: ``policy`` on ``env`` with one
    replication per stream in ``rngs``, a sized iterable (a list, or a
    ``rng.StreamChunk``, which builds its streams when iterated, and is
    iterated at most once per batch), squared distances probed at
    ``probe_steps`` and, with ``record_trace``, the per-step trace of its
    first replication: True keeps it in the lane's result, and a
    ``TraceSink`` receives it block by block instead.  The lanes of one
    batch run the same number of steps, ``env.horizon`` (see
    ``simulate_lanes``).  A list of generators is drawn from in-process,
    which advances them."""

    _fields = ("policy", "env", "rngs", "probe_steps", "record_trace")

    def __init__(
        self,
        policy: Policy,
        env: EnvironmentSchedule,
        rngs: Iterable[RandomStream],
        probe_steps: tuple[int, ...] = (),
        record_trace: bool | TraceSink = False,
    ):
        if len(rngs) < 1:
            raise ValueError("need at least one replication stream")
        probes = tuple(sorted(set(int(s) for s in probe_steps)))
        horizon = env.horizon
        if probes and not (1 <= probes[0] and probes[-1] <= horizon + 1):
            raise ValueError(f"probe steps must lie in [1, horizon + 1 = {horizon + 1}], got {list(probes)}")
        self._set(policy=policy, env=env, rngs=rngs, probe_steps=probes, record_trace=record_trace)


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
    are; ``max_value`` is f(theta) by row.

    ``coordinates`` is the (d, points) array that holds the points of every
    step, whose transpose the engine hands to ``_value``; its coordinate
    rows are taken once, here."""

    def __init__(self, kind: type[ObjectiveSpec], slabs: int, rows: int, coordinates: np.ndarray):
        self.coefficients = kind.coefficients
        self.slabbed = (slabs, rows)
        self.coordinates = coordinates
        self.theta_cols = np.empty_like(coordinates)
        for name in self.coefficients:
            setattr(self, name, np.empty(slabs * rows))
        self.max_value = np.empty(rows)
        self.squares = np.empty_like(coordinates)
        self.square_rows = list(self.squares)
        self.one_square = self.square_rows[0] if len(coordinates) == 1 else None

    def _squared_distance(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """||x - theta||**2 of the points x, (points, d), which are the
        transpose of ``coordinates``: the squares are formed from those
        coordinate rows, and added left to right by
        ``domain.add_left_to_right``."""
        u = np.subtract(self.coordinates, self.theta_cols, self.squares)
        if self.one_square is not None:
            return np.multiply(self.one_square, self.one_square, out)
        np.multiply(u, u, u)
        return add_left_to_right(self.square_rows, out=out)

    def set(self, rows: slice, objective: ObjectiveSpec) -> None:
        """The rows ``rows`` now see ``objective``; a coefficient it lacks is 0."""
        d = len(self.theta_cols)
        self.theta_cols.reshape(d, *self.slabbed)[:, :, rows] = objective.theta_array[:, None, None]
        for name in self.coefficients:
            getattr(self, name).reshape(self.slabbed)[:, rows] = getattr(objective, name, 0.0)
        self.max_value[rows] = objective.max_value


class _Rule:
    """A measuring rule's state over a batch's rows, as C-contiguous (d,
    rows) arrays named as in its family's table in ``steploop``: the box
    bounds, repeated by row, and the scratch arrays ``step`` and ``trial``.
    ``tables(first, count)`` gives the perturbations c and the rates of
    steps first .. first + count - 1, each a table by step, (count, ...), or
    by row, (1, d, rows), whose one entry serves every step; ``restarts``
    maps a step of the block to the rows whose window restarts there."""

    def __init__(self, policies: list[Policy], counts: list[int], x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self.lo, self.hi = np.empty_like(x), np.empty_like(x)
        self.lo[...], self.hi[...] = lo[:, None], hi[:, None]
        self.step, self.trial = np.empty_like(x), np.empty_like(x)
        self.restarts = {}


class _Ascent(_Rule):
    """x <- project(x + rate g): the decaying rule's rate s**(-1/2) and
    perturbation s**(-1/4), tabulated by step (``decaying_schedule``), or
    the fixed rule's beta and c, by row."""

    window = False

    def __init__(self, policies, counts, x, lo, hi):
        super().__init__(policies, counts, x, lo, hi)
        self.by_row = None
        if isinstance(policies[0], FixedStepPolicy):
            c = _by_row([policy.config.c for policy in policies], counts, len(x))
            beta = _by_row([policy.config.beta for policy in policies], counts, len(x))
            self.by_row = c[None], beta[None]

    def tables(self, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        return self.by_row or decaying_schedule(first, count)


class _SlidingWindow(_Rule):
    """x <- project(anchor + sum_n n**(-1/2) y_n) over the estimates since
    the last restart; lane k's sum empties after each ``window`` estimates.
    Step s on lane k's rows has n = (s - 1) % window + 1: each block's
    weights are computed by lane (``SlidingWindowConfig.weights``), so no
    table of ``window`` weights is built, and a step's row of them is
    gathered with one ``take`` over the (d, rows) lane index."""

    window = True

    def __init__(self, policies, counts, x, lo, hi):
        super().__init__(policies, counts, x, lo, hi)
        self.configs = [policy.config for policy in policies]
        bounds = list(accumulate(counts, initial=0))
        self.lane_rows = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self.c = _by_row([config.c for config in self.configs], counts, len(x))[None]
        self.anchor = x.copy()
        self.sums = np.zeros_like(x)
        self.lane_index = np.tile(np.arange(len(policies)).repeat(counts), (len(x), 1))
        self.weight = np.empty_like(x)

    def tables(self, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        filled = np.arange(first - 1, first - 1 + count)
        self.restarts = defaultdict(list)
        for rows, config in zip(self.lane_rows, self.configs):
            window = config.window
            for s in range(first + (1 - first) % window, first + count, window):
                if s > 1:
                    self.restarts[s - first].append(rows)
        return self.c, np.stack([config.weights(filled) for config in self.configs], axis=1)


_RULES = {VanillaPolicy: _Ascent, FixedStepPolicy: _Ascent, SlidingWindowPolicy: _SlidingWindow}


def _block_steps(rows: int, values_per_step: int, length: int) -> int:
    """Steps per noise block for ``rows`` rows over a run of ``length``
    steps.  Each step of a row holds ``values_per_step`` noise values as
    drawn, as many again in step-major order, and its f(x)."""
    per_step = rows * (2 * values_per_step + 1)
    return max(1, min(_NOISE_BLOCK_STEPS, length, _NOISE_BLOCK_VALUES // per_step))


def _step_major_noise(sources: list, noise: NoiseModel, horizon: int, shape: tuple, buffers, rows: slice):
    """Each noise block of rows ``rows`` of a batch of ``horizon`` steps,
    in step order: the streams of ``sources``, laid end to end, fill the
    block, (rows, steps, 2d), and one copy permutes it into those rows of
    the next of ``buffers``, arrays of ``shape``, (cap, 2d, batch rows),
    step-major and sign-major, whose first steps are yielded.  A buffer is
    taken from ``buffers`` only when its block is about to be drawn.  The
    streams are iterated once: lazily by the only block's fill, or into a
    list that every block reuses."""
    cap, d = shape[0], shape[1] // 2
    rngs = chain.from_iterable(sources)
    if cap < horizon:
        rngs = list(rngs)
    n = rows.stop - rows.start
    drawn_block = np.empty((n, cap, 2 * d))
    for first, out in zip(range(1, horizon + 1, cap), buffers):
        block = min(cap, horizon + 1 - first)
        drawn = drawn_block[:, :block]
        noise.fill(rngs, drawn)
        # Each stream's values stay axis-major, plus before minus; step
        # j's values of every row become one sign-major slab.
        by_sign = drawn.reshape(n, block, d, 2).transpose(1, 3, 2, 0)
        np.copyto(out[:block].reshape(block, 2, d, -1)[..., rows], by_sign)
        yield out[:block]


@contextmanager
def _noise_blocks(lanes: Sequence[Lane], noise: NoiseModel, cap: int) -> Iterator[Iterator]:
    """The step-major noise of a batch, one block for each of the ledger's
    blocks of ``cap`` steps (``_step_major_noise``); for ``none`` noise,
    blocks of steps without noise (None).

    A batch of at least ``_WORKER_ROWS`` rows whose streams are all
    ``StreamChunk``s shares its draw with the noise worker
    (``noiseworker.drawn``), which fills rows [k, n) of each block while
    this process fills rows [0, k).  A list of generators
    would cost more to pickle (3.5 us a generator) and unpickle (16 us)
    than to draw from here (under 1 us).  Any other batch, and one that
    the worker cannot serve, draws in-process, into one buffer, each block
    when the loop asks for it."""
    horizon, d = lanes[0].env.horizon, lanes[0].env.domain.dimension
    n = sum(len(lane.rngs) for lane in lanes)
    if noise.kind == NONE:
        yield repeat(repeat(None))
        return
    shape, sources = (cap, 2 * d, n), [lane.rngs for lane in lanes]
    if n >= _WORKER_ROWS and all(isinstance(source, StreamChunk) for source in sources):
        from . import noiseworker

        with noiseworker.drawn(sources, noise, horizon, shape) as blocks:
            if blocks is not None:
                yield blocks
                return
    yield _step_major_noise(sources, noise, horizon, shape, repeat(np.empty(shape)), slice(0, n))


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


class _Ledger:
    """The regret of a batch's rows, kept block by block, and the trace of
    the one lane that records it.  Row 0 of ``regret`` holds the cumulative
    regret by row so far (``running``), and row 1 + j the f(x), then the
    regret, of step j of the open block: the caller stores f(x) in
    ``f_x[j]`` and the traced row's action in ``columns.actions[j]``.
    ``settle(end)`` turns the unsettled f(x) of the block's steps before
    ``end`` into regret, ``f_at_theta`` - f(x), added strictly step by step
    onto the running sum; the caller settles before each objective change."""

    def __init__(self, lanes: Sequence[Lane], lane_rows: list[slice], f_at_theta: np.ndarray, cap: int):
        self.lane_rows, self.f_at_theta, self.cap, self.horizon = lane_rows, f_at_theta, cap, lanes[0].env.horizon
        self.regret = np.zeros((cap + 1, len(f_at_theta)))
        self.running, self.f_x = self.regret[0], self.regret[1:]
        self.traced = next((k for k, lane in enumerate(lanes) if lane.record_trace), None)
        # lane 0 stands in when no lane records a trace: its sink is None
        lane, self.t_row = lanes[self.traced or 0], lane_rows[self.traced or 0].start
        self.sink, self.kept = sink_for(lane.record_trace)
        self.env, self.columns = lane.env, None

    def blocks(self) -> Iterator[tuple[int, int]]:
        """Each block's first step and step count.  While the caller fills
        it, ``columns`` is the traced row's ``TraceBlock``; then the block is
        settled, its sums carry into row 0, and its trace goes to the sink."""
        step = 1
        while step <= self.horizon:
            count = min(self.cap, self.horizon - step + 1)
            self.settled = 0
            if self.sink is not None:
                change_times = np.asarray(self.env.change_times)
                self.columns = TraceBlock.empty(change_times, step, count, self.env.domain.dimension)
            yield step, count
            self.settle(count)
            self.running[...] = self.regret[count]
            if self.sink is not None:
                self.sink(self.columns)
            step += count

    def settle(self, end: int) -> None:
        first, self.settled = self.settled, end
        fx = self.regret[1 + first : 1 + end]
        np.subtract(self.f_at_theta, fx, out=fx)
        if self.columns is not None:
            self.columns.inst_regret[first:end] = fx[:, self.t_row]
        running = self.regret[first : 1 + end]
        np.add.accumulate(running, axis=0, out=running)
        if self.columns is not None:
            self.columns.cum_regret[first:end] = fx[:, self.t_row]

    def results(self, probes: list[dict[int, np.ndarray]], final_x: np.ndarray) -> list[BatchResult]:
        """Each lane's result, with its ``probes``; a kept trace ends at ``final_x``."""
        trace = RegretTrace.join(self.kept, final_x) if self.kept is not None else None
        return [
            BatchResult(
                total_regret=self.running[rows].copy(), trace=trace if k == self.traced else None, distance_probes=p
            )
            for k, (rows, p) in enumerate(zip(self.lane_rows, probes))
        ]


def _measure(lanes: Sequence[Lane], noise: NoiseModel) -> list[BatchResult]:
    """The step loop of a measuring rule over lanes of one horizon, with
    sorted probe steps; returns their results.

    One loop runs each block's steps in segments between its events, in
    one form of ``steploop``'s step: the array form, in which every row runs
    every step, or, for a batch of one row, the float form until a step
    meets a value that is not finite.  The traced row's block of trace rows
    gets its boundary contacts after the block's steps, from the recorded
    actions and the block's perturbations.  The totals and the probes of
    step ``horizon + 1`` are taken after the last block.  The noise comes
    block by block from ``_noise_blocks``, drawn in-process or with the
    noise worker, which starts on its rows while the loop's arrays are
    built."""
    domain, horizon = lanes[0].env.domain, lanes[0].env.horizon
    d = domain.dimension
    lo, hi = domain.lower_array, domain.upper_array
    slabs = 1 + 2 * d
    counts = [len(lane.rngs) for lane in lanes]
    bounds = list(accumulate(counts, initial=0))
    lane_rows = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    n = bounds[-1]
    values_per_step = 2 * d if noise.kind != NONE else 0
    cap = _block_steps(n, values_per_step, horizon)
    with _noise_blocks(lanes, noise, cap) as noise_blocks:
        # The iterates x, coordinate-major, stacked with the step's two
        # perturbed corners.  The 1 + 2d points of a step, coordinate-major as
        # (d, 1 + 2d, n), are handed to the objective as (points, d): slab 0 is
        # x, slab 1 + i is x + c e_i and slab 1 + d + i is x - c e_i.  At d = 1
        # they are the corners themselves, slab for slab; otherwise one take
        # gathers them from the corners.  Their values are sign-major too, so
        # the plus and the minus samples are each one contiguous (d, n) slab.
        corners = np.empty((3, d, n))
        x, plus, minus = corners
        x[...] = np.array([_policy_start(lane.policy, lane.env) for lane in lanes]).repeat(counts, axis=0).T
        if d == 1:
            points, gather = corners, None
        else:
            points, gather = np.empty(d * slabs * n), _gather_index(d, n)
        coordinates = points.reshape(d, slabs * n)
        rule = _RULES[type(lanes[0].policy)]([lane.policy for lane in lanes], counts, x, lo, hi)
        kind = shared_kind([o for lane in lanes for o in lane.env.objectives])
        objectives = _ObjectiveRows(kind, slabs, n, coordinates)
        current = [lane.env.objectives[0] for lane in lanes]
        for rows, objective in zip(lane_rows, current):
            objectives.set(rows, objective)
        probe_out: list[dict[int, np.ndarray]] = [{} for _ in lanes]

        def distances(k: int) -> np.ndarray:
            return current[k]._squared_distance(x[:, lane_rows[k]].T)

        def change(k: int, objective: ObjectiveSpec, s: int) -> None:
            # the block's steps before s see the old objective
            ledger.settle(s - step)
            current[k] = objective
            objectives.set(lane_rows[k], objective)

        def probe(k: int, s: int) -> None:
            probe_out[k][s] = distances(k)

        # Each step's events: episode changes, then probes of the new episode's
        # objective.
        events = defaultdict(list)
        for k, lane in enumerate(lanes):
            for t, objective in zip(lane.env.change_times[1:], lane.env.objectives[1:]):
                events[t].append(partial(change, k, objective, t))
        for k, lane in enumerate(lanes):
            for t in lane.probe_steps:
                if t <= horizon:
                    events[t].append(partial(probe, k, t))
        event_steps = iter(sorted(events))
        next_event = next(event_steps, 0)

        ledger = _Ledger(lanes, lane_rows, objectives.max_value, cap)
        x_traced = x[:, ledger.t_row]
        noisy, traced = bool(values_per_step), ledger.sink is not None

        # The step's f(x) and its samples at the plus and the minus corners,
        # slab by slab, and every array of the rule family's step, by its
        # name in ``steploop``'s table.
        values = np.empty((slabs, n))
        arrays = dict(x=x, plus=plus, minus=minus, take=corners.take, gather=gather, points=points)
        arrays.update(evaluate=kind._value, objectives=objectives, at_points=coordinates.T, at_x=values[0])
        arrays.update(flat_values=values.reshape(-1), samples=values[1:], above=values[1 : 1 + d], below=values[1 + d :])
        arrays.update(grad=np.empty((d, n)), x_traced=x_traced)
        form = array_form = steploop.Rows(rule, noisy, traced, arrays)
        # Python floats signal no underflow, so NumPy must ignore it, as it
        # does by default.
        shipped = kind in (QuadraticBowl, QuarticPerturbedBowl)
        if n == 1 and d <= _FLOAT_AXES and shipped and np.geterr()["under"] == "ignore":
            form = steploop.Row(rule, noisy, traced, x, current)

        for (step, block), block_noise in zip(ledger.blocks(), noise_blocks):
            # c and the rate by step, (block, ...), or by row, (1, d, n), and
            # the spans 2c; step + j adds the noise slab block_noise[j] and
            # stores f(x) into f_x[j]
            cs, rates = rule.tables(step, block)
            columns = ledger.columns
            actions = None if columns is None else columns.actions
            tables = (block, cs, 2.0 * cs, rates, block_noise, rule.restarts, ledger.f_x, actions)
            form.open(*tables)
            j = 0
            while j < block:
                s = step + j
                if s == next_event:
                    for event in events[s]:
                        event()
                    next_event = next(event_steps, 0)
                stop = min(block, next_event - step) if next_event > s else block
                j = form.run(j, stop)
                if j < stop:
                    # step j met a value that is not finite: the array form
                    # runs it and every later step of the batch
                    form = array_form
                    form.open(*tables, start=j)

            if columns is not None:
                c_col = cs[:, None] if cs.ndim == 1 else cs[0, :, ledger.t_row]
                contact = (actions + c_col > hi) | (actions - c_col < lo)
                np.any(contact, axis=1, out=columns.boundary_contact)

    for k, lane in enumerate(lanes):
        if horizon + 1 in lane.probe_steps:
            probe_out[k][horizon + 1] = distances(k)
    return ledger.results(probe_out, x_traced)


def _hold(lane: Lane) -> BatchResult:
    """Oracle and static play: the action changes only when the oracle
    moves to a new episode's maximizer, so f(x) is evaluated once per
    episode and stored on each of its steps, whose regret the ledger
    settles as it does a measuring rule's."""
    env, horizon, probes = lane.env, lane.env.horizon, lane.probe_steps
    oracle = isinstance(lane.policy, OraclePolicy)
    x = np.tile(_policy_start(lane.policy, env), (len(lane.rngs), 1))
    ledger = _Ledger([lane], [slice(0, len(x))], np.empty(len(x)), _block_steps(len(x), 0, horizon))
    probe_out: dict[int, np.ndarray] = {}
    # each episode's objective and the step after its last; none is open yet
    episodes = zip(env.objectives, env.change_times[1:] + (horizon + 1,))
    end = 1
    for step, block in ledger.blocks():
        first = step
        while first < step + block:
            if first == end:
                ledger.settle(first - step)
                objective, end = next(episodes)
                ledger.f_at_theta[...] = objective.max_value
                if oracle:
                    x[...] = objective.theta_array
                f_x = objective._value(x)
                for s in probes[bisect_left(probes, first) : bisect_left(probes, end)]:
                    probe_out[s] = objective._squared_distance(x)
            stop = min(end, step + block)
            ledger.f_x[first - step : stop - step] = f_x
            if ledger.columns is not None:
                ledger.columns.actions[first - step : stop - step] = x[0]
            first = stop
    if horizon + 1 in probes:
        probe_out[horizon + 1] = env.objectives[-1]._squared_distance(x)
    return ledger.results([probe_out], x[0])[0]
