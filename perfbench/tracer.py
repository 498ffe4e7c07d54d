"""Spans and counters around the calls into each kwbandit module.

The tracer is installed in a benchmark child process after ``kwbandit`` is
imported and before the workload runs.  Each target function is replaced
by a wrapper in every ``kwbandit`` module that binds it, so a name that a
module imported with ``from .rng import replication_stream`` is traced
where that module looks it up.  A target that no longer exists is recorded
as absent and the metrics built on it are left out; the workload itself
still runs.

Times are busy time (``time.thread_time_ns``), summed over threads, so the
sweep's thread pool does not count one interval twice.  A span's self time
is its time minus the time of the spans it caused.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

_clock = time.thread_time_ns


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []  # frames of [span, child_ns]
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.broken: set[str] = set()

    def inside(self, span: str) -> bool:
        return any(frame[0] == span for frame in self.stack)


@dataclass(frozen=True)
class Target:
    """A function (``name``) or method (``Class.name``) in ``module``.

    ``subclasses`` also wraps the method on every subclass that defines
    its own.  ``counters`` names the counts the hooks keep.  ``before`` is
    called as ``before(state, args, kwargs)`` and returns the
    ``(args, kwargs)`` to call with; ``after`` is called as
    ``after(state, args, kwargs, result)``.
    """

    module: str
    path: str
    span: str
    counters: tuple[str, ...] = ()
    after: Callable | None = None
    before: Callable | None = None
    subclasses: bool = False


class Tracer:
    def __init__(self, package: str = "kwbandit"):
        self.package = package
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self.absent_spans: set[str] = set()
        self.absent_counters: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def _wrap(self, fn, target: Target):
        state_of = self._state
        span, before, after, counters = target.span, target.before, target.after, target.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            if before is not None:
                try:
                    args, kwargs = before(state, args, kwargs)
                except Exception:
                    state.broken.update(counters)
            stack = state.stack
            frame = [span, 0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                state.inclusive_ns[span] += elapsed
                state.self_ns[span] += elapsed - frame[1]
            if after is not None:
                try:
                    after(state, args, kwargs, result)
                except Exception:
                    state.broken.update(counters)
            return result

        return traced

    def install(self, targets: list[Target]) -> None:
        prefix = self.package + "."
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]
        for target in targets:
            owner_name, _, attr = target.path.rpartition(".")
            owner = sys.modules.get(target.module)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            patched = 0
            if owner_name and isinstance(owner, type):
                classes = [owner] + (_all_subclasses(owner) if target.subclasses else [])
                for cls in classes:
                    original = cls.__dict__.get(attr)
                    if inspect.isfunction(original):
                        self._undo.append((cls, attr, original))
                        setattr(cls, attr, self._wrap(original, target))
                        patched += 1
            elif not owner_name and inspect.isfunction(getattr(owner, attr, None)):
                original = getattr(owner, attr)
                wrapper = self._wrap(original, target)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, name, original))
                            setattr(module, name, wrapper)
                            patched += 1
            if not patched:
                self.absent_spans.add(target.span)
                self.absent_counters.update(target.counters)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def snapshot(self) -> dict:
        inclusive: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        absent_counters = set(self.absent_counters)
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key, value in state.inclusive_ns.items():
                inclusive[key] += value
            for key, value in state.self_ns.items():
                self_ns[key] += value
            for key, value in state.counts.items():
                counts[key] += value
            absent_counters |= state.broken
        return {
            "inclusive_ns": dict(inclusive),
            "self_ns": dict(self_ns),
            "counts": dict(counts),
            "absent_spans": sorted(self.absent_spans),
            "absent_counters": sorted(absent_counters),
        }


def _all_subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def _named(args, kwargs, names) -> dict:
    """The call's arguments by name, for the leading parameters ``names``."""
    values = dict(zip(names, args))
    values.update(kwargs)
    return values


# ---- hooks: counts taken at each layer boundary ------------------------------


def _count_schedule(state, args, kwargs, result):
    state.counts["config.schedule_builds"] += 1


def _csv_rows(state, args, kwargs):
    call = _named(args, kwargs, ("path", "header", "rows"))
    counts = state.counts

    def counted(rows):
        for row in rows:
            counts["runner.csv_rows"] += 1
            yield row

    call["rows"] = counted(call["rows"])
    return (), call


def _csv_bytes(state, args, kwargs, result):
    state.counts["runner.csv_bytes"] += os.stat(kwargs["path"]).st_size


def _count_stream(state, args, kwargs, result):
    state.counts["rng.streams"] += 1


def _count_draw(state, args, kwargs, result):
    size = kwargs["size"] if "size" in kwargs else (args[2] if len(args) > 2 else None)
    counts = state.counts
    counts["noise.draw_calls"] += 1
    if size is None:
        counts["noise.values"] += 1
    elif isinstance(size, int):
        counts["noise.values"] += size
    else:
        n = 1
        for dim in size:
            n *= dim
        counts["noise.values"] += n


def _count_value(state, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    counts = state.counts
    counts["objectives.value_calls"] += 1
    counts["objectives.points"] += x.shape[0] if x.ndim > 1 else 1


def _count_batch(state, args, kwargs, result):
    call = _named(args, kwargs, ("policy", "env", "noise", "rngs"))
    width = len(call["rngs"])
    counts = state.counts
    counts["trajectory.batches"] += 1
    counts["trajectory.width_sum"] += width
    counts["trajectory.rep_steps"] += width * call["env"].horizon


def _count_samples(state, args, kwargs, result):
    state.counts["montecarlo.calls"] += 1
    if state.inside("diagnostics"):
        call = _named(args, kwargs, ("policy", "env", "noise", "replications"))
        probes = len(set(call.get("probe_steps", ())))
        state.counts["diagnostics.probes"] += probes * call["replications"]


TARGETS = [
    Target("kwbandit.config", "parse_config", "config.parse"),
    Target("kwbandit.config", "parse_sweep", "config.parse"),
    Target("kwbandit.config", "ExperimentConfig.build_schedule", "config.schedule", ("config.schedule_builds",), _count_schedule),
    Target("kwbandit.runner", "resolve_experiment", "runner.resolve"),
    Target("kwbandit.runner", "_write_csv", "runner.csv", ("runner.csv_rows", "runner.csv_bytes"), _csv_bytes, _csv_rows),
    Target("kwbandit.rng", "replication_stream", "rng", ("rng.streams",), _count_stream),
    Target("kwbandit.noise", "NoiseModel.draw", "noise", ("noise.draw_calls", "noise.values"), _count_draw),
    Target(
        "kwbandit.objectives",
        "ObjectiveSpec._value",
        "objectives",
        ("objectives.value_calls", "objectives.points"),
        _count_value,
        subclasses=True,
    ),
    Target(
        "kwbandit.trajectory",
        "simulate_batch",
        "trajectory",
        ("trajectory.batches", "trajectory.width_sum", "trajectory.rep_steps"),
        _count_batch,
    ),
    Target("kwbandit.montecarlo", "regret_samples", "montecarlo", ("montecarlo.calls", "diagnostics.probes"), _count_samples),
    Target("kwbandit.diagnostics", "distance_recursion_check", "diagnostics"),
    Target("kwbandit.diagnostics", "calibrate_window_constant", "diagnostics"),
]


# ---- per-layer metrics from one traced pass -----------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(snapshot: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, by name, as (value, unit).

    A metric whose span or counter could not be traced is left out.  A
    layer the workload does not reach reads 0.
    """
    absent = set(snapshot["absent_spans"]) | set(snapshot["absent_counters"])
    incl = {k: v / 1e9 for k, v in snapshot["inclusive_ns"].items()}
    own = {k: v / 1e9 for k, v in snapshot["self_ns"].items()}
    count = snapshot["counts"]

    def s(table, span):
        return table.get(span, 0.0)

    def n(name):
        return count.get(name, 0)

    # name -> (spans and counters it is built from, value, unit)
    table = {
        "config.parse_s": (("config.parse",), s(incl, "config.parse"), "s"),
        "config.schedule_builds": (("config.schedule_builds",), n("config.schedule_builds"), "count"),
        "config.schedule_s": (("config.schedule",), s(incl, "config.schedule"), "s"),
        "runner.resolve_s": (("runner.resolve",), s(incl, "runner.resolve"), "s"),
        "runner.csv_s": (("runner.csv",), s(incl, "runner.csv"), "s"),
        "runner.csv_rows": (("runner.csv_rows",), n("runner.csv_rows"), "count"),
        "runner.csv_bytes": (("runner.csv_bytes",), n("runner.csv_bytes"), "bytes"),
        "runner.csv_ns_per_row": (
            ("runner.csv", "runner.csv_rows"),
            _ratio(s(incl, "runner.csv") * 1e9, n("runner.csv_rows")),
            "ns/row",
        ),
        "rng.streams": (("rng.streams",), n("rng.streams"), "count"),
        "rng.stream_s": (("rng",), s(incl, "rng"), "s"),
        "rng.us_per_stream": (("rng", "rng.streams"), _ratio(s(incl, "rng") * 1e6, n("rng.streams")), "us/stream"),
        "noise.draw_calls": (("noise.draw_calls",), n("noise.draw_calls"), "count"),
        "noise.values": (("noise.values",), n("noise.values"), "count"),
        "noise.draw_s": (("noise",), s(incl, "noise"), "s"),
        "noise.ns_per_value": (("noise", "noise.values"), _ratio(s(incl, "noise") * 1e9, n("noise.values")), "ns/value"),
        "objectives.value_calls": (("objectives.value_calls",), n("objectives.value_calls"), "count"),
        "objectives.points": (("objectives.points",), n("objectives.points"), "count"),
        "objectives.value_s": (("objectives",), s(incl, "objectives"), "s"),
        "objectives.ns_per_point": (
            ("objectives", "objectives.points"),
            _ratio(s(incl, "objectives") * 1e9, n("objectives.points")),
            "ns/point",
        ),
        "trajectory.batches": (("trajectory.batches",), n("trajectory.batches"), "count"),
        "trajectory.rep_steps": (("trajectory.rep_steps",), n("trajectory.rep_steps"), "count"),
        "trajectory.mean_batch_width": (
            ("trajectory.batches", "trajectory.width_sum"),
            _ratio(n("trajectory.width_sum"), n("trajectory.batches")),
            "replications",
        ),
        "trajectory.self_s": (("trajectory",), s(own, "trajectory"), "s"),
        "trajectory.ns_per_rep_step": (
            ("trajectory", "trajectory.rep_steps"),
            _ratio(s(incl, "trajectory") * 1e9, n("trajectory.rep_steps")),
            "ns/rep-step",
        ),
        "montecarlo.calls": (("montecarlo.calls",), n("montecarlo.calls"), "count"),
        "montecarlo.self_s": (("montecarlo",), s(own, "montecarlo"), "s"),
        "diagnostics.self_s": (("diagnostics",), s(own, "diagnostics"), "s"),
        "diagnostics.probes": (("diagnostics.probes",), n("diagnostics.probes"), "count"),
    }
    return {name: (value, unit) for name, (needs, value, unit) in table.items() if absent.isdisjoint(needs)}


def busy_s(snapshot: dict) -> float:
    """Self time summed over every traced span: the pass's traced busy time."""
    return sum(snapshot["self_ns"].values()) / 1e9
