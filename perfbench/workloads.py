"""Workload inputs for the kwbandit benchmark, generated from a seed.

The seed only chooses values (optima, starting points, noise levels,
stream seeds); it never changes how much work a workload does, so runs on
different seeds measure the same amount of simulation.  Every value is
rounded before it is written, so the inputs are plain JSON that any run
reproduces exactly.
"""

from __future__ import annotations

import random

SWEEP_STATIONARY = "sweep-stationary"
RUN_TRACE = "run-trace"
DIAGNOSTICS_WIDE = "diagnostics-wide"
WORKLOADS = (SWEEP_STATIONARY, RUN_TRACE, DIAGNOSTICS_WIDE)

DEFAULT_SEED = 0
HELD_OUT_SEED = 1

# sweep-stationary: three horizon points, three 64-replication chunks each.
SWEEP_HORIZONS = (1_000, 4_000, 20_000)
SWEEP_REPLICATIONS = 192

# run-trace: one replication, d=2, eight episodes.
TRACE_HORIZON = 30_000
TRACE_EPISODES = 8

# diagnostics-wide: rounds of three recursion checks and one calibration.
DIAG_ROUNDS = 3
CHECK_PROBES = (1, 5, 20)
CHECK_REPLICATIONS = 10_000
CAL_WINDOWS = (4, 8, 16, 32, 64, 128)
CAL_REPLICATIONS = 200
CAL_EPOCHS = 3
CAL_PERTURBATION = 0.5

BOX = (-2.0, 2.0)


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _stream_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def sweep_stationary(seed: int) -> dict:
    """`kwbandit sweep` over a horizon axis: fixed-step, auto tuning, d=1,
    Gaussian noise."""
    rng = random.Random(f"{SWEEP_STATIONARY}/{seed}")
    config = {
        "domain": {"lower": [BOX[0]], "upper": [BOX[1]]},
        "objectives": [{"kind": "quadratic-bowl", "theta": [_uniform(rng, -1.0, 1.0)], "b": 1.0}],
        "schedule": {"episodes": 1},
        "noise": {"kind": "gaussian", "sigma2": _uniform(rng, 0.25, 1.0)},
        "algorithm": {"variant": "fixed-step", "tuning": "auto", "x0": [_uniform(rng, -1.5, 1.5)]},
        "horizon": SWEEP_HORIZONS[0],
        "replications": SWEEP_REPLICATIONS,
        "base_seed": _stream_seed(rng),
        "sweep": {"axis": "T", "values": list(SWEEP_HORIZONS)},
    }
    return {
        "kind": "cli",
        "command": "sweep",
        "config": config,
        "outputs": ["exponent_fit.csv", "sweep_summary.csv"],
        "rep_steps": SWEEP_REPLICATIONS * sum(SWEEP_HORIZONS),
    }


def run_trace(seed: int) -> dict:
    """`kwbandit run` with one replication over a long horizon: vanilla rule,
    d=2 quartic-perturbed bowls, uniform-bounded noise, eight episodes."""
    rng = random.Random(f"{RUN_TRACE}/{seed}")
    objectives = [
        {
            "kind": "quartic-perturbed-bowl",
            "theta": [_uniform(rng, -1.0, 1.0), _uniform(rng, -1.0, 1.0)],
            "b": 1.0,
            "q": _uniform(rng, 0.02, 0.08),
        }
        for _ in range(TRACE_EPISODES)
    ]
    config = {
        "domain": {"lower": [BOX[0]] * 2, "upper": [BOX[1]] * 2},
        "objectives": objectives,
        "schedule": {"episodes": TRACE_EPISODES},
        "noise": {"kind": "uniform-bounded", "sigma2": _uniform(rng, 0.1, 0.5)},
        "algorithm": {"variant": "vanilla", "x0": [_uniform(rng, -1.5, 1.5), _uniform(rng, -1.5, 1.5)]},
        "horizon": TRACE_HORIZON,
        "replications": 1,
        "base_seed": _stream_seed(rng),
    }
    return {
        "kind": "cli",
        "command": "run",
        "config": config,
        "outputs": ["summary.csv", "trace.csv"],
        "rep_steps": TRACE_HORIZON,
    }


def diagnostics_wide(seed: int) -> dict:
    """A closed loop of library calls: `distance_recursion_check` at 10,000
    replications on short probe steps, and `calibrate_window_constant` with
    probes on every step."""
    rng = random.Random(f"{DIAGNOSTICS_WIDE}/{seed}")
    check = {
        "theta": _uniform(rng, -1.0, 1.0),
        "x0": _uniform(rng, -1.5, 1.5),
        "beta": _uniform(rng, 0.05, 0.15),
        "c": _uniform(rng, 0.05, 0.2),
        "sigma2": _uniform(rng, 0.25, 1.0),
        "replications": CHECK_REPLICATIONS,
    }
    calibrate = {
        "theta": _uniform(rng, -1.0, 1.0),
        "x0": _uniform(rng, -1.5, 1.5),
        "c": CAL_PERTURBATION,
        "sigma2": _uniform(rng, 0.25, 1.0),
        "windows": list(CAL_WINDOWS),
        "replications": CAL_REPLICATIONS,
        "epochs": CAL_EPOCHS,
    }
    calls = []
    for _ in range(DIAG_ROUNDS):
        for probe in CHECK_PROBES:
            calls.append({"fn": "distance_recursion_check", "probe_step": probe, "base_seed": _stream_seed(rng)})
        calls.append({"fn": "calibrate_window_constant", "base_seed": _stream_seed(rng)})
    rep_steps_per_round = CHECK_REPLICATIONS * sum(CHECK_PROBES) + CAL_REPLICATIONS * CAL_EPOCHS * sum(CAL_WINDOWS)
    return {
        "kind": "library",
        "box": list(BOX),
        "check": check,
        "calibrate": calibrate,
        "calls": calls,
        "rep_steps": DIAG_ROUNDS * rep_steps_per_round,
    }


_BUILDERS = {SWEEP_STATIONARY: sweep_stationary, RUN_TRACE: run_trace, DIAGNOSTICS_WIDE: diagnostics_wide}


def make_inputs(workload: str, seed: int) -> dict:
    """The inputs of one workload: a pure function of (workload, seed)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _BUILDERS[workload](int(seed))
