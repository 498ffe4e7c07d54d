"""Finite-difference stochastic-approximation bandit simulator.

A library and CLI for running derivative-free ascent rules (decaying-step,
fixed-step, and finite-memory windowed variants) against synthetic
piecewise-stationary objectives, measuring regret by Monte-Carlo
replication, and evaluating the matching theoretical bounds and tuning
formulas.

``import kwbandit`` loads the simulation library: ``diagnostics`` and the
modules it imports, which hold the engine.  The config parser, the CSV
drivers, the bound evaluators, the condition grids and the exponent fit
load the first time one of their names, or their module, is read from the
package (PEP 562), so a caller of the diagnostics does not pay for them.
The diagnostics and the engine stay eager: the benchmark's tracer
(``perfbench/tracer.py``) patches only the modules loaded when it
installs, and a deferred import would land in the first call's latency.
"""

import importlib

__version__ = "0.1.0"

# Every module of the package, with the public names it gives the package:
# the one source of ``__all__``, ``dir()`` and the lookup of deferred names.
_PUBLIC = {
    "algorithms": ("FixedStepConfig", "SlidingWindowConfig", "decaying_schedule"),
    "bounds": (
        "BoundReport",
        "expected_distance_bound",
        "fixed_step_normalized_bound",
        "fixed_step_regret_bound",
        "sliding_window_episode_bound",
        "sliding_window_normalized_bound",
        "sliding_window_regret_bound",
    ),
    "cli": (),
    "conditions": ("ConditionReport", "verify_conditions"),
    "config": ("ExperimentConfig", "SweepSpec", "parse_config", "parse_sweep"),
    "diagnostics": ("RecursionCheckReport", "calibrate_window_constant", "distance_recursion_check"),
    "domain": ("Domain",),
    "exceptions": (
        "ConfigValidationError",
        "ContractionViolationError",
        "DomainViolationError",
        "KWBanditError",
        "MeanValueConditionError",
    ),
    "montecarlo": ("Experiment", "MonteCarloEstimate", "regret_lanes", "regret_samples"),
    "noise": ("NoiseModel",),
    "noiseworker": (),
    "objectives": ("ClassConstants", "ObjectiveSpec", "QuadraticBowl", "QuarticPerturbedBowl"),
    "records": (),
    "rng": ("RandomStream", "replication_stream"),
    "runner": ("run_experiment", "run_sweep"),
    "scaling": ("fit_scaling_exponent",),
    "schedule": ("EnvironmentSchedule",),
    "steploop": (),
    "traces": ("RegretTrace",),
    "tracewriter": (),
    "trajectory": (
        "FixedStepPolicy",
        "Lane",
        "OraclePolicy",
        "SlidingWindowPolicy",
        "StaticPolicy",
        "VanillaPolicy",
        "simulate_batch",
        "simulate_lanes",
    ),
    "tuning": ("contraction_factor", "coupled_perturbation", "error_floor", "optimal_step_size", "optimal_window"),
}
# Loaded on first use; ``import kwbandit`` loads every other module, which
# is the diagnostics and what they import.
_DEFERRED = {"bounds", "cli", "conditions", "config", "noiseworker", "runner", "scaling", "tracewriter"}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC, *__all__})


for _name, _module in _HOME.items():
    if _module not in _DEFERRED:
        __getattr__(_name)
del _name, _module
