"""Finite-difference stochastic-approximation bandit simulator.

A library and CLI for running derivative-free ascent rules (decaying-step,
fixed-step, and finite-memory windowed variants) against synthetic
piecewise-stationary objectives, measuring regret by Monte-Carlo
replication, and evaluating the matching theoretical bounds and tuning
formulas.
"""

from .algorithms import FixedStepConfig, SlidingWindowConfig, decaying_schedule
from .bounds import (
    BoundReport,
    expected_distance_bound,
    fixed_step_normalized_bound,
    fixed_step_regret_bound,
    sliding_window_episode_bound,
    sliding_window_normalized_bound,
    sliding_window_regret_bound,
)
from .conditions import ConditionReport, verify_conditions
from .config import ExperimentConfig, SweepSpec, parse_config, parse_sweep
from .diagnostics import RecursionCheckReport, calibrate_window_constant, distance_recursion_check
from .domain import Domain
from .exceptions import (
    ConfigValidationError,
    ContractionViolationError,
    DomainViolationError,
    KWBanditError,
    MeanValueConditionError,
)
from .montecarlo import Experiment, MonteCarloEstimate, regret_lanes, regret_samples
from .noise import NoiseModel
from .objectives import ClassConstants, ObjectiveSpec, QuadraticBowl, QuarticPerturbedBowl
from .rng import RandomStream, replication_stream
from .runner import run_experiment, run_sweep
from .scaling import fit_scaling_exponent
from .schedule import EnvironmentSchedule
from .traces import RegretTrace
from .trajectory import (
    FixedStepPolicy,
    Lane,
    OraclePolicy,
    SlidingWindowPolicy,
    StaticPolicy,
    VanillaPolicy,
    simulate_batch,
    simulate_lanes,
)
from .tuning import (
    contraction_factor,
    coupled_perturbation,
    error_floor,
    optimal_step_size,
    optimal_window,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ClassConstants",
    "ConditionReport",
    "ConfigValidationError",
    "ContractionViolationError",
    "Domain",
    "DomainViolationError",
    "EnvironmentSchedule",
    "Experiment",
    "ExperimentConfig",
    "FixedStepConfig",
    "FixedStepPolicy",
    "KWBanditError",
    "Lane",
    "MeanValueConditionError",
    "MonteCarloEstimate",
    "NoiseModel",
    "ObjectiveSpec",
    "OraclePolicy",
    "QuadraticBowl",
    "QuarticPerturbedBowl",
    "RandomStream",
    "RecursionCheckReport",
    "RegretTrace",
    "SlidingWindowConfig",
    "SlidingWindowPolicy",
    "StaticPolicy",
    "SweepSpec",
    "VanillaPolicy",
    "calibrate_window_constant",
    "contraction_factor",
    "coupled_perturbation",
    "decaying_schedule",
    "distance_recursion_check",
    "error_floor",
    "expected_distance_bound",
    "fit_scaling_exponent",
    "fixed_step_normalized_bound",
    "fixed_step_regret_bound",
    "optimal_step_size",
    "optimal_window",
    "parse_config",
    "parse_sweep",
    "regret_lanes",
    "regret_samples",
    "replication_stream",
    "run_experiment",
    "run_sweep",
    "simulate_batch",
    "simulate_lanes",
    "sliding_window_episode_bound",
    "sliding_window_normalized_bound",
    "sliding_window_regret_bound",
    "verify_conditions",
]
