"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte-Carlo
criteria (04-08, 10) take a few minutes combined; every tolerance and
runtime limit is asserted, not just reported.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from kwbandit import (
    ClassConstants,
    Domain,
    EnvironmentSchedule,
    Experiment,
    FixedStepConfig,
    FixedStepPolicy,
    NoiseModel,
    QuadraticBowl,
    QuarticPerturbedBowl,
    SlidingWindowConfig,
    SlidingWindowPolicy,
    calibrate_window_constant,
    distance_recursion_check,
    fixed_step_regret_bound,
    optimal_step_size,
    optimal_window,
    parse_config,
    parse_sweep,
    regret_lanes,
    replication_stream,
    simulate_batch,
    sliding_window_regret_bound,
    verify_conditions,
)
from kwbandit import montecarlo
from kwbandit.cli import main as cli_main
from kwbandit.conditions import CURVATURE_LOWER_BOUND, GRADIENT_GROWTH, GRADIENT_LIPSCHITZ, VALUE_GAP
from kwbandit.runner import run_sweep

BOX = Domain(lower=(-2.0,), upper=(2.0,))
BOWL_LEFT = QuadraticBowl(domain=BOX, theta=(-0.5,), b=1.0)
BOWL_RIGHT = QuadraticBowl(domain=BOX, theta=(0.5,), b=1.0)
CAL_WINDOWS = (4, 8, 16, 32, 64, 128, 256, 512)
CAL_SEED = 20_250_801
SW_PERTURBATION = 0.5


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def calibrated_k5():
    """Steady-distance constant per noise level, frozen for criteria 5 and 7."""
    started = time.perf_counter()
    values = {
        sigma2: calibrate_window_constant(
            BOWL_RIGHT,
            NoiseModel.gaussian(sigma2),
            x0=(0.0,),
            windows=CAL_WINDOWS,
            replications=200,
            base_seed=CAL_SEED,
            c=SW_PERTURBATION,
        )
        for sigma2 in (0.25, 1.0)
    }
    return values, time.perf_counter() - started


@pytest.fixture(scope="module")
def window_sweep(calibrated_k5):
    """Criterion 7's sweep, shared with criterion 8."""
    k5_by_noise, cal_elapsed = calibrated_k5
    k5 = k5_by_noise[1.0]
    doc = {
        "domain": {"lower": [-2.0], "upper": [2.0]},
        "objectives": [
            {"kind": "quadratic-bowl", "theta": [-0.5], "b": 1.0, "k5": k5},
            {"kind": "quadratic-bowl", "theta": [0.5], "b": 1.0, "k5": k5},
        ],
        "schedule": {"episodes": 4},
        "noise": {"kind": "gaussian", "sigma2": 1.0},
        "algorithm": {"variant": "sliding-window", "tuning": "auto", "x0": [0.0], "c": SW_PERTURBATION},
        "horizon": 100_000,
        "replications": 100,
        "base_seed": 902,
        "sweep": {"axis": "delta_T", "values": [4, 16, 64, 256]},
    }
    started = time.perf_counter()
    points, fit = run_sweep(parse_sweep(doc))
    return points, fit, cal_elapsed + (time.perf_counter() - started)


def test_criterion_01_condition_verification():
    started = time.perf_counter()
    slowest = 0.0
    for d in (1, 2, 3):
        box = Domain(lower=(-1.5,) * d, upper=(1.5,) * d)
        bowl = QuadraticBowl(domain=box, theta=(0.3, -0.4, 0.2)[:d], b=1.5, a=0.5)
        t0 = time.perf_counter()
        rep = verify_conditions(bowl, 16)
        slowest = max(slowest, time.perf_counter() - t0)
        assert rep.all_hold, f"d={d}: derived constants must certify"
        # every constant is exactly tight on a bowl; perturbing the
        # curvature lower bound upward by 50% must be reported as failing
        consts = bowl.constants
        inflated = replace(consts, k1=1.5 * consts.k1)
        assert not verify_conditions(bowl, 16, declared=inflated).check(CURVATURE_LOWER_BOUND).holds
        # tightness evidence for the upper-bound constants: understating
        # any one of them by the same factor is reported as failing
        for name, shrunk in (
            (GRADIENT_GROWTH, replace(consts, k2=consts.k2 / 1.5)),
            (VALUE_GAP, replace(consts, k3=consts.k3 / 1.5)),
            (GRADIENT_LIPSCHITZ, replace(consts, k4=consts.k4 / 1.5)),
        ):
            assert not verify_conditions(bowl, 16, declared=shrunk).check(name).holds
    elapsed = time.perf_counter() - started
    report(
        1,
        "condition-verification",
        slowest < 1.0,
        f"d=1..3 grids certified, tight-constant perturbations fail; slowest grid {slowest:.3f}s, total {elapsed:.2f}s",
    )


def test_criterion_02_exact_noiseless_contraction():
    bowl = QuadraticBowl(domain=BOX, theta=(0.0,), b=1.0)
    policy = FixedStepPolicy(config=FixedStepConfig(beta=0.1, c=0.1, constants=bowl.constants), x0=(1.0,))
    env = EnvironmentSchedule.stationary(50, bowl)
    trace = simulate_batch(policy, env, NoiseModel.none(), [replication_stream(0, 0)], record_trace=True).trace
    iterate_errors = [abs(trace.actions[s, 0] - 0.8**s) for s in range(50)]
    iterate_errors.append(abs(trace.final_x[0] - 0.8**50))
    closed_form = (1.0 - 0.64**50) / 0.36
    regret_rel_err = abs(trace.total_regret - closed_form) / closed_form
    ok = max(iterate_errors) <= 1e-12 and regret_rel_err <= 1e-9
    report(
        2,
        "exact-noiseless-contraction",
        ok,
        f"max iterate error {max(iterate_errors):.2e} (tol 1e-12), regret rel err {regret_rel_err:.2e} (tol 1e-9)",
    )


def test_criterion_03_gradient_estimator_order():
    started = time.perf_counter()
    box = Domain(lower=(-2.0, -2.0), upper=(2.0, 2.0))
    quartic = QuarticPerturbedBowl(domain=box, theta=(0.3, -0.2), b=1.0, q=0.05)
    x = (0.8, 0.5)
    exact = quartic.gradient(x)
    errors = []
    beta = 0.0625
    for c in (0.2, 0.1, 0.05):
        # the engine's estimate y, read back from one interior fixed-step update x + beta * y
        policy = FixedStepPolicy(config=FixedStepConfig(beta=beta, c=c, constants=quartic.constants), x0=x)
        env = EnvironmentSchedule.stationary(1, quartic)
        batch = simulate_batch(policy, env, NoiseModel.none(), [replication_stream(0, 0)], record_trace=True)
        estimate = (batch.trace.final_x - np.asarray(x)) / beta
        errors.append(float(np.linalg.norm(estimate - exact)))
    ratios = (errors[0] / errors[1], errors[1] / errors[2])
    elapsed = time.perf_counter() - started
    ok = all(3.5 <= r <= 4.5 for r in ratios) and elapsed < 1.0
    report(
        3,
        "gradient-estimator-order",
        ok,
        f"halving c shrinks the error by {ratios[0]:.3f} and {ratios[1]:.3f} (need [3.5, 4.5]); {elapsed:.3f}s",
    )


def test_criterion_04_distance_recursion_monte_carlo():
    started = time.perf_counter()
    bowl = QuadraticBowl(domain=BOX, theta=(0.0,), b=1.0)
    config = FixedStepConfig(beta=0.1, c=0.1, constants=bowl.constants)
    noise = NoiseModel.gaussian(1.0)
    details = []
    ok = True
    for probe in (1, 5, 20):
        rep = distance_recursion_check(
            config, bowl, noise, x0=(1.0,), probe_step=probe, replications=10_000, base_seed=100 + probe
        )
        ok = ok and rep.holds
        details.append(f"s={probe}: lhs-gamma*rhs={rep.paired_mean:.4f} vs floor+3SE={rep.floor + 3 * rep.paired_stderr:.4f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    report(4, "distance-recursion", ok, "; ".join(details) + f"; {elapsed:.1f}s (limit 60s)")


def test_criterion_05_bound_domination(calibrated_k5):
    k5_by_noise, _ = calibrated_k5
    started = time.perf_counter()
    base_constants = ClassConstants(k1=2.0, k2=2.0, k3=1.0, k4=2.0)
    diameter = BOX.diameter
    # every cell's two experiments, simulated together through the lane API
    cells, experiments = [], []
    for sigma2 in (0.25, 1.0):
        noise = NoiseModel.gaussian(sigma2)
        k5 = k5_by_noise[sigma2]
        for horizon in (1_000, 10_000, 30_000):
            for episodes in (1, 10):
                objectives = [BOWL_RIGHT] if episodes == 1 else [BOWL_LEFT, BOWL_RIGHT]
                env = EnvironmentSchedule.evenly_spaced(horizon, episodes, objectives)
                seed = 500 + len(cells)
                window = optimal_window(k5, diameter, horizon, episodes)
                fixed = FixedStepPolicy(
                    config=FixedStepConfig(beta=0.1, c=0.5, constants=base_constants), x0=(-1.0,)
                )
                sliding = SlidingWindowPolicy(
                    config=SlidingWindowConfig(window=window, x0=(0.0,), c=SW_PERTURBATION)
                )
                experiments.append(Experiment(fixed, env, noise, 200, seed))
                experiments.append(Experiment(sliding, env, noise, 200, seed, seed_path=(1,)))
                cells.append((sigma2, horizon, episodes, window))
    samples = regret_lanes(experiments)

    worst_margin = np.inf
    for (sigma2, horizon, episodes, window), (fixed_totals, _), (sliding_totals, _) in zip(
        cells, samples[0::2], samples[1::2]
    ):
        sigma_tilde2 = NoiseModel.gaussian(sigma2).sigma_tilde2(1)
        constants = replace(base_constants, k5=k5_by_noise[sigma2])

        mean_fixed = float(np.mean(fixed_totals))
        bound_fixed = fixed_step_regret_bound(
            base_constants, diameter, sigma_tilde2, 0.1, 0.5, 0.0, horizon, episodes
        ).value
        assert mean_fixed <= bound_fixed, (
            f"fixed-step mean {mean_fixed:.1f} exceeds bound {bound_fixed:.1f} "
            f"(sigma2={sigma2}, T={horizon}, episodes={episodes})"
        )
        worst_margin = min(worst_margin, bound_fixed / mean_fixed)

        mean_sliding = float(np.mean(sliding_totals))
        bound_sliding = sliding_window_regret_bound(constants, diameter, window, horizon, episodes).value
        assert mean_sliding <= bound_sliding, (
            f"sliding-window mean {mean_sliding:.1f} exceeds bound {bound_sliding:.1f} "
            f"(sigma2={sigma2}, T={horizon}, episodes={episodes}, window={window})"
        )
        worst_margin = min(worst_margin, bound_sliding / mean_sliding)
    elapsed = time.perf_counter() - started
    ok = len(cells) == 12 and elapsed < 600.0
    report(
        5,
        "bound-domination",
        ok,
        f"12 grid cells x 2 variants dominated; worst bound/mean margin {worst_margin:.2f}x; {elapsed:.1f}s (limit 600s)",
    )


def test_criterion_06_stationary_scaling():
    started = time.perf_counter()
    doc = {
        "domain": {"lower": [-2.0], "upper": [2.0]},
        "objectives": [{"kind": "quadratic-bowl", "theta": [0.5], "b": 1.0}],
        "schedule": {"episodes": 1},
        "noise": {"kind": "gaussian", "sigma2": 1.0},
        "algorithm": {"variant": "fixed-step", "tuning": "auto", "x0": [-0.5]},
        "horizon": 1_000,
        "replications": 200,
        "base_seed": 901,
        "sweep": {"axis": "T", "values": [1_000, 10_000, 100_000]},
    }
    _, fit = run_sweep(parse_sweep(doc))
    elapsed = time.perf_counter() - started
    ok = -0.48 <= fit.slope <= -0.20 and elapsed < 900.0
    report(
        6,
        "stationary-step-scaling",
        ok,
        f"fitted slope {fit.slope:.3f} (need [-0.48, -0.20], target -1/3), r2={fit.r_squared:.3f}; "
        f"{elapsed:.1f}s (limit 900s)",
    )


def test_criterion_07_nonstationary_window_scaling(window_sweep):
    points, fit, elapsed = window_sweep
    ok = 0.18 <= fit.slope <= 0.48 and elapsed < 1200.0
    windows = [p.window for p in points]
    report(
        7,
        "nonstationary-window-scaling",
        ok,
        f"fitted slope {fit.slope:.3f} (need [0.18, 0.48], target 1/3), r2={fit.r_squared:.3f}, "
        f"auto windows {windows}; {elapsed:.1f}s incl. calibration (limit 1200s)",
    )


def test_criterion_08_asymptotic_efficiency_trend(window_sweep):
    points, _, _ = window_sweep
    # points are ordered by increasing change count; reading them in
    # decreasing change-rate order the per-step regret must strictly drop
    normalized = [p.normalized_regret for p in points]
    ok = all(a < b for a, b in zip(normalized, normalized[1:]))
    report(
        8,
        "asymptotic-efficiency-trend",
        ok,
        "per-step regret strictly decreasing toward stationarity: "
        + " > ".join(f"{v:.5f}" for v in reversed(normalized)),
    )


def test_criterion_09_tuning_calculators():
    beta = optimal_step_size(2.0, 4.0, 1.0, 1000, 8)
    window = optimal_window(16.0, 1.0, 1000, 8)
    consts = ClassConstants(k1=1.0, k2=1.0, k3=1.0, k4=1.0, k5=16.0)
    raw = (16.0 / (2.0 * 1.0) * 1000 / 8) ** (2.0 / 3.0)
    bound = sliding_window_regret_bound(consts, 1.0, window=raw, horizon=1000, episodes=8)
    ratio = bound.term("tracking") / bound.term("switching")
    ok = beta == pytest.approx(0.2, abs=1e-12) and window == 100 and ratio == pytest.approx(2.0, abs=1e-9)
    report(
        9,
        "tuning-calculators",
        ok,
        f"step size {beta!r} (expect 0.2), window {window} (expect 100), term ratio {ratio:.12f} (expect 2)",
    )


def test_criterion_10_determinism_across_chunking(tmp_path, monkeypatch):
    import json

    doc = {
        "domain": {"lower": [-2.0], "upper": [2.0]},
        "objectives": [{"kind": "quadratic-bowl", "theta": [0.5], "b": 1.0}],
        "noise": {"kind": "gaussian", "sigma2": 1.0},
        "algorithm": {"variant": "fixed-step", "beta": 0.1, "c": 0.5, "x0": [-1.0]},
        "horizon": 500,
        "replications": 130,
        "base_seed": 31,
    }
    config_path = tmp_path / "determinism.json"
    config_path.write_text(json.dumps(doc))
    assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "whole")]) == 0
    monkeypatch.setattr(montecarlo, "REPLICATION_CHUNK", 8)  # 130 replications in 17 chunks
    assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "chunked")]) == 0
    same = all(
        (tmp_path / "whole" / name).read_bytes() == (tmp_path / "chunked" / name).read_bytes()
        for name in ("trace.csv", "summary.csv")
    )
    report(
        10,
        "determinism-across-chunking",
        same,
        "trace.csv and summary.csv byte-identical with one chunk and with chunks of 8 replications",
    )
