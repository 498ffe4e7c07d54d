import gc
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kwbandit.montecarlo as mc
import kwbandit.trajectory as traj
from kwbandit import (
    EnvironmentSchedule,
    Experiment,
    FixedStepConfig,
    FixedStepPolicy,
    MonteCarloEstimate,
    NoiseModel,
    calibrate_window_constant,
    distance_recursion_check,
    parse_config,
    parse_sweep,
    regret_samples,
    run_experiment,
    simulate_batch,
    simulate_lanes,
)
from kwbandit.rng import StreamChunk
from kwbandit.runner import resolve_experiment


@pytest.fixture
def setup(bowl):
    env = EnvironmentSchedule.stationary(40, bowl)
    policy = FixedStepPolicy(config=FixedStepConfig(beta=0.1, c=0.2, constants=bowl.constants), x0=(1.0,))
    return policy, env


def monte_carlo_estimate(policy, env, noise, replications, base_seed):
    """The mean and standard error of ``regret_samples``, as ``run`` and ``bounds --check`` take them."""
    totals, _ = regret_samples(policy, env, noise, replications, base_seed)
    return MonteCarloEstimate.from_samples(totals)


def test_noiseless_runs_have_zero_standard_error(setup, no_noise):
    policy, env = setup
    totals, _ = regret_samples(policy, env, no_noise, 8, base_seed=1)
    estimate = MonteCarloEstimate.from_samples(totals)
    assert estimate.standard_error == 0.0
    assert len(totals) == 8


def test_bitwise_reproducibility(setup):
    policy, env = setup
    noise = NoiseModel.gaussian(1.0)
    a = monte_carlo_estimate(policy, env, noise, replications=16, base_seed=5)
    b = monte_carlo_estimate(policy, env, noise, replications=16, base_seed=5)
    assert a.mean == b.mean and a.standard_error == b.standard_error


def test_doubling_replications_preserves_prefix(setup):
    policy, env = setup
    noise = NoiseModel.gaussian(1.0)
    small, _ = regret_samples(policy, env, noise, 20, base_seed=5)
    large, _ = regret_samples(policy, env, noise, 40, base_seed=5)
    assert np.array_equal(small, large[:20])


def test_chunk_size_does_not_change_samples(setup, monkeypatch):
    policy, env = setup
    noise = NoiseModel.gaussian(1.0)
    full, _ = regret_samples(policy, env, noise, 30, base_seed=5)
    monkeypatch.setattr(mc, "REPLICATION_CHUNK", 7)
    chunked, _ = regret_samples(policy, env, noise, 30, base_seed=5)
    assert np.array_equal(full, chunked)


def test_seed_paths_give_independent_streams(setup):
    policy, env = setup
    noise = NoiseModel.gaussian(1.0)
    a, _ = regret_samples(policy, env, noise, 5, base_seed=5, seed_path=(0,))
    b, _ = regret_samples(policy, env, noise, 5, base_seed=5, seed_path=(1,))
    assert not np.array_equal(a, b)


def test_mean_matches_sample_average(setup):
    policy, env = setup
    noise = NoiseModel.gaussian(1.0)
    samples, _ = regret_samples(policy, env, noise, 25, base_seed=3)
    estimate = monte_carlo_estimate(policy, env, noise, replications=25, base_seed=3)
    assert estimate.mean == float(np.mean(samples))
    assert estimate.standard_error == pytest.approx(np.std(samples, ddof=1) / 5.0, rel=1e-12)


def test_confidence_helpers(setup, no_noise):
    policy, env = setup
    estimate = monte_carlo_estimate(policy, env, no_noise, replications=2, base_seed=0)
    assert estimate.lower_confidence() == estimate.mean


def test_regret_lanes_batches_only_experiments_of_one_horizon(monkeypatch):
    """The points of a delta_T sweep shaped like ``configs/window_sweep.json``
    share one horizon, so their 400 rows run as one ``simulate_lanes`` call;
    the same experiment at unequal horizons runs as one-lane
    ``simulate_batch`` calls, one per horizon."""
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs/window_sweep.json").read_text())
    sweep = parse_sweep({**doc, "horizon": 2000})
    points = [resolve_experiment(sweep.config_for(value)) for value in sweep.values]
    calls = []

    def lanes_call(lanes, noise):
        calls.append(("lanes", [(lane.env.horizon, len(lane.rngs)) for lane in lanes]))
        return simulate_lanes(lanes, noise)

    def batch_call(policy, env, noise, rngs, *args):
        calls.append(("batch", [(env.horizon, len(rngs))]))
        return simulate_batch(policy, env, noise, rngs, *args)

    monkeypatch.setattr(mc, "simulate_lanes", lanes_call)
    monkeypatch.setattr(mc, "simulate_batch", batch_call)
    mc.regret_lanes([Experiment(p.policy, p.env, p.noise, 100, 902, seed_path=(i,)) for i, p in enumerate(points)])
    assert calls == [("lanes", [(2000, 100)] * 4)]

    calls.clear()
    unequal = [resolve_experiment(replace(sweep.base, horizon=horizon)) for horizon in (2000, 1000, 3000)]
    mc.regret_lanes([Experiment(p.policy, p.env, p.noise, 20, 902) for p in unequal])
    assert calls == [("batch", [(2000, 20)]), ("batch", [(1000, 20)]), ("batch", [(3000, 20)])]


ONE_BLOCK_CASES = pytest.mark.parametrize(
    "block_values, alive", [(None, range(1, 4)), (1000, [64])], ids=["one-block", "several-blocks"]
)


@ONE_BLOCK_CASES
def test_a_one_block_batch_holds_one_stream_at_a_time(bowl, block_values, alive, tmp_path, monkeypatch):
    """A batch whose noise fits one block draws from each stream once, so
    it builds, draws and drops the streams one by one (a loop variable or
    two may still hold the last); a batch of several blocks keeps all of
    them until its last block."""
    assert_streams_alive(bowl, block_values, alive, tmp_path, monkeypatch)


@ONE_BLOCK_CASES
def test_a_noise_worker_holds_its_streams_as_the_loop_would(
    bowl, block_values, alive, tmp_path, monkeypatch, worker_forks
):
    """A forked noise worker holds the streams as the in-process batch
    does, and builds every one of them: the parent builds none."""
    chunk_iter, builders = StreamChunk.__iter__, tmp_path / "builders"

    def logged_iter(chunk):
        with open(builders, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return chunk_iter(chunk)

    monkeypatch.setattr(StreamChunk, "__iter__", logged_iter)
    assert_streams_alive(bowl, block_values, alive, tmp_path, monkeypatch)
    assert len(worker_forks) == 1
    assert builders.read_text().split() == [str(worker_forks[0])]


def assert_streams_alive(bowl, block_values, alive, tmp_path, monkeypatch):
    """Runs 64 replications in one batch and checks the generators alive
    when the fill draws its last row, logged to a file that a forked noise
    worker's fill reaches too."""
    env = EnvironmentSchedule.stationary(40, bowl)
    policy = FixedStepPolicy(config=FixedStepConfig(beta=0.1, c=0.2, constants=bowl.constants), x0=(1.0,))
    fill, log = NoiseModel.fill, tmp_path / "alive"

    def live_streams():
        return sum(type(o) is np.random.Generator for o in gc.get_objects())

    def counted_fill(self, rngs, out):
        def streams():
            for i, rng in enumerate(rngs):
                if i == len(out) - 1:
                    with open(log, "a") as handle:
                        handle.write(f"{live_streams() - before}\n")
                yield rng

        return fill(self, streams(), out)

    monkeypatch.setattr(mc, "REPLICATION_CHUNK", 64)
    if block_values:  # 64 rows of 5 values a step: three steps a block
        monkeypatch.setattr(traj, "_NOISE_BLOCK_VALUES", block_values)
    monkeypatch.setattr(NoiseModel, "fill", counted_fill)
    before = live_streams()
    regret_samples(policy, env, NoiseModel.gaussian(1.0), 64, base_seed=2)
    counts = [int(count) for count in log.read_text().split()] if log.exists() else []
    assert counts and all(count in alive for count in counts)


def test_only_large_batches_fork_a_noise_worker(bowl, quartic, forks, tmp_path):
    """The benchmark's shapes: the diagnostics' wide, short batches (three
    recursion checks at 10,000 replications, a window calibration at 200)
    and a one-replication traced run over 30,000 steps in d = 2 draw their
    noise in-process; the smallest point of a 192-replication horizon sweep
    forks one worker."""
    config = FixedStepConfig(beta=0.1, c=0.1, constants=bowl.constants)
    for probe in (1, 5, 20):
        distance_recursion_check(config, bowl, NoiseModel.gaussian(0.5), (1.0,), probe, 10_000, base_seed=probe)
    calibrate_window_constant(quartic, NoiseModel.gaussian(0.5), (1.0,), (4, 8, 16, 32, 64, 128), 200, 3, c=0.5)
    objectives = [
        {"kind": "quartic-perturbed-bowl", "theta": [0.1 * k, -0.1 * k], "b": 1.0, "q": 0.05} for k in range(8)
    ]
    run = {
        "domain": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
        "objectives": objectives,
        "schedule": {"episodes": 8},
        "noise": {"kind": "uniform-bounded", "sigma2": 0.3},
        "algorithm": {"variant": "vanilla", "x0": [1.0, -1.0]},
        "horizon": 30_000,
        "replications": 1,
        "base_seed": 3,
    }
    run_experiment(parse_config(json.dumps(run)), out_dir=tmp_path)
    assert forks == []
    policy = FixedStepPolicy(config=config, x0=(1.0,))
    regret_samples(policy, EnvironmentSchedule.stationary(1000, bowl), NoiseModel.gaussian(0.5), 192, base_seed=4)
    assert len(forks) == 1
