import numpy as np
import pytest

from kwbandit import (
    EnvironmentSchedule,
    FixedStepConfig,
    FixedStepPolicy,
    NoiseModel,
    monte_carlo_regret,
    regret_samples,
)


@pytest.fixture
def setup(bowl):
    env = EnvironmentSchedule.stationary(40, bowl)
    policy = FixedStepPolicy(config=FixedStepConfig(beta=0.1, c=0.2, constants=bowl.constants), x0=(1.0,))
    return policy, env


def test_noiseless_runs_have_zero_standard_error(setup, no_noise):
    policy, env = setup
    estimate = monte_carlo_regret(policy, env, no_noise, replications=8, base_seed=1)
    assert estimate.standard_error == 0.0
    assert estimate.replications == 8


def test_bitwise_reproducibility(setup):
    policy, env = setup
    noise = NoiseModel.gaussian(1.0)
    a = monte_carlo_regret(policy, env, noise, replications=16, base_seed=5)
    b = monte_carlo_regret(policy, env, noise, replications=16, base_seed=5)
    assert a.mean == b.mean and a.standard_error == b.standard_error


def test_doubling_replications_preserves_prefix(setup):
    policy, env = setup
    noise = NoiseModel.gaussian(1.0)
    small, _, _ = regret_samples(policy, env, noise, 20, base_seed=5)
    large, _, _ = regret_samples(policy, env, noise, 40, base_seed=5)
    assert np.array_equal(small, large[:20])


def test_chunk_size_does_not_change_samples(setup, monkeypatch):
    policy, env = setup
    noise = NoiseModel.gaussian(1.0)
    full, _, _ = regret_samples(policy, env, noise, 30, base_seed=5)
    import kwbandit.montecarlo as mc

    monkeypatch.setattr(mc, "REPLICATION_CHUNK", 7)
    chunked, _, _ = regret_samples(policy, env, noise, 30, base_seed=5)
    assert np.array_equal(full, chunked)


def test_seed_paths_give_independent_streams(setup):
    policy, env = setup
    noise = NoiseModel.gaussian(1.0)
    a, _, _ = regret_samples(policy, env, noise, 5, base_seed=5, seed_path=(0,))
    b, _, _ = regret_samples(policy, env, noise, 5, base_seed=5, seed_path=(1,))
    assert not np.array_equal(a, b)


def test_mean_matches_sample_average(setup):
    policy, env = setup
    noise = NoiseModel.gaussian(1.0)
    samples, _, _ = regret_samples(policy, env, noise, 25, base_seed=3)
    estimate = monte_carlo_regret(policy, env, noise, replications=25, base_seed=3)
    assert estimate.mean == float(np.mean(samples))
    assert estimate.standard_error == pytest.approx(np.std(samples, ddof=1) / 5.0, rel=1e-12)


def test_requires_two_replications(setup, no_noise):
    policy, env = setup
    with pytest.raises(ValueError, match=">= 2"):
        monte_carlo_regret(policy, env, no_noise, replications=1, base_seed=0)


def test_confidence_helpers(setup, no_noise):
    policy, env = setup
    estimate = monte_carlo_regret(policy, env, no_noise, replications=2, base_seed=0)
    assert estimate.lower_confidence() == estimate.mean
