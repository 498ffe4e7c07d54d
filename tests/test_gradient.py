"""The engine's central-difference estimator, read back through one
fixed-step update: inside the box x1 = x + beta * y, so y = (x1 - x) / beta."""

import numpy as np
import pytest

from kwbandit import (
    EnvironmentSchedule,
    FixedStepConfig,
    FixedStepPolicy,
    NoiseModel,
    QuadraticBowl,
    SlidingWindowConfig,
    replication_stream,
    simulate_batch,
)
from kwbandit.rng import StreamChunk

BETA = 0.0625


def one_step(f, noise, x, c, rng):
    """(estimate y, trace) of one fixed-step update from x in ``simulate_batch``."""
    policy = FixedStepPolicy(config=FixedStepConfig(beta=BETA, c=c, constants=f.constants), x0=x)
    trace = simulate_batch(policy, EnvironmentSchedule.stationary(1, f), noise, [rng], record_trace=True).trace
    return (trace.final_x - np.asarray(x)) / BETA, trace


def test_exact_on_quadratic(bowl, no_noise):
    y, trace = one_step(bowl, no_noise, (1.0,), 0.1, replication_stream(0, 0))
    # (-1.21 - (-0.81)) / 0.2
    assert y[0] == pytest.approx(-2.0, abs=1e-12)
    assert not trace.boundary_contact[0]


def test_zero_at_maximizer(bowl, no_noise):
    for c in (0.05, 0.2, 1.0):
        y, _ = one_step(bowl, no_noise, (0.0,), c, replication_stream(0, 0))
        assert y[0] == pytest.approx(0.0, abs=1e-14)


def test_componentwise_on_anisotropic_surface(box2d, no_noise):
    # separable quadratic with distinct curvatures via theta placement:
    # f = -((x1)^2 + 2(x2)^2) is emulated with b=1 bowl plus a direct check
    # of per-axis central differences on an explicit callable oracle.
    class Aniso(QuadraticBowl):
        def _value(self, x, out=None):
            return np.negative(x[..., 0] ** 2 + 2.0 * x[..., 1] ** 2, out=out)

        def _gradient(self, x):
            return np.stack([-2.0 * x[..., 0], -4.0 * x[..., 1]], axis=-1)

    f = Aniso(domain=box2d, theta=(0.0, 0.0), b=1.0)
    y, _ = one_step(f, NoiseModel.none(), (1.0, 1.0), 0.1, replication_stream(0, 0))
    assert tuple(y) == pytest.approx((-2.0, -4.0), abs=1e-12)
    assert tuple(y) == pytest.approx(tuple(f.gradient((1.0, 1.0))), abs=1e-12)


def test_identity_between_samples_and_vector(bowl, no_noise):
    x, c = 0.7, 0.05
    _, trace = one_step(bowl, no_noise, (x,), c, replication_stream(1, 0))
    plus, minus = bowl.evaluate((x + c,)), bowl.evaluate((x - c,))
    assert trace.final_x[0] == x + BETA * ((plus - minus) / (2 * c))


def test_boundary_contact_flagged(bowl, no_noise):
    y, trace = one_step(bowl, no_noise, (1.95,), 0.1, replication_stream(0, 0))
    assert trace.boundary_contact[0]
    # clamped plus-sample measured at the wall x = 2
    assert y[0] == pytest.approx((bowl.evaluate((2.0,)) - bowl.evaluate((1.85,))) / 0.2, abs=1e-12)


def test_second_order_accuracy_on_quartic(quartic, no_noise):
    x = (1.2,)
    exact = quartic.gradient(x)
    errors = []
    for c in (0.2, 0.1, 0.05):
        y, _ = one_step(quartic, no_noise, x, c, replication_stream(0, 0))
        errors.append(abs(y[0] - exact[0]))
    assert 3.5 <= errors[0] / errors[1] <= 4.5
    assert 3.5 <= errors[1] / errors[2] <= 4.5
    # the offset bound covers the realized error: |error| = 4*q*c^2*r
    for c, err in zip((0.2, 0.1, 0.05), errors):
        assert err <= quartic.mean_value_offset(c) * quartic.constants.k4


def test_noisy_estimates_are_unbiased(box1d):
    # One batch of n one-step replications.  theta sits on the lower wall,
    # so x1 - theta >= 0 and the horizon + 1 probe ||x1 - theta||**2 gives
    # back x1; no x1 comes near a wall, so none is clamped.
    f = QuadraticBowl(domain=box1d, theta=(-2.0,), b=1.0)
    noise = NoiseModel.gaussian(1.0)
    x, c = 0.5, 0.2
    clean = f.gradient((x,))[0]  # the noiseless central difference on a quadratic
    n = 100_000
    policy = FixedStepPolicy(config=FixedStepConfig(beta=BETA, c=c, constants=f.constants), x0=(x,))
    env = EnvironmentSchedule.stationary(1, f)
    probe = simulate_batch(policy, env, noise, list(StreamChunk(42, n)), probe_steps=(2,)).distance_probes[2]
    draws = (f.theta[0] + np.sqrt(probe) - x) / BETA
    # per-estimate noise variance is 2*sigma^2/(2c)^2
    se = np.sqrt(2.0 / (2 * c) ** 2 / n)
    assert abs(draws.mean() - clean) < 3 * se


def test_rng_consumption_is_axis_major(box2d):
    # plus before minus, axis 0 before axis 1
    noise = NoiseModel.gaussian(1.0)
    f = QuadraticBowl(domain=box2d, theta=(0.0, 0.0), b=1.0)
    x, c = (0.5, -0.5), 0.1
    y, _ = one_step(f, noise, x, c, replication_stream(3, 1))
    draws = noise.draw(replication_stream(3, 1), 4)
    plus = (f.evaluate((0.6, -0.5)) + draws[0], f.evaluate((0.5, -0.4)) + draws[2])
    minus = (f.evaluate((0.4, -0.5)) + draws[1], f.evaluate((0.5, -0.6)) + draws[3])
    assert tuple(y) == pytest.approx(tuple((p - m) / (2 * c) for p, m in zip(plus, minus)), abs=1e-12)


def test_rejects_bad_inputs(bowl):
    # the estimator's perturbation c comes only from the rule configs
    with pytest.raises(ValueError, match="c must be > 0"):
        FixedStepConfig(beta=0.1, c=0.0, constants=bowl.constants)
    with pytest.raises(ValueError, match="c must be > 0"):
        SlidingWindowConfig(window=4, x0=(0.0,), c=0.0)
