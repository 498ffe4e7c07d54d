"""Step-rule behaviour, measured on ``simulate_batch``.  Every run is
noiseless on quadratics, where the central difference is the gradient up
to rounding, and exact when every point is dyadic."""

import sys

import numpy as np
import pytest

import kwbandit.trajectory as traj
import reference
from kwbandit import (
    ContractionViolationError,
    Domain,
    EnvironmentSchedule,
    FixedStepConfig,
    FixedStepPolicy,
    NoiseModel,
    QuadraticBowl,
    SlidingWindowConfig,
    SlidingWindowPolicy,
    VanillaPolicy,
    decaying_schedule,
    replication_stream,
    simulate_batch,
)


def noiseless_trace(policy, *objectives, horizon=None):
    """Trace of one noiseless replication: objective k serves step k and
    the last one every later step up to ``horizon``."""
    env = EnvironmentSchedule(
        horizon=horizon or len(objectives),
        change_times=tuple(range(1, len(objectives) + 1)),
        objectives=objectives,
    )
    return simulate_batch(policy, env, NoiseModel.none(), [replication_stream(0, 0)], record_trace=True).trace


class TestVanillaStep:
    def test_first_step_full_rate(self, bowl):
        # c = 1 at step 1: (f(2) - f(0)) / 2 = -2
        trace = noiseless_trace(VanillaPolicy(x0=(1.0,)), bowl)
        assert trace.final_x == pytest.approx((-1.0,), abs=1e-15)

    def test_zero_estimate_is_fixed_point(self, box1d):
        f = QuadraticBowl(domain=box1d, theta=(0.75,), b=1.0)
        trace = noiseless_trace(VanillaPolicy(x0=(0.75,)), f)
        assert trace.final_x[0] == 0.75

    def test_fourth_step_uses_half_rate(self, bowl):
        # on b = 1 the update is x <- x * (1 - 2 * rate): zero only at rate 1/2
        trace = noiseless_trace(VanillaPolicy(x0=(0.5,)), bowl, horizon=4)
        assert decaying_schedule(4, 1)[1][0] == 0.5
        assert abs(trace.actions[3, 0]) > 0.01
        assert trace.final_x == pytest.approx((0.0,), abs=1e-15)

    def test_schedules(self):
        cs, rates = decaying_schedule(1, 16)
        assert (rates[0], rates[3], cs[0], cs[15]) == (1.0, 0.5, 1.0, 0.5)
        with pytest.raises(ValueError, match="step must be >= 1"):
            decaying_schedule(0, 3)

    @pytest.mark.parametrize("first", [1, 4090, 4097, 2**31 - 4, 2**32 + 1, 2**53 - 4])
    def test_schedule_tables_are_the_scalar_powers_bit_for_bit(self, first):
        cs, rates = decaying_schedule(first, 8)
        steps = range(first, first + 8)
        assert rates.tobytes() == np.array([float(s) ** -0.5 for s in steps]).tobytes()
        assert cs.tobytes() == np.array([float(s) ** -0.25 for s in steps]).tobytes()

    def test_schedule_runs_no_python_frame_per_step(self, bowl, monkeypatch):
        # one call into ``algorithms`` per 100-step block, none per step
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_globals.get("__name__") == "kwbandit.algorithms":
                calls.append(frame.f_code.co_name)

        monkeypatch.setattr(traj, "_NOISE_BLOCK_STEPS", 100)
        env = EnvironmentSchedule.stationary(1000, bowl)
        sys.setprofile(profile)
        try:
            simulate_batch(VanillaPolicy(x0=(1.0,)), env, NoiseModel.none(), [replication_stream(0, 0)])
        finally:
            sys.setprofile(None)
        assert calls == ["decaying_schedule"] * 10


class TestFixedStep:
    @pytest.fixture
    def config(self, bowl):
        return FixedStepConfig(beta=0.1, c=0.1, constants=bowl.constants)

    def test_single_step(self, bowl, config):
        trace = noiseless_trace(FixedStepPolicy(config=config, x0=(1.0,)), bowl)
        assert trace.final_x == pytest.approx((0.8,), abs=1e-15)

    def test_noiseless_contraction_closed_form(self, bowl, config):
        trace = noiseless_trace(FixedStepPolicy(config=config, x0=(1.0,)), bowl, horizon=10)
        iterates = np.append(trace.actions[:, 0], trace.final_x[0])
        assert iterates == pytest.approx(0.8 ** np.arange(11), abs=1e-12)

    def test_projection_at_boundary(self, bowl):
        # theta on the upper wall: the plus sample clamps to it, so the
        # estimate points out of the box and the update is projected back
        dom = Domain(lower=(-0.5,), upper=(0.5,))
        f = QuadraticBowl(domain=dom, theta=(0.5,), b=1.0)
        config = FixedStepConfig(beta=0.1, c=0.1, constants=bowl.constants)
        trace = noiseless_trace(FixedStepPolicy(config=config, x0=(0.5,)), f)
        assert trace.boundary_contact[0]
        assert trace.final_x[0] == 0.5

    def test_rejects_uncontractive_beta(self, bowl):
        with pytest.raises(ContractionViolationError):
            FixedStepConfig(beta=1.5, c=0.1, constants=bowl.constants)


class TestSlidingWindow:
    def test_empty_buffer_returns_anchor(self, bowl):
        trace = noiseless_trace(SlidingWindowPolicy(config=SlidingWindowConfig(window=3, x0=(1.0,))), bowl)
        assert trace.actions[0, 0] == 1.0

    def test_hand_weighted_sum(self, box1d, bowl):
        # estimates -2 at x = 1 on theta = 0, then -1 at x = -1 on theta = -1.5
        policy = SlidingWindowPolicy(config=SlidingWindowConfig(window=2, x0=(1.0,)))
        trace = noiseless_trace(policy, bowl, QuadraticBowl(domain=box1d, theta=(-1.5,), b=1.0))
        assert trace.final_x[0] == pytest.approx(1.0 - 2.0 - 2.0**-0.5, abs=1e-12)

    def test_zero_estimates_return_anchor(self, box1d):
        f = QuadraticBowl(domain=box1d, theta=(0.25,), b=1.0)
        policy = SlidingWindowPolicy(config=SlidingWindowConfig(window=4, x0=(0.25,), c=0.5))
        trace = noiseless_trace(policy, f, horizon=3)
        assert trace.final_x[0] == 0.25

    def test_action_projected(self, box1d):
        # (f(1.5) - f(0.5)) / 1 = -9 on theta = -2, b = 1.5
        f = QuadraticBowl(domain=box1d, theta=(-2.0,), b=1.5)
        trace = noiseless_trace(SlidingWindowPolicy(config=SlidingWindowConfig(window=1, x0=(1.0,), c=0.5)), f)
        assert trace.final_x[0] == -2.0

    def test_weights_strictly_decreasing(self):
        cfg = SlidingWindowConfig(window=5, x0=(0.0,))
        weights = cfg.weights(np.arange(10))
        assert np.all(np.diff(weights[:5]) < 0)
        assert weights[0] == 1.0
        assert np.array_equal(weights[5:], weights[:5])  # the buffer restarts
        # the reference's table of n**(-1/2), n = 1..window, bit for bit
        assert weights[:5].tobytes() == (np.arange(1, 6, dtype=float) ** -0.5).tobytes()

    def test_default_perturbation(self):
        assert SlidingWindowConfig(window=16, x0=(0.0,)).c == pytest.approx(16**-0.25)
        assert SlidingWindowConfig(window=16, x0=(0.0,), c=0.4).c == 0.4

    def test_restart_clears_after_full_window(self, box1d):
        f = QuadraticBowl(domain=box1d, theta=(0.5,), b=1.0)
        trace = noiseless_trace(SlidingWindowPolicy(config=SlidingWindowConfig(window=2, x0=(0.0,))), f, horizon=3)
        y = [f.gradient(x)[0] for x in trace.actions]
        assert trace.actions[2, 0] == pytest.approx(y[0] + 2.0**-0.5 * y[1], abs=1e-12)
        assert trace.final_x[0] == pytest.approx(y[2], abs=1e-12)  # new pass from the anchor

    def test_window_of_one_depends_only_on_latest(self, box1d):
        # estimates -0.5 at x = 1, then -0.25 at x = 0.5
        f = QuadraticBowl(domain=box1d, theta=(0.0,), b=0.25)
        policy = SlidingWindowPolicy(config=SlidingWindowConfig(window=1, x0=(1.0,), c=0.5))
        trace = noiseless_trace(policy, f, horizon=2)
        assert trace.final_x == pytest.approx((1.0 - 0.25,), abs=1e-15)

    def test_estimates_older_than_window_have_no_influence(self, box1d):
        # c = 4 clamps both sample points of every step to the walls of
        # [-2, 2], so each estimate is (f(2) - f(-2)) / 8 = b * theta
        # whatever the iterate: one wild estimate, then five recent ones
        cfg = SlidingWindowConfig(window=3, x0=(0.0,), c=4.0)
        recent = [QuadraticBowl(domain=box1d, theta=(v,), b=1.0) for v in (0.05, -0.02, 0.07, 0.01, -0.03)]
        traces = [
            noiseless_trace(SlidingWindowPolicy(config=cfg), QuadraticBowl(domain=box1d, theta=(t,), b=b), *recent)
            for t, b in ((2.0, 61.5), (-2.0, 388.5))  # estimates 123 and -777
        ]
        assert traces[0].actions[1, 0] != traces[1].actions[1, 0]
        assert np.array_equal(traces[0].final_x, traces[1].final_x)

    def test_replay_from_stored_buffer_is_bit_for_bit(self, box1d):
        # window 4 over seven steps: the fifth estimate restarts the buffer,
        # which ends holding the last three
        f = QuadraticBowl(domain=box1d, theta=(0.3,), b=1.0)
        cfg = SlidingWindowConfig(window=4, x0=(0.2,))
        trace = noiseless_trace(SlidingWindowPolicy(config=cfg), f, horizon=7)
        buffer = [reference.central_difference(f, NoiseModel.none(), x, cfg.c, None)[0] for x in trace.actions[4:]]
        total = np.zeros(1)
        for weight, y in zip(cfg.weights(np.arange(cfg.window)), buffer):
            total = total + weight * y
        assert np.array_equal(box1d.project(np.asarray(cfg.x0) + total), trace.final_x)


def test_state_requires_feasible_iterate(bowl):
    policy = FixedStepPolicy(config=FixedStepConfig(beta=0.1, c=0.1, constants=bowl.constants), x0=(5.0,))
    with pytest.raises(ValueError, match="outside"):
        noiseless_trace(policy, bowl)
