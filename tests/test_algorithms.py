import numpy as np
import pytest

from kwbandit import (
    ContractionViolationError,
    Domain,
    FixedStepConfig,
    GradientEstimate,
    SlidingWindowConfig,
    initial_state,
    sliding_window_action,
    sliding_window_advance,
    step_fixed,
    step_vanilla,
    vanilla_perturbation,
    vanilla_step_size,
)
from kwbandit.algorithms import FIXED_STEP, SLIDING_WINDOW, VANILLA


def est(y, c=0.1):
    return GradientEstimate.from_vector((y,) if np.isscalar(y) else tuple(y), c)


class TestVanillaStep:
    def test_first_step_full_rate(self, box1d):
        state = initial_state(VANILLA, box1d, (1.0,))
        new = step_vanilla(state, est(-2.0, c=1.0))
        assert new.x == pytest.approx((-1.0,), abs=1e-15)
        assert new.step_count == 1

    def test_zero_estimate_is_fixed_point(self, box1d):
        state = initial_state(VANILLA, box1d, (0.7,))
        assert step_vanilla(state, est(0.0)).x == state.x

    def test_fourth_step_uses_half_rate(self, box1d):
        state = initial_state(VANILLA, box1d, (0.5,))
        for _ in range(3):
            state = step_vanilla(state, est(0.0))
        assert vanilla_step_size(state.next_step) == 0.5
        new = step_vanilla(state, est(-1.0))
        assert new.x == pytest.approx((0.0,), abs=1e-15)

    def test_schedules(self):
        assert vanilla_step_size(1) == 1.0
        assert vanilla_step_size(4) == 0.5
        assert vanilla_perturbation(1) == 1.0
        assert vanilla_perturbation(16) == 0.5


class TestFixedStep:
    @pytest.fixture
    def config(self, bowl):
        return FixedStepConfig(beta=0.1, c=0.1, constants=bowl.constants)

    def test_single_step(self, box1d, config):
        state = initial_state(FIXED_STEP, box1d, (1.0,))
        assert step_fixed(state, est(-2.0), config).x == pytest.approx((0.8,), abs=1e-15)

    def test_noiseless_contraction_closed_form(self, box1d, bowl, config, no_noise):
        from kwbandit import estimate_gradient, replication_stream

        state = initial_state(FIXED_STEP, box1d, (1.0,))
        rng = replication_stream(0, 0)
        for s in range(1, 11):
            e = estimate_gradient(bowl, no_noise, state.x_array, config.c, rng)
            state = step_fixed(state, e, config)
            assert state.x[0] == pytest.approx(0.8**s, abs=1e-12)

    def test_projection_at_boundary(self, bowl):
        dom = Domain(lower=(-0.5,), upper=(0.5,))
        state = initial_state(FIXED_STEP, dom, (0.5,))
        new = step_fixed(state, est(2.0), FixedStepConfig(beta=0.1, c=0.1, constants=bowl.constants))
        assert new.x == (0.5,)

    def test_rejects_uncontractive_beta(self, bowl):
        with pytest.raises(ContractionViolationError):
            FixedStepConfig(beta=1.5, c=0.1, constants=bowl.constants)

    def test_coupled_constructor(self, bowl):
        cfg = FixedStepConfig.coupled(c=0.3, alpha=0.5, constants=bowl.constants)
        assert cfg.beta == pytest.approx(0.3 ** (2 / 0.5))
        with pytest.raises(ValueError, match="alpha in"):
            FixedStepConfig.coupled(c=0.3, alpha=1.0, constants=bowl.constants)


class TestSlidingWindow:
    def test_empty_buffer_returns_anchor(self, box1d):
        cfg = SlidingWindowConfig(window=3, x0=(1.0,))
        assert sliding_window_action(cfg, (), box1d) == pytest.approx([1.0], abs=0.0)

    def test_hand_weighted_sum(self, box1d):
        cfg = SlidingWindowConfig(window=2, x0=(1.0,))
        buffer = (est(-2.0), est(-1.0))
        action = sliding_window_action(cfg, buffer, box1d)
        assert action[0] == pytest.approx(1.0 - 2.0 - 2.0**-0.5, abs=1e-12)

    def test_zero_estimates_return_anchor(self, box1d):
        cfg = SlidingWindowConfig(window=4, x0=(0.3,))
        buffer = tuple(est(0.0) for _ in range(3))
        assert sliding_window_action(cfg, buffer, box1d) == pytest.approx([0.3], abs=0.0)

    def test_action_projected(self, box1d):
        cfg = SlidingWindowConfig(window=1, x0=(1.0,))
        action = sliding_window_action(cfg, (est(-9.0),), box1d)
        assert action[0] == -2.0

    def test_weights_strictly_decreasing(self):
        cfg = SlidingWindowConfig(window=5, x0=(0.0,))
        assert np.all(np.diff(cfg.weights) < 0)
        assert cfg.weights[0] == 1.0

    def test_default_perturbation(self):
        assert SlidingWindowConfig(window=16, x0=(0.0,)).c == pytest.approx(16**-0.25)
        assert SlidingWindowConfig(window=16, x0=(0.0,), c=0.4).c == 0.4

    def test_restart_clears_after_full_window(self, box1d):
        cfg = SlidingWindowConfig(window=2, x0=(0.0,))
        state = initial_state(SLIDING_WINDOW, box1d, (0.0,))
        e1, e2, e3 = est(0.1), est(0.2), est(0.3)
        for e in (e1, e2):
            state = sliding_window_advance(state, e, cfg)
        assert state.window_buffer == (e1, e2)
        state = sliding_window_advance(state, e3, cfg)
        assert state.window_buffer == (e3,)  # new pass from the anchor

    def test_window_of_one_depends_only_on_latest(self, box1d):
        cfg = SlidingWindowConfig(window=1, x0=(1.0,))
        state = initial_state(SLIDING_WINDOW, box1d, (1.0,))
        for e in (est(0.5), est(-0.25)):
            state = sliding_window_advance(state, e, cfg)
        assert state.x == pytest.approx((1.0 - 0.25,), abs=1e-15)
        assert len(state.window_buffer) == 1

    def test_estimates_older_than_window_have_no_influence(self, box1d):
        window = 3
        cfg = SlidingWindowConfig(window=window, x0=(0.0,))
        recent = [est(v) for v in (0.05, -0.02, 0.07, 0.01, -0.03)]
        state_a = initial_state(SLIDING_WINDOW, box1d, (0.0,))
        for e in [est(123.0)] + recent:  # wild ancient estimate
            state_a = sliding_window_advance(state_a, e, cfg)
        state_b = initial_state(SLIDING_WINDOW, box1d, (0.0,))
        for e in [est(-777.0)] + recent:  # different ancient estimate
            state_b = sliding_window_advance(state_b, e, cfg)
        assert state_a.x == state_b.x

    def test_replay_from_stored_buffer_is_bit_for_bit(self, box1d):
        cfg = SlidingWindowConfig(window=4, x0=(0.2,))
        state = initial_state(SLIDING_WINDOW, box1d, (0.2,))
        # the fifth estimate restarts the buffer, which ends holding three
        for v in (0.11, -0.07, 0.301, 0.013, -0.771, 0.052, -0.118):
            state = sliding_window_advance(state, est(v), cfg)
        assert len(state.window_buffer) == 3
        replayed = sliding_window_action(cfg, state.window_buffer, box1d)
        assert np.array_equal(replayed, state.x_array)

    def test_buffer_larger_than_window_rejected(self, box1d):
        cfg = SlidingWindowConfig(window=1, x0=(0.0,))
        with pytest.raises(ValueError, match="window"):
            sliding_window_action(cfg, (est(0.1), est(0.2)), box1d)


def test_state_requires_feasible_iterate(box1d):
    with pytest.raises(ValueError, match="outside"):
        initial_state(FIXED_STEP, box1d, (5.0,))
