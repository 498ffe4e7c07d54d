import numpy as np
import pytest

from kwbandit import (
    ClassConstants,
    ContractionViolationError,
    expected_distance_bound,
    fixed_step_normalized_bound,
    fixed_step_regret_bound,
    optimal_window,
    sliding_window_episode_bound,
    sliding_window_normalized_bound,
    sliding_window_regret_bound,
)

UNIT = ClassConstants(k1=1.0, k2=1.0, k3=1.0, k4=1.0)


class TestExpectedDistanceBound:
    def test_no_steps_returns_initial_distance(self):
        value = expected_distance_bound(0, 0.1, 0.1, 0.0, UNIT, 4.0, 2.0, x0_dist2=0.37)
        assert value == 0.37

    def test_geometric_limit(self):
        # gamma = 0.82, floor = 4: limit 4 / 0.18
        value = expected_distance_bound(10_000, 0.1, 0.1, 0.0, UNIT, 4.0, 2.0, x0_dist2=1.0)
        assert value == pytest.approx(4.0 / 0.18, rel=1e-9)

    def test_pure_decay_with_zero_floor(self):
        value = expected_distance_bound(2, 0.1, 0.1, 0.0, UNIT, 0.0, 2.0, x0_dist2=1.0)
        assert value == pytest.approx(0.82**2, abs=1e-12)

    def test_contraction_required(self):
        with pytest.raises(ContractionViolationError):
            expected_distance_bound(1, 1.5, 0.1, 0.0, UNIT, 4.0, 2.0, x0_dist2=1.0)


class TestFixedStepBound:
    def test_hand_value(self):
        # floor = 4, gamma = 0.82: 4*100/0.18 + 4*1/0.18 = 2244.44...
        report = fixed_step_regret_bound(UNIT, 2.0, 4.0, 0.1, 0.1, 0.0, horizon=100, episodes=1)
        assert report.value == pytest.approx(400 / 0.18 + 4 / 0.18, rel=1e-12)
        assert report.value == pytest.approx(2244.444444444, abs=1e-6)

    def test_linear_in_episode_count(self):
        one = fixed_step_regret_bound(UNIT, 2.0, 4.0, 0.1, 0.1, 0.0, horizon=100, episodes=1)
        three = fixed_step_regret_bound(UNIT, 2.0, 4.0, 0.1, 0.1, 0.0, horizon=100, episodes=3)
        per_episode = 2.0**2 * 1.0 / (1.0 - 0.82)
        assert three.value - one.value == pytest.approx(2 * per_episode, rel=1e-9)

    def test_zero_horizon_leaves_switching_term(self):
        report = fixed_step_regret_bound(UNIT, 2.0, 4.0, 0.1, 0.1, 0.0, horizon=0, episodes=2)
        assert report.value == pytest.approx(report.term("switching"), abs=0.0)
        assert report.term("tracking") == 0.0


class TestSlidingWindowBounds:
    def test_hand_value(self):
        consts = ClassConstants(k1=1.0, k2=1.0, k3=1.0, k4=1.0, k5=2.0)
        report = sliding_window_regret_bound(consts, 1.0, window=4, horizon=100, episodes=1)
        assert report.value == pytest.approx(104.0, abs=1e-12)

    def test_window_of_one(self):
        consts = ClassConstants(k1=1.0, k2=1.0, k3=2.0, k4=1.0, k5=3.0)
        report = sliding_window_regret_bound(consts, 1.5, window=1, horizon=10, episodes=2)
        assert report.value == pytest.approx(2.0 * 3.0 * 10 + 1 * 2.0 * 1.5 * 2, abs=1e-12)

    def test_two_to_one_term_ratio_at_optimum(self):
        consts = ClassConstants(k1=1.0, k2=1.0, k3=1.3, k4=1.0, k5=2.7)
        diameter, horizon, episodes = 3.0, 50_000, 5
        raw = (consts.k5 / (2 * diameter) * horizon / episodes) ** (2.0 / 3.0)
        report = sliding_window_regret_bound(consts, diameter, window=raw, horizon=horizon, episodes=episodes)
        assert report.term("tracking") / report.term("switching") == pytest.approx(2.0, abs=1e-9)

    def test_decreasing_then_increasing_around_optimum(self):
        consts = ClassConstants(k1=1.0, k2=1.0, k3=1.0, k4=1.0, k5=2.0)
        diameter, horizon = 1.0, 8000
        optimum = optimal_window(consts.k5, diameter, horizon, 1)
        values = [
            sliding_window_regret_bound(consts, diameter, window=w, horizon=horizon, episodes=1).value
            for w in (optimum // 4, optimum // 2, optimum, optimum * 2, optimum * 4)
        ]
        assert values[0] > values[1] > values[2] < values[3] < values[4]

    def test_episode_bound(self):
        consts = ClassConstants(k1=1.0, k2=1.0, k3=1.0, k4=1.0, k5=2.0)
        report = sliding_window_episode_bound(consts, 1.0, window=4, episode_length=100)
        assert report.value == pytest.approx(2.0 * 100 / 2 + 4.0, abs=1e-12)


class TestNormalizedBounds:
    def test_coefficient(self):
        report = sliding_window_normalized_bound(UNIT, 1.0, horizon=1, episodes=1)
        assert report.input("coefficient") == pytest.approx(2 ** (1 / 3) + 2 ** (-2 / 3), abs=1e-15)
        assert report.input("coefficient") == pytest.approx(1.8898815748423, abs=1e-10)

    def test_cube_root_of_change_rate(self):
        report = sliding_window_normalized_bound(UNIT, 1.0, horizon=1000, episodes=1)
        assert report.value == pytest.approx(1.8898815748423 * 0.1, abs=1e-9)

    def test_vanishes_with_change_rate(self):
        values = [
            sliding_window_normalized_bound(UNIT, 2.0, horizon=10**k, episodes=1).value for k in range(1, 7)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.05 * values[0]

    def test_strictly_increasing_in_change_rate(self):
        values = [
            sliding_window_normalized_bound(UNIT, 2.0, horizon=1000, episodes=n).value for n in (1, 2, 5, 20, 100)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_fixed_step_normalized_vanishes(self):
        values = [
            fixed_step_normalized_bound(UNIT, 2.0, 4.0, 1.0, horizon=10**k, episodes=1).value for k in range(2, 7)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_fixed_step_normalized_term_structure(self):
        report = fixed_step_normalized_bound(UNIT, 2.0, 4.0, 1.0, horizon=1000, episodes=10)
        assert {k for k, _ in report.terms} == {"learning", "offset", "noise", "restart"}
        assert report.value == pytest.approx(sum(v for _, v in report.terms), rel=1e-13)


def test_reports_are_finite_and_nonnegative():
    report = fixed_step_regret_bound(UNIT, 2.0, 4.0, 0.1, 0.1, 0.0, horizon=100, episodes=1)
    assert np.isfinite(report.value) and report.value >= 0
    with pytest.raises(KeyError):
        report.term("nope")


class TestEvaluatorsAgainstTheirDocstrings:
    """The evaluators that no production path calls, pinned term by term
    to the formulas in their docstrings at a point where no factor is 1:
    lam != 1, diameter != 1, k5 != 1."""

    CONSTANTS = ClassConstants(k1=0.5, k2=1.5, k3=2.0, k4=3.0, k5=1.7)
    DIAMETER, SIGMA_TILDE2, ALPHA, HORIZON, EPISODES = 3.0, 2.0, 0.5, 1000, 10

    def test_fixed_step_normalized_terms(self):
        k1, k3, k4 = self.CONSTANTS.k1, self.CONSTANTS.k3, self.CONSTANTS.k4
        diameter, alpha, rho = self.DIAMETER, self.ALPHA, self.EPISODES / self.HORIZON
        lam = (diameter**2 / self.SIGMA_TILDE2) ** (1 / (2 + alpha))
        assert abs(lam - 1.0) > 0.5
        pre = k3 / (2 * k1)
        expected = {
            "learning": pre * lam**alpha * rho ** (1 / (2 + alpha)),
            "offset": pre * 2 * diameter * k4 * lam**alpha * rho ** (1 / (2 + alpha)),
            "noise": pre * 2 * lam**3 * rho ** (3 / (2 + alpha)),
            "restart": pre * diameter**2 / lam * rho ** ((1 + alpha) / (2 + alpha)),
        }
        report = fixed_step_normalized_bound(
            self.CONSTANTS, diameter, self.SIGMA_TILDE2, alpha, horizon=self.HORIZON, episodes=self.EPISODES
        )
        assert dict(report.terms) == pytest.approx(expected, rel=1e-12)
        assert report.value == pytest.approx(sum(expected.values()), rel=1e-12)
        assert report.input("lambda") == pytest.approx(lam, rel=1e-12)

    def test_sliding_window_normalized_value(self):
        rho = self.EPISODES / self.HORIZON
        expected = 1.7 ** (2 / 3) * self.DIAMETER ** (1 / 3) * rho ** (1 / 3) * (2 ** (1 / 3) + 2 ** (-2 / 3))
        report = sliding_window_normalized_bound(
            self.CONSTANTS, self.DIAMETER, horizon=self.HORIZON, episodes=self.EPISODES
        )
        assert report.value == pytest.approx(expected, rel=1e-12)
        assert report.term("value") == report.value

    def test_sliding_window_episode_terms(self):
        window, length = 16, 100
        report = sliding_window_episode_bound(self.CONSTANTS, self.DIAMETER, window=window, episode_length=length)
        expected = {"tracking": 2.0 * 1.7 * length / 4.0, "adaptation": window * 2.0 * self.DIAMETER}
        assert dict(report.terms) == pytest.approx(expected, rel=1e-12)
        assert report.value == pytest.approx(sum(expected.values()), rel=1e-12)

    def test_expected_distance_at_a_middle_step(self):
        beta, c, epsilon, x0_dist2, s = 0.1, 0.5, 0.01, 4.0, 7
        k1, k2, k4 = self.CONSTANTS.k1, self.CONSTANTS.k2, self.CONSTANTS.k4
        gamma = 1 - 2 * beta * k1 + 2 * beta**2 * k2**2
        floor = (
            beta**2 * self.SIGMA_TILDE2 / c**2
            + 2 * self.DIAMETER * k4 * beta * epsilon
            + 2 * beta**2 * k2**2 * epsilon**2
        )
        expected = floor * (1 - gamma**s) / (1 - gamma) + x0_dist2 * gamma**s
        value = expected_distance_bound(
            s, beta, c, epsilon, self.CONSTANTS, self.SIGMA_TILDE2, self.DIAMETER, x0_dist2=x0_dist2
        )
        assert value == pytest.approx(expected, rel=1e-12)
        # neither end of the curve: the floor and the start both still count
        assert x0_dist2 * gamma**s > 0.5 and floor * (1 - gamma**s) / (1 - gamma) > 0.05
