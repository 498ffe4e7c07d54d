import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwbandit import (
    Domain,
    DomainViolationError,
    EnvironmentSchedule,
    FixedStepConfig,
    FixedStepPolicy,
    NoiseModel,
    QuadraticBowl,
    simulate_batch,
)
from kwbandit.rng import StreamChunk


def test_diameter_is_norm_of_side_lengths():
    dom = Domain(lower=(-1.0, 0.0), upper=(1.0, 3.0))
    assert dom.diameter == pytest.approx(np.hypot(2.0, 3.0), abs=1e-15)
    assert dom.dimension == 2
    # squares added left to right; BLAS's ddot, with a fused multiply-add,
    # rounds this one to ...796
    assert Domain(lower=(-2.84, -1.89), upper=(1.28, 0.23)).diameter == 4.633443643770797


def test_rejects_empty_interior():
    with pytest.raises(ValueError, match="lower must be <"):
        Domain(lower=(0.0,), upper=(0.0,))
    with pytest.raises(ValueError, match="dimension"):
        Domain(lower=(), upper=())
    with pytest.raises(ValueError, match="components"):
        Domain(lower=(0.0,), upper=(1.0, 2.0))


def test_projection_interior_identity():
    dom = Domain(lower=(-1.0,), upper=(1.0,))
    assert dom.project((0.5,)) == pytest.approx([0.5])


def test_projection_clamps():
    dom = Domain(lower=(-1.0,), upper=(1.0,))
    assert dom.project((1.7,)) == pytest.approx([1.0])


def test_projection_clamps_per_axis():
    dom = Domain(lower=(-1.0, -1.0), upper=(1.0, 1.0))
    assert dom.project((2.0, -3.0)) == pytest.approx([1.0, -1.0])


def test_contains_and_require_inside():
    dom = Domain(lower=(-1.0,), upper=(1.0,))
    assert dom.contains((1.0,))
    assert not dom.contains((1.0 + 1e-12,))
    with pytest.raises(DomainViolationError):
        dom.require_inside((2.0,))


def test_max_distance_from_is_attained_at_a_corner():
    dom = Domain(lower=(-1.0, -1.0), upper=(2.0, 1.0))
    # farthest corner from (0, 0) is (2, +/-1)
    assert dom.max_distance_from((0.0, 0.0)) == pytest.approx(np.hypot(2.0, 1.0), abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(st.floats(-50, 50), min_size=2, max_size=2),
    y=st.lists(st.floats(-1, 1), min_size=2, max_size=2),
)
def test_projection_idempotent_and_nonexpansive(x, y):
    dom = Domain(lower=(-1.0, -1.0), upper=(1.0, 1.0))
    px = dom.project(x)
    assert np.array_equal(dom.project(px), px)
    # nonexpansive toward any point already in the box
    assert np.linalg.norm(px - np.asarray(y)) <= np.linalg.norm(np.asarray(x) - np.asarray(y)) + 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_are_outside_the_box(bad):
    box = Domain(lower=(-1.0, -1.0), upper=(1.0, 1.0))
    f = QuadraticBowl(domain=box, theta=(0.0, 0.0), b=1.0)
    with pytest.raises(DomainViolationError, match="outside the box"):
        f.evaluate([0.5, bad])
    policy = FixedStepPolicy(FixedStepConfig(beta=0.1, c=0.1, constants=f.constants), x0=(bad, 0.5))
    env = EnvironmentSchedule.stationary(5, f)
    with pytest.raises(DomainViolationError, match="starting point x0"):
        simulate_batch(policy, env, NoiseModel.gaussian(1.0), list(StreamChunk(0, 3)))
