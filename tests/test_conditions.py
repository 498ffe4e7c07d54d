from unittest import mock

import pytest

import kwbandit.conditions as conditions
from kwbandit import ClassConstants, QuadraticBowl, verify_conditions
from kwbandit.conditions import (
    CURVATURE_LOWER_BOUND,
    GRADIENT_GROWTH,
    GRADIENT_LIPSCHITZ,
    VALUE_GAP,
)


def test_quadratic_bowl_passes_with_derived_constants(bowl):
    report = verify_conditions(bowl, 16)
    assert report.all_hold
    # the bowl's ratios are constant, so every declared constant is exactly tight
    assert report.check(CURVATURE_LOWER_BOUND).tightest == pytest.approx(2.0, rel=1e-12)
    assert report.check(GRADIENT_GROWTH).tightest == pytest.approx(2.0, rel=1e-12)
    assert report.check(VALUE_GAP).tightest == pytest.approx(1.0, rel=1e-12)
    assert report.check(GRADIENT_LIPSCHITZ).tightest == pytest.approx(2.0, rel=1e-12)


def test_curvature_bound_with_headroom_holds(bowl):
    # declaring a weaker (smaller) k1 still holds
    weaker = ClassConstants(k1=1.5, k2=2.0, k3=1.0, k4=2.0)
    assert verify_conditions(bowl, 16, declared=weaker).all_hold


def test_inflated_curvature_constant_fails_everywhere(bowl):
    # -3 r^2 >= -2 r^2 is false for every r > 0
    inflated = ClassConstants(k1=3.0, k2=2.0, k3=1.0, k4=2.0)
    report = verify_conditions(bowl, 16, declared=inflated)
    check = report.check(CURVATURE_LOWER_BOUND)
    assert not check.holds
    assert check.violations == check.points_checked  # every off-center grid point


def test_value_gap_holds_with_equality(bowl):
    # f(theta) - f(x) = r^2 exactly, so k3 = 1 is tight
    report = verify_conditions(bowl, 16)
    check = report.check(VALUE_GAP)
    assert check.holds and check.tightest == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("name", [GRADIENT_GROWTH, VALUE_GAP, GRADIENT_LIPSCHITZ])
def test_understated_upper_constants_fail(bowl, name):
    shrunk = {
        GRADIENT_GROWTH: ClassConstants(k1=2.0, k2=2.0 / 1.5, k3=1.0, k4=2.0),
        VALUE_GAP: ClassConstants(k1=2.0, k2=2.0, k3=1.0 / 1.5, k4=2.0),
        GRADIENT_LIPSCHITZ: ClassConstants(k1=2.0, k2=2.0, k3=1.0, k4=2.0 / 1.5),
    }[name]
    report = verify_conditions(bowl, 16, declared=shrunk)
    assert not report.check(name).holds


def test_quartic_constants_grid_certified(quartic):
    report = verify_conditions(quartic, 32)
    assert report.all_hold
    # k2/k3/k4 peak at the largest grid radius, near but below the corner values
    assert report.check(GRADIENT_GROWTH).tightest <= quartic.constants.k2
    assert report.check(VALUE_GAP).tightest <= quartic.constants.k3
    assert report.check(GRADIENT_LIPSCHITZ).tightest <= quartic.constants.k4
    # the curvature-lower-bound ratio tightens exactly to 2b at theta
    assert report.check(CURVATURE_LOWER_BOUND).tightest >= 2.0 - 1e-9


def test_multidimensional_grid(box2d):
    f = QuadraticBowl(domain=box2d, theta=(0.3, -0.4), b=1.5)
    report = verify_conditions(f, 16)
    assert report.all_hold
    assert report.check(CURVATURE_LOWER_BOUND).tightest == pytest.approx(3.0, rel=1e-12)


def test_rejects_degenerate_grid(bowl):
    with pytest.raises(ValueError, match="grid_points_per_axis"):
        verify_conditions(bowl, 1)


def test_rejects_a_grid_over_the_point_budget_before_building_it(box2d):
    f = QuadraticBowl(domain=box2d, theta=(0.3, -0.4), b=1.5)
    with (
        mock.patch.object(conditions, "_grid", side_effect=AssertionError("grid built")),
        mock.patch.object(conditions, "_neighbor_pairs", side_effect=AssertionError("pairs built")),
    ):
        with pytest.raises(ValueError, match=r"1001 points per axis in dimension 2 has n\*\*d = 1002001"):
            verify_conditions(f, 1001)


def test_grid_at_the_point_budget_is_accepted(box2d, monkeypatch):
    monkeypatch.setattr(conditions, "MAX_GRID_POINTS", 16**2)
    f = QuadraticBowl(domain=box2d, theta=(0.3, -0.4), b=1.5)
    assert verify_conditions(f, 16).all_hold
    with pytest.raises(ValueError, match=r"n\*\*d = 289 points"):
        verify_conditions(f, 17)
