import numpy as np
import pytest

from kwbandit import ClassConstants, Domain, DomainViolationError, QuadraticBowl, QuarticPerturbedBowl


class TestQuadraticBowl:
    def test_evaluate_simple(self, bowl):
        assert bowl.evaluate((0.5,)) == pytest.approx(-0.25, abs=1e-15)

    def test_evaluate_at_maximizer(self, bowl):
        assert bowl.evaluate((0.0,)) == 0.0
        assert bowl.max_value == 0.0

    def test_evaluate_shifted_scaled(self):
        # f = 3 - 2*||x - (1,1)||^2 at the origin: 3 - 2*2 = -1
        dom = Domain(lower=(-2.0, -2.0), upper=(2.0, 2.0))
        f = QuadraticBowl(domain=dom, theta=(1.0, 1.0), b=2.0, a=3.0)
        assert f.evaluate((0.0, 0.0)) == pytest.approx(-1.0, abs=1e-15)

    def test_gradient_1d(self, bowl):
        assert bowl.gradient((1.0,)) == pytest.approx([-2.0], abs=1e-15)

    def test_gradient_zero_at_maximizer(self, bowl):
        assert bowl.gradient((0.0,)) == pytest.approx([0.0], abs=0.0)

    def test_gradient_anisotropic_via_two_bowls(self):
        # f = -(x1^2 + 2 x2^2) is not a single bowl; check the separable
        # pieces instead: -x^2 gives -2 and -2y^2 gives -4 at 1.
        dom = Domain(lower=(-2.0,), upper=(2.0,))
        f1 = QuadraticBowl(domain=dom, theta=(0.0,), b=1.0)
        f2 = QuadraticBowl(domain=dom, theta=(0.0,), b=2.0)
        assert f1.gradient((1.0,)) == pytest.approx([-2.0], abs=1e-15)
        assert f2.gradient((1.0,)) == pytest.approx([-4.0], abs=1e-15)

    def test_constants(self, bowl):
        c = bowl.constants
        assert (c.k1, c.k2, c.k3, c.k4) == (2.0, 2.0, 1.0, 2.0)

    def test_rejects_theta_outside(self, box1d):
        with pytest.raises(ValueError, match="outside"):
            QuadraticBowl(domain=box1d, theta=(3.0,), b=1.0)

    def test_rejects_evaluation_outside(self, bowl):
        with pytest.raises(DomainViolationError):
            bowl.evaluate((2.5,))

    def test_batch_evaluation_matches_scalar(self, bowl):
        xs = np.array([[-1.0], [0.0], [0.5]])
        batch = bowl.evaluate(xs)
        assert batch == pytest.approx([bowl.evaluate(x) for x in xs], abs=0.0)

    def test_offset_radius_zero(self, bowl):
        assert bowl.mean_value_offset(0.3) == 0.0

    def test_maximum_on_grid(self, bowl):
        grid = np.linspace(-2, 2, 101)[:, None]
        assert bowl.max_value >= np.max(bowl.evaluate(grid))


class TestQuarticPerturbedBowl:
    def test_value_and_gradient_match_hand_formula(self, quartic):
        x = np.array([1.1])
        r2 = (1.1 - 0.3) ** 2
        assert quartic.evaluate(x) == pytest.approx(-r2 - 0.1 * r2**2, abs=1e-14)
        expected_grad = -(2.0 + 0.4 * r2) * (1.1 - 0.3)
        assert quartic.gradient(x) == pytest.approx([expected_grad], abs=1e-14)

    def test_gradient_matches_finite_differences(self, quartic):
        # independent oracle: high-order central differences at tiny h
        h = 1e-6
        for x in (np.array([-1.5]), np.array([0.0]), np.array([1.2])):
            numeric = (quartic.evaluate(x + h) - quartic.evaluate(x - h)) / (2 * h)
            assert quartic.gradient(x)[0] == pytest.approx(numeric, rel=1e-7)

    def test_constants_formulae(self, quartic):
        r = quartic.max_radius
        assert r == pytest.approx(2.3, abs=1e-15)
        c = quartic.constants
        assert c.k1 == pytest.approx(2.0)
        assert c.k2 == pytest.approx(2.0 + 0.4 * r**2)
        assert c.k3 == pytest.approx(1.0 + 0.1 * r**2)
        assert c.k4 == pytest.approx(2.0 + 1.2 * r**2)

    def test_offset_radius_below_c_squared(self, quartic):
        for c in (0.05, 0.1, 0.2):
            eps = quartic.mean_value_offset(c)
            assert 0 < eps < c**2

    def test_rejects_too_strong_perturbation(self, box1d):
        with pytest.raises(ValueError, match="too strong"):
            QuarticPerturbedBowl(domain=box1d, theta=(0.0,), b=1.0, q=0.3)

    def test_maximizer_dominates_grid(self, quartic):
        grid = np.linspace(-2, 2, 201)[:, None]
        assert quartic.max_value >= np.max(quartic.evaluate(grid))


class TestClassConstants:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ClassConstants(k1=0.0, k2=1.0, k3=1.0, k4=1.0)
        with pytest.raises(ValueError):
            ClassConstants(k1=1.0, k2=1.0, k3=1.0, k4=1.0, s0=-1)

    def test_combine_takes_worst_case_per_constant(self):
        a = ClassConstants(k1=2.0, k2=2.0, k3=1.0, k4=2.0, k5=1.0, s0=0)
        b = ClassConstants(k1=1.0, k2=5.0, k3=2.0, k4=9.0, k5=3.0, s0=4)
        c = ClassConstants.combine([a, b])
        assert (c.k1, c.k2, c.k3, c.k4, c.k5, c.s0) == (1.0, 5.0, 2.0, 9.0, 3.0, 4)
