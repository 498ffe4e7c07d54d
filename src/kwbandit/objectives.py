"""Synthetic objective classes with known maximizers and curvature constants.

Two families are provided:

* quadratic bowl         f(x) = a - b * ||x - theta||^2
* quartic-perturbed bowl f(x) = a - b * ||x - theta||^2 - q * ||x - theta||^4

Both are concave-like on a box, with constants that certify, for every x
in the domain (r = ||x - theta||):

* curvature lower bound:   (x - theta)' grad f(x) <= -k1 * r^2
* gradient growth:         ||grad f(x)||         <= k2 * r
* value gap:               f(theta) - f(x)       <= k3 * r^2
* gradient Lipschitz:      ||grad f(x) - grad f(y)|| <= k4 * ||x - y||

For the quadratic bowl the constants are exact (k1 = k2 = 2b, k3 = b,
k4 = 2b); for the quartic family they are derived from the largest
distance R from theta to the box and certified on a grid by the
condition verifier.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .domain import Domain, add_left_to_right
from .exceptions import raise_first

QUADRATIC_BOWL = "quadratic-bowl"
QUARTIC_PERTURBED_BOWL = "quartic-perturbed-bowl"


def theta_problems(theta: tuple[float, ...], lower: tuple[float, ...], upper: tuple[float, ...]) -> list[str]:
    """The value rule of a maximizer: theta is a point of the box lower..upper."""
    if len(theta) != len(lower):
        return [f"theta has dimension {len(theta)}, domain has dimension {len(lower)}"]
    if not all(lo <= t <= hi for t, lo, hi in zip(theta, lower, upper)):
        return [f"theta {list(theta)} lies outside the domain box"]
    return []


def coefficient_problems(b: float, q: float | None = None) -> list[str]:
    """The value rules of a bowl's coefficients: b > 0 and, for the quartic
    bowl, q > 0."""
    positive = (("b", b), ("q", q))
    return [f"{name} must be > 0, got {value}" for name, value in positive if value is not None and not value > 0]


def calibration_problems(k5: float, s0: int) -> list[str]:
    """The value rules of the calibration inputs: k5 positive and finite, s0 >= 0."""
    problems = []
    if not (k5 > 0.0 and np.isfinite(k5)):
        problems.append(f"k5 must be a positive finite real, got {k5}")
    if s0 < 0:
        problems.append(f"s0 must be >= 0, got {s0}")
    return problems


@dataclass(frozen=True)
class ClassConstants:
    """Curvature/growth constants of an objective class.

    ``k5`` (steady distance constant of the windowed optimizer) and ``s0``
    (its burn-in) are calibration inputs, not derivable in closed form.
    """

    k1: float
    k2: float
    k3: float
    k4: float
    k5: float = 1.0
    s0: int = 0

    def __post_init__(self):
        for name in ("k1", "k2", "k3", "k4", "k5"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if name != "k5" and not (v > 0.0 and np.isfinite(v)):
                raise ValueError(f"{name} must be a positive finite real, got {v}")
        object.__setattr__(self, "s0", int(self.s0))
        raise_first(calibration_problems(self.k5, self.s0))

    @classmethod
    def combine(cls, items: list["ClassConstants"]) -> "ClassConstants":
        """Constants valid for every member of a finite class.

        k1 bounds a ratio from below, so the combined value is the minimum;
        the other constants bound ratios from above, so the maximum.
        """
        if not items:
            raise ValueError("cannot combine an empty list of constants")
        return cls(
            k1=min(c.k1 for c in items),
            k2=max(c.k2 for c in items),
            k3=max(c.k3 for c in items),
            k4=max(c.k4 for c in items),
            k5=max(c.k5 for c in items),
            s0=max(c.s0 for c in items),
        )


class ObjectiveSpec(ABC):
    """Analytic objective on a box with a known interior maximizer.

    ``_value`` reads from ``self`` only ``theta_array``, ``_squared_distance``
    and the float fields named in ``coefficients``, so the engine can run it
    over per-point columns of those values (see ``shared_kind``).
    """

    kind: str
    domain: Domain
    theta: tuple[float, ...]
    coefficients: ClassVar[tuple[str, ...]] = ()

    @cached_property
    def theta_array(self) -> np.ndarray:
        a = np.array(self.theta, dtype=float)
        a.flags.writeable = False
        return a

    @property
    @abstractmethod
    def constants(self) -> ClassConstants: ...

    @abstractmethod
    def _value(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Objective value at x, shape (..., d) -> (...); no domain check.

        With ``out`` (shape (...)), the value is written into it and
        returned; subclasses must honour it, since the engine reads ``out``,
        which it passes by position.
        """

    @abstractmethod
    def _gradient(self, x: np.ndarray) -> np.ndarray:
        """Exact gradient at x, shape (..., d) -> (..., d); no domain check."""

    def evaluate(self, x) -> float | np.ndarray:
        """f(x) for a point (d,) or a batch (..., d) of points inside the box."""
        arr = np.asarray(x, dtype=float)
        self.domain.require_inside(arr, what="evaluation point")
        val = self._value(arr)
        return float(val) if arr.ndim == 1 else val

    def gradient(self, x) -> np.ndarray:
        """Exact gradient of f at x (the estimator's testing oracle)."""
        arr = np.asarray(x, dtype=float)
        self.domain.require_inside(arr, what="gradient point")
        return self._gradient(arr)

    @cached_property
    def max_value(self) -> float:
        return float(self._value(self.theta_array))

    @abstractmethod
    def mean_value_offset(self, c: float) -> float:
        """Radius bound on the offset between the exact central difference
        vector and the gradient, expressed as grad f evaluated at a shifted
        point: there is eps_x with ||eps_x|| <= mean_value_offset(c) such
        that the difference vector equals grad f(x + eps_x)."""

    def _squared_distance(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """||x - theta||**2, shape (..., d) -> (...)."""
        u = np.subtract(x, self.theta_array)
        np.multiply(u, u, out=u)
        return add_left_to_right([u[..., i] for i in range(u.shape[-1])], out=out)

    def __post_init__(self):
        """Store theta and the coefficients as floats, then raise the first
        problem of the coefficients, theta or the calibration inputs."""
        object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))
        for name in self.coefficients:
            object.__setattr__(self, name, float(getattr(self, name)))
        raise_first(
            coefficient_problems(self.b, getattr(self, "q", None))
            + theta_problems(self.theta, self.domain.lower, self.domain.upper)
            + calibration_problems(self.k5, self.s0)
        )


@dataclass(frozen=True)
class QuadraticBowl(ObjectiveSpec):
    """f(x) = a - b * ||x - theta||^2 with b > 0."""

    domain: Domain
    theta: tuple[float, ...]
    b: float
    a: float = 0.0
    k5: float = 1.0
    s0: int = 0

    kind = QUADRATIC_BOWL
    coefficients = ("a", "b")

    @cached_property
    def constants(self) -> ClassConstants:
        return ClassConstants(k1=2 * self.b, k2=2 * self.b, k3=self.b, k4=2 * self.b, k5=self.k5, s0=self.s0)

    def _value(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        r2 = self._squared_distance(x, out)
        return np.subtract(self.a, np.multiply(self.b, r2, out), out)

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        return -2.0 * self.b * (x - self.theta_array)

    def mean_value_offset(self, c: float) -> float:
        # Central differences are exact on quadratics.
        return 0.0


@dataclass(frozen=True)
class QuarticPerturbedBowl(ObjectiveSpec):
    """f(x) = a - b * ||x - theta||^2 - q * ||x - theta||^4 with b, q > 0.

    With R the largest distance from theta to the box, valid constants are
    k1 = 2b, k2 = 2b + 4qR^2, k3 = b + qR^2, k4 = 2b + 12qR^2.  The exact
    central-difference vector is grad f(x) - 4*q*c^2*(x - theta), which the
    mean-value offset bound 2*q*c^2*R/b accounts for; the offset stays
    below c^2 exactly when 2*q*R/b < 1, which construction enforces.
    """

    domain: Domain
    theta: tuple[float, ...]
    b: float
    q: float
    a: float = 0.0
    k5: float = 1.0
    s0: int = 0

    kind = QUARTIC_PERTURBED_BOWL
    coefficients = ("a", "b", "q")

    def __post_init__(self):
        super().__post_init__()
        if 2.0 * self.q * self.max_radius / self.b >= 1.0:
            raise ValueError(
                "quartic perturbation too strong for this box: need 2*q*R/b < 1, got "
                f"q={self.q}, b={self.b}, R={self.max_radius:.6g}"
            )

    @cached_property
    def max_radius(self) -> float:
        return self.domain.max_distance_from(self.theta)

    @cached_property
    def constants(self) -> ClassConstants:
        r2 = self.max_radius**2
        return ClassConstants(
            k1=2 * self.b,
            k2=2 * self.b + 4 * self.q * r2,
            k3=self.b + self.q * r2,
            k4=2 * self.b + 12 * self.q * r2,
            k5=self.k5,
            s0=self.s0,
        )

    def _value(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # a - b*r2 - (q*r2)*r2, in that order
        r2 = self._squared_distance(x)
        quartic = np.multiply(self.q, r2)
        quartic *= r2
        value = np.subtract(self.a, np.multiply(self.b, r2, out), out)
        return np.subtract(value, quartic, out)

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        r2 = self._squared_distance(x)[..., None]
        return -(2.0 * self.b + 4.0 * self.q * r2) * (x - self.theta_array)

    def mean_value_offset(self, c: float) -> float:
        return 2.0 * self.q * float(c) ** 2 * self.max_radius / self.b


def shared_kind(objectives) -> type[ObjectiveSpec]:
    """The class whose ``_value`` evaluates every one of ``objectives`` from
    their coefficient columns: their common class, or the quartic bowl for a
    mix of quadratic and quartic bowls.  A quadratic bowl is a quartic one
    with q = 0 bit for bit: (a - b*r2) - (0*r2)*r2 is a - b*r2 for finite r2.
    """
    kinds = {type(o) for o in objectives}
    if kinds == {QuadraticBowl, QuarticPerturbedBowl}:
        return QuarticPerturbedBowl
    if len(kinds) != 1:
        raise ValueError(f"objectives of kinds {sorted(k.__name__ for k in kinds)} cannot share one evaluation")
    return kinds.pop()
