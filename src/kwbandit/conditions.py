"""Grid verification of the curvature/growth conditions an objective class
must satisfy for the regret guarantees to apply.

Four checks, each against a declared constant:

* ``curvature-lower-bound`` (k1):  (x-theta)' grad f(x) <= -k1 ||x-theta||^2
* ``gradient-growth``       (k2):  ||grad f(x)|| <= k2 ||x-theta||
* ``value-gap``             (k3):  f(theta) - f(x) <= k3 ||x-theta||^2
* ``gradient-lipschitz``    (k4):  ||grad f(x) - grad f(y)|| <= k4 ||x-y||
                                   over nearby grid pairs

The report carries, per check, whether the declared constant holds at
every grid point (pair) and the tightest constant the grid supports:
the smallest admissible value for k2/k3/k4 and the largest for k1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .domain import Domain
from .objectives import ClassConstants, ObjectiveSpec

_REL_TOL = 1e-9
# Largest grid verify_conditions builds; the neighbour pairs alone hold
# about (3**d - 1) / 2 index pairs per point on top of the points.
MAX_GRID_POINTS = 10**6

CURVATURE_LOWER_BOUND = "curvature-lower-bound"
GRADIENT_GROWTH = "gradient-growth"
VALUE_GAP = "value-gap"
GRADIENT_LIPSCHITZ = "gradient-lipschitz"


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of one condition over the whole grid."""

    name: str
    constant_name: str
    declared: float
    tightest: float
    holds: bool
    violations: int
    points_checked: int

    def describe(self) -> str:
        status = "holds" if self.holds else f"FAILS at {self.violations}/{self.points_checked} points"
        return (
            f"{self.name}: declared {self.constant_name}={self.declared:g}, "
            f"tightest {self.tightest:.9g} -> {status}"
        )


@dataclass(frozen=True)
class ConditionReport:
    kind: str
    grid_points_per_axis: int
    pair_radius: float
    checks: tuple[ConditionCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def check(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r}")

    def describe(self) -> str:
        head = f"{self.kind} on a {self.grid_points_per_axis}-per-axis grid:"
        return "\n".join([head] + ["  " + c.describe() for c in self.checks])


def _grid(domain: Domain, n: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, n) for lo, hi in zip(domain.lower, domain.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _neighbor_pairs(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs of grid points at most one grid step apart per axis.

    Offsets are deduplicated by keeping the lexicographically positive half.
    """
    idx = np.arange(n**d).reshape((n,) * d)
    left: list[np.ndarray] = []
    right: list[np.ndarray] = []
    for offset in product((-1, 0, 1), repeat=d):
        if offset <= (0,) * d:
            continue
        src = tuple(slice(0, n - 1) if o == 1 else slice(1, n) if o == -1 else slice(None) for o in offset)
        dst = tuple(slice(1, n) if o == 1 else slice(0, n - 1) if o == -1 else slice(None) for o in offset)
        left.append(idx[src].ravel())
        right.append(idx[dst].ravel())
    return np.concatenate(left), np.concatenate(right)


def verify_conditions(
    objective: ObjectiveSpec,
    grid_points_per_axis: int = 16,
    declared: ClassConstants | None = None,
) -> ConditionReport:
    """Check the declared constants of ``objective`` on a regular grid.

    ``declared`` defaults to the objective's own constants; pass custom
    constants to probe how tight they are.
    """
    if grid_points_per_axis < 2:
        raise ValueError(f"grid_points_per_axis must be >= 2, got {grid_points_per_axis}")
    consts = declared if declared is not None else objective.constants
    domain = objective.domain
    n, d = grid_points_per_axis, domain.dimension
    if n**d > MAX_GRID_POINTS:
        raise ValueError(
            f"a grid of {n} points per axis in dimension {d} has n**d = {n**d} points, "
            f"more than the budget of {MAX_GRID_POINTS}"
        )

    pts = _grid(domain, n)
    grads = objective._gradient(pts)
    values = objective._value(pts)
    u = pts - objective.theta_array
    r2 = objective._squared_distance(pts)
    scale = max(domain.diameter, 1.0)
    away = r2 > (1e-8 * scale) ** 2

    checks = []

    # (x-theta)' grad f <= -k1 r^2, i.e. ratio -(u . grad)/r^2 >= k1
    inner = np.sum(u * grads, axis=-1)
    ratio1 = -inner[away] / r2[away]
    tight1 = float(ratio1.min())
    bad1 = int(np.sum(ratio1 < consts.k1 * (1.0 - _REL_TOL)))
    checks.append(
        ConditionCheck(CURVATURE_LOWER_BOUND, "k1", consts.k1, tight1, bad1 == 0, bad1, int(away.sum()))
    )

    # ||grad f|| <= k2 r
    gnorm = np.linalg.norm(grads, axis=-1)
    ratio2 = gnorm[away] / np.sqrt(r2[away])
    tight2 = float(ratio2.max())
    bad2 = int(np.sum(ratio2 > consts.k2 * (1.0 + _REL_TOL)))
    checks.append(ConditionCheck(GRADIENT_GROWTH, "k2", consts.k2, tight2, bad2 == 0, bad2, int(away.sum())))

    # f(theta) - f(x) <= k3 r^2
    gaps = objective.max_value - values
    ratio3 = gaps[away] / r2[away]
    tight3 = float(ratio3.max())
    bad3 = int(np.sum(ratio3 > consts.k3 * (1.0 + _REL_TOL)))
    checks.append(ConditionCheck(VALUE_GAP, "k3", consts.k3, tight3, bad3 == 0, bad3, int(away.sum())))

    # ||grad f(x) - grad f(y)|| <= k4 ||x - y|| over neighbor pairs
    ia, ib = _neighbor_pairs(n, d)
    diff_g = np.linalg.norm(grads[ia] - grads[ib], axis=-1)
    diff_x = np.linalg.norm(pts[ia] - pts[ib], axis=-1)
    ratio4 = diff_g / diff_x
    tight4 = float(ratio4.max())
    bad4 = int(np.sum(ratio4 > consts.k4 * (1.0 + _REL_TOL)))
    checks.append(ConditionCheck(GRADIENT_LIPSCHITZ, "k4", consts.k4, tight4, bad4 == 0, bad4, ia.size))

    return ConditionReport(
        kind=objective.kind,
        grid_points_per_axis=n,
        pair_radius=float(diff_x.max()),
        checks=tuple(checks),
    )
