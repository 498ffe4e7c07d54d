"""Axis-aligned box domains and Euclidean projection."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .exceptions import DomainViolationError, raise_first


def add_left_to_right(terms: Sequence[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """``terms[0] + terms[1] + ...``, added strictly left to right (into
    ``out`` when given): every squared length in kwbandit sums its squares
    here, so no memory layout, NumPy reduction or BLAS kernel moves a bit."""
    if len(terms) == 1:
        return np.positive(terms[0], out=out)
    total = np.add(terms[0], terms[1], out=out)
    for term in terms[2:]:
        total = np.add(total, term, out=out)
    return total


def bound_problems(lower: tuple[float, ...], upper: tuple[float, ...]) -> list[str]:
    """The value rules of a box's bounds: equal lengths, at least one axis,
    and on each axis finite bounds with lower < upper."""
    if len(lower) != len(upper):
        return [f"lower has {len(lower)} components, upper has {len(upper)}"]
    if not lower:
        return ["domain must have dimension >= 1"]
    problems = []
    for i, (a, b) in enumerate(zip(lower, upper)):
        if not (np.isfinite(a) and np.isfinite(b)):
            problems.append(f"axis {i}: bounds must be finite, got [{a}, {b}]")
        elif not a < b:
            problems.append(f"axis {i}: lower must be < upper, got [{a}, {b}]")
    return problems


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box in R^d with nonempty interior.

    ``diameter`` is the Euclidean length of ``upper - lower``; projection is
    the componentwise clamp, which is the Euclidean projection onto a box.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        raise_first(bound_problems(lo, hi))

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @cached_property
    def lower_array(self) -> np.ndarray:
        a = np.array(self.lower, dtype=float)
        a.flags.writeable = False
        return a

    @cached_property
    def upper_array(self) -> np.ndarray:
        a = np.array(self.upper, dtype=float)
        a.flags.writeable = False
        return a

    @cached_property
    def diameter(self) -> float:
        side = self.upper_array - self.lower_array
        return float(np.sqrt(add_left_to_right(side * side)))

    def contains(self, x) -> bool:
        arr = np.asarray(x, dtype=float)
        return bool(np.all(arr >= self.lower_array) and np.all(arr <= self.upper_array))

    def require_inside(self, x, what: str = "point") -> None:
        arr = np.asarray(x, dtype=float)
        if arr.shape[-1] != self.dimension:
            raise DomainViolationError(
                f"{what} has dimension {arr.shape[-1]}, domain has dimension {self.dimension}"
            )
        if not self.contains(arr):  # a NaN coordinate fails both comparisons
            raise DomainViolationError(f"{what} {arr.tolist()} lies outside the box {self.lower}..{self.upper}")

    def project(self, x) -> np.ndarray:
        """Componentwise clamp into the box; identity on interior points."""
        arr = np.asarray(x, dtype=float)
        return np.clip(arr, self.lower_array, self.upper_array)

    def max_distance_from(self, point) -> float:
        """Largest Euclidean distance from ``point`` to any point of the box.

        Attained at a corner: per axis the farther of the two endpoints.
        """
        p = np.asarray(point, dtype=float)
        per_axis = np.maximum(np.abs(p - self.lower_array), np.abs(self.upper_array - p))
        return float(np.sqrt(add_left_to_right(per_axis * per_axis)))
