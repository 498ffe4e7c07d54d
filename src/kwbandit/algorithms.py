"""Configs of the three allocation rules and the decaying schedule.

The rules themselves (decaying-step, fixed-step and windowed ascent) run in
``trajectory.simulate_lanes``, which reads each rule's perturbation and
rate from tables built once per block of steps, such as
``decaying_schedule``'s.  All three share the same measurement primitive
(central differences) and keep every iterate inside the domain by Euclidean
projection, which is nonexpansive on a box and therefore preserves every
distance argument the tuning formulas rest on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .exceptions import raise_first
from .objectives import ClassConstants
from .tuning import contraction_factor

VANILLA = "vanilla"
FIXED_STEP = "fixed-step"
SLIDING_WINDOW = "sliding-window"

# The one buffer refresh rule; summary.csv names it in its ``refresh`` column.
RESTART = "restart"


def decaying_schedule(first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The perturbations s**(-1/4) and the rates s**(-1/2) of steps first ..
    first + count - 1, each (count,).  Every entry is Python's
    ``float(s) ** p`` (NumPy's ``power`` can round differently)."""
    if first < 1:
        raise ValueError(f"step must be >= 1, got {first}")
    steps = list(map(float, range(first, first + count)))
    perturbations = np.fromiter(map(float.__pow__, steps, repeat(-0.25)), float, count)
    return perturbations, np.fromiter(map(float.__pow__, steps, repeat(-0.5)), float, count)


def step_problems(beta: float | None = None, c: float | None = None, window: int | None = None) -> list[str]:
    """The value rules of the step rules' keys, of those given: beta > 0,
    c > 0 and window >= 1."""
    positive = (("beta", beta), ("c", c))
    problems = [f"{name} must be > 0, got {value}" for name, value in positive if value is not None and not value > 0]
    if window is not None and window < 1:
        problems.append(f"window must be >= 1, got {window}")
    return problems


@dataclass(frozen=True)
class FixedStepConfig:
    """Constant learning rate ``beta`` and perturbation ``c``.

    Construction rejects any (beta, constants) pair whose contraction
    factor is not below one: a fixed step that large cannot shrink the
    expected squared distance.
    """

    beta: float
    c: float
    constants: ClassConstants

    def __post_init__(self):
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "c", float(self.c))
        raise_first(step_problems(beta=self.beta, c=self.c))
        # Raises ContractionViolationError when beta is too large.
        contraction_factor(self.beta, self.constants.k1, self.constants.k2)

    @property
    def gamma(self) -> float:
        return contraction_factor(self.beta, self.constants.k1, self.constants.k2)


@dataclass(frozen=True)
class SlidingWindowConfig:
    """Finite-memory rule: at most ``window`` recent estimates shape the
    action, re-anchored at ``x0``.

    The action applies weights n**(-1/2) to the buffered estimates,
    oldest first, and projects:

        action = project(x0 + sum_n n**(-1/2) * y_(n))

    The buffer empties after ``window`` estimates and the rule restarts
    from the anchor.  This keeps the realized measurements
    identical to the restarted run they are weighted as, which is what
    makes the expected squared distance decay like 1/sqrt(window).

    ``c`` is the perturbation used for every window measurement (an
    estimate cannot retroactively change its c, so it is shared); the
    default window**(-1/4) matches the terminal value of the decaying
    schedule, but an L-independent c keeps the calibrated steady-distance
    constant flat across window lengths.
    """

    window: int
    x0: tuple[float, ...]
    c: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "window", int(self.window))
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        raise_first(step_problems(window=self.window))
        c = float(self.window) ** -0.25 if self.c is None else float(self.c)
        object.__setattr__(self, "c", c)
        raise_first(step_problems(c=c))

    def weights(self, filled: np.ndarray) -> np.ndarray:
        """The weight n**(-1/2) of the estimate that follows ``filled``
        estimates of a run, integers >= 0: n = filled % window + 1, since
        the buffer empties after each ``window`` estimates.  Only the
        requested weights are computed, however long the window."""
        return ((filled % self.window) + 1.0) ** -0.5
