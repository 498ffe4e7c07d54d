"""Configs of the three allocation rules and the decaying schedule.

The rules themselves (decaying-step, fixed-step and windowed ascent) run
in ``trajectory.simulate_lanes``.  All three share the same measurement
primitive (central differences) and keep every iterate inside the domain
by Euclidean projection, which is nonexpansive on a box and therefore
preserves every distance argument the tuning formulas rest on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import ClassConstants
from .tuning import contraction_factor

VANILLA = "vanilla"
FIXED_STEP = "fixed-step"
SLIDING_WINDOW = "sliding-window"

# The one buffer refresh rule; summary.csv names it in its ``refresh`` column.
RESTART = "restart"


def vanilla_step_size(step: int) -> float:
    """Decaying learning rate step**(-1/2) of the classic schedule."""
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    return float(step) ** -0.5


def vanilla_perturbation(step: int) -> float:
    """Decaying perturbation step**(-1/4) of the classic schedule."""
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    return float(step) ** -0.25


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
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.c <= 0:
            raise ValueError(f"c must be > 0, got {self.c}")
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
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        c = float(self.window) ** -0.25 if self.c is None else float(self.c)
        object.__setattr__(self, "c", c)
        if c <= 0:
            raise ValueError(f"c must be > 0, got {c}")

    def weights(self, filled: np.ndarray) -> np.ndarray:
        """The weight n**(-1/2) of the estimate that follows ``filled``
        estimates of a run, integers >= 0: n = filled % window + 1, since
        the buffer empties after each ``window`` estimates.  Only the
        requested weights are computed, however long the window."""
        return ((filled % self.window) + 1.0) ** -0.5
