"""Closed-form tuning quantities: contraction factor, per-step error
floor, and the step size / window length minimizing the regret bounds.

All functions are pure.
"""

from __future__ import annotations

import math

from .exceptions import ContractionViolationError, MeanValueConditionError, raise_first
from .schedule import episode_problems


def alpha_problems(alpha: float) -> list[str]:
    """The value rule of the rate exponent: alpha lies in (0, 1]."""
    return [] if 0.0 < alpha <= 1.0 else [f"alpha must lie in (0, 1], got {alpha}"]


def contraction_factor(beta: float, k1: float, k2: float) -> float:
    """gamma = 1 - 2*beta*k1 + 2*beta**2*k2**2, required < 1.

    Raises ContractionViolationError when the result is >= 1 (beta too
    large, or degenerate beta <= 0, where the factor is at least 1).
    """
    if k1 <= 0 or k2 <= 0:
        raise ValueError(f"k1 and k2 must be > 0, got k1={k1}, k2={k2}")
    gamma = 1.0 - 2.0 * beta * k1 + 2.0 * beta**2 * k2**2
    if gamma >= 1.0:
        raise ContractionViolationError(
            f"contraction factor {gamma:.6g} >= 1 for beta={beta:.6g} (need beta < k1/k2**2 = {k1 / k2**2:.6g})"
        )
    return gamma


def error_floor(
    beta: float,
    c: float,
    sigma_tilde2: float,
    diameter: float,
    k4: float,
    k2: float,
    epsilon: float,
) -> float:
    """Per-step additive floor of the squared-distance recursion:

        H(beta) = beta**2 * sigma_tilde2 / c**2
                + 2 * diameter * k4 * beta * epsilon
                + 2 * beta**2 * k2**2 * epsilon**2

    ``epsilon`` is the gradient-offset radius of the central differences
    and must stay below c**2.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if c <= 0:
        raise ValueError(f"c must be > 0, got {c}")
    if sigma_tilde2 < 0:
        raise ValueError(f"sigma_tilde2 must be >= 0, got {sigma_tilde2}")
    if diameter <= 0 or k4 <= 0 or k2 <= 0:
        raise ValueError("diameter, k4 and k2 must be > 0")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if epsilon >= c * c:
        raise MeanValueConditionError(f"epsilon must be < c**2 = {c * c:.6g}, got {epsilon:.6g}")
    return beta**2 * sigma_tilde2 / c**2 + 2.0 * diameter * k4 * beta * epsilon + 2.0 * beta**2 * k2**2 * epsilon**2


def optimal_step_size(
    diameter: float, sigma_tilde2: float, alpha: float, horizon: int, episodes: int
) -> float:
    """Step size minimizing the fixed-step regret bound:

        beta* = (diameter**2 / sigma_tilde2)**(1/(2+alpha))
                * (episodes / horizon)**(1/(2+alpha))

    The stationary tuning is the special case episodes = 1.
    """
    if diameter <= 0:
        raise ValueError(f"diameter must be > 0, got {diameter}")
    if sigma_tilde2 <= 0:
        raise ValueError(f"sigma_tilde2 must be > 0, got {sigma_tilde2}")
    raise_first(alpha_problems(alpha) + episode_problems(episodes, horizon))
    exponent = 1.0 / (2.0 + alpha)
    prefactor = (diameter**2 / sigma_tilde2) ** exponent
    return prefactor * (episodes / horizon) ** exponent


def coupled_perturbation(beta: float, alpha: float) -> float:
    """Perturbation c with beta = c**(2/(1-alpha)): c = beta**((1-alpha)/2).

    At alpha = 1 the coupling degenerates to c = 1.
    """
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    raise_first(alpha_problems(alpha))
    return beta ** ((1.0 - alpha) / 2.0)


def optimal_window(k5: float, diameter: float, horizon: int, episodes: int) -> int:
    """Window length minimizing the windowed regret bound:

        L* = round((k5 / (2 * diameter) * horizon / episodes)**(2/3))

    rounded to the nearest integer, at least 1.
    """
    if k5 <= 0 or diameter <= 0:
        raise ValueError(f"k5 and diameter must be > 0, got k5={k5}, diameter={diameter}")
    raise_first(episode_problems(episodes, horizon))
    raw = (k5 / (2.0 * diameter) * horizon / episodes) ** (2.0 / 3.0)
    return max(1, int(math.floor(raw + 0.5)))
