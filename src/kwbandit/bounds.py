"""Evaluators for the theoretical regret and distance bounds.

Every evaluator is a pure formula; nothing here simulates.  Reports echo
their inputs and split the bound into named terms so tests can inspect
the internal structure (e.g. the 2:1 term ratio at the optimal window).
"""

from __future__ import annotations

import numpy as np

from .algorithms import step_problems
from .exceptions import raise_first
from .objectives import ClassConstants
from .records import Record
from .schedule import episode_problems
from .tuning import alpha_problems, contraction_factor, error_floor

FIXED_STEP_TOTAL = "fixed-step-total"
FIXED_STEP_NORMALIZED = "fixed-step-normalized"
SLIDING_WINDOW_EPISODE = "sliding-window-per-episode"
SLIDING_WINDOW_TOTAL = "sliding-window-total"
SLIDING_WINDOW_NORMALIZED = "sliding-window-normalized"


class BoundReport(Record):
    """A named bound value with its inputs and additive terms echoed."""

    _fields = ("name", "value", "inputs", "terms")

    def __init__(
        self, name: str, value: float, inputs: tuple[tuple[str, float], ...], terms: tuple[tuple[str, float], ...]
    ):
        inputs = tuple((key, float(val)) for key, val in inputs)
        terms = tuple((key, float(val)) for key, val in terms)
        self._set(name=name, value=float(value), inputs=inputs, terms=terms)
        if not (np.isfinite(self.value) and self.value >= 0.0):
            raise ValueError(f"bound {self.name} evaluated to {self.value}; must be finite and >= 0")

    def term(self, name: str) -> float:
        for key, val in self.terms:
            if key == name:
                return val
        raise KeyError(f"bound {self.name} has no term {name!r}")

    def input(self, name: str) -> float:
        for key, val in self.inputs:
            if key == name:
                return val
        raise KeyError(f"bound {self.name} has no input {name!r}")


def expected_distance_bound(
    s: int,
    beta: float,
    c: float,
    epsilon: float,
    constants: ClassConstants,
    sigma_tilde2: float,
    diameter: float,
    x0_dist2: float,
) -> float:
    """Closed-form bound on E||X_s - theta||^2 after s fixed-step updates:

        H(beta) * (1 - gamma**s) / (1 - gamma) + x0_dist2 * gamma**s
    """
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if x0_dist2 < 0:
        raise ValueError(f"x0_dist2 must be >= 0, got {x0_dist2}")
    gamma = contraction_factor(beta, constants.k1, constants.k2)
    floor = error_floor(beta, c, sigma_tilde2, diameter, constants.k4, constants.k2, epsilon)
    decay = gamma**s
    return floor * (1.0 - decay) / (1.0 - gamma) + x0_dist2 * decay


def fixed_step_regret_bound(
    constants: ClassConstants,
    diameter: float,
    sigma_tilde2: float,
    beta: float,
    c: float,
    epsilon: float,
    horizon: int,
    episodes: int,
) -> BoundReport:
    """Total-regret bound of the fixed-step rule over ``episodes`` pieces:

        H(beta)*k3*T/(1-gamma) + diameter**2 * episodes * k3/(1-gamma)

    The stationary case is episodes = 1.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    gamma = contraction_factor(beta, constants.k1, constants.k2)
    floor = error_floor(beta, c, sigma_tilde2, diameter, constants.k4, constants.k2, epsilon)
    tracking = floor * constants.k3 * horizon / (1.0 - gamma)
    switching = diameter**2 * episodes * constants.k3 / (1.0 - gamma)
    return BoundReport(
        name=FIXED_STEP_TOTAL,
        value=tracking + switching,
        inputs=(
            ("beta", beta),
            ("c", c),
            ("epsilon", epsilon),
            ("gamma", gamma),
            ("error_floor", floor),
            ("diameter", diameter),
            ("sigma_tilde2", sigma_tilde2),
            ("k3", constants.k3),
            ("horizon", float(horizon)),
            ("episodes", float(episodes)),
        ),
        terms=(("tracking", tracking), ("switching", switching)),
    )


def fixed_step_normalized_bound(
    constants: ClassConstants,
    diameter: float,
    sigma_tilde2: float,
    alpha: float,
    horizon: int,
    episodes: int,
) -> BoundReport:
    """Per-step regret bound of the optimally tuned fixed-step rule, as an
    explicit function of the change rate rho = episodes/horizon:

        (k3 / (2*k1)) * [ lam**alpha * rho**(1/(2+alpha))
                          + 2*diameter*k4*lam**alpha * rho**(1/(2+alpha))
                          + 2*lam**3 * rho**(3/(2+alpha))
                          + (diameter**2/lam) * rho**((1+alpha)/(2+alpha)) ]

    with lam = (diameter**2/sigma_tilde2)**(1/(2+alpha)).  Vanishes as
    rho -> 0, which is the asymptotic-efficiency statement.
    """
    raise_first(alpha_problems(alpha) + episode_problems(episodes, horizon))
    if diameter <= 0 or sigma_tilde2 <= 0:
        raise ValueError("diameter and sigma_tilde2 must be > 0")
    rho = episodes / horizon
    lam = (diameter**2 / sigma_tilde2) ** (1.0 / (2.0 + alpha))
    p1 = rho ** (1.0 / (2.0 + alpha))
    p3 = rho ** (3.0 / (2.0 + alpha))
    p1a = rho ** ((1.0 + alpha) / (2.0 + alpha))
    pre = constants.k3 / (2.0 * constants.k1)
    terms = (
        ("learning", pre * lam**alpha * p1),
        ("offset", pre * 2.0 * diameter * constants.k4 * lam**alpha * p1),
        ("noise", pre * 2.0 * lam**3 * p3),
        ("restart", pre * diameter**2 / lam * p1a),
    )
    return BoundReport(
        name=FIXED_STEP_NORMALIZED,
        value=sum(v for _, v in terms),
        inputs=(
            ("alpha", alpha),
            ("diameter", diameter),
            ("sigma_tilde2", sigma_tilde2),
            ("lambda", lam),
            ("horizon", float(horizon)),
            ("episodes", float(episodes)),
        ),
        terms=terms,
    )


def sliding_window_episode_bound(
    constants: ClassConstants, diameter: float, window: float, episode_length: int
) -> BoundReport:
    """Regret bound for one episode of length T_i under window length L:

        k3 * k5 * T_i / sqrt(L) + L * k3 * diameter
    """
    raise_first(step_problems(window=window))
    if episode_length < 0:
        raise ValueError(f"episode_length must be >= 0, got {episode_length}")
    tracking = constants.k3 * constants.k5 * episode_length / np.sqrt(window)
    adaptation = window * constants.k3 * diameter
    return BoundReport(
        name=SLIDING_WINDOW_EPISODE,
        value=tracking + adaptation,
        inputs=(
            ("window", float(window)),
            ("episode_length", float(episode_length)),
            ("k3", constants.k3),
            ("k5", constants.k5),
            ("diameter", diameter),
        ),
        terms=(("tracking", tracking), ("adaptation", adaptation)),
    )


def sliding_window_regret_bound(
    constants: ClassConstants, diameter: float, window: float, horizon: int, episodes: int
) -> BoundReport:
    """Total-regret bound of the windowed rule:

        k3 * k5 * T / sqrt(L) + L * k3 * diameter * episodes

    ``window`` may be real-valued so the bound can be inspected at the
    unrounded optimum.
    """
    raise_first(step_problems(window=window))
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    # float() overflows on an integer window too large for a float, which
    # np.sqrt would reject with a TypeError
    tracking = constants.k3 * constants.k5 * horizon / np.sqrt(float(window))
    switching = window * constants.k3 * diameter * episodes
    return BoundReport(
        name=SLIDING_WINDOW_TOTAL,
        value=tracking + switching,
        inputs=(
            ("window", float(window)),
            ("horizon", float(horizon)),
            ("episodes", float(episodes)),
            ("k3", constants.k3),
            ("k5", constants.k5),
            ("diameter", diameter),
        ),
        terms=(("tracking", tracking), ("switching", switching)),
    )


def sliding_window_normalized_bound(
    constants: ClassConstants, diameter: float, horizon: int, episodes: int
) -> BoundReport:
    """Per-step regret bound of the optimally windowed rule:

        k5**(2/3) * diameter**(1/3) * (episodes/horizon)**(1/3)
        * (2**(1/3) + 2**(-2/3))

    Strictly increasing in episodes/horizon and vanishing as it tends to
    zero (asymptotic efficiency).
    """
    raise_first(episode_problems(episodes, horizon))
    if diameter <= 0:
        raise ValueError(f"diameter must be > 0, got {diameter}")
    coefficient = 2.0 ** (1.0 / 3.0) + 2.0 ** (-2.0 / 3.0)
    rho = episodes / horizon
    value = constants.k5 ** (2.0 / 3.0) * diameter ** (1.0 / 3.0) * rho ** (1.0 / 3.0) * coefficient
    return BoundReport(
        name=SLIDING_WINDOW_NORMALIZED,
        value=value,
        inputs=(
            ("k5", constants.k5),
            ("diameter", diameter),
            ("horizon", float(horizon)),
            ("episodes", float(episodes)),
            ("coefficient", coefficient),
        ),
        terms=(("value", value),),
    )
