"""Piecewise-constant objective schedules.

A schedule serves one objective per episode.  Change times are the FIRST
step of their episode: with change_times = (1, 51) and horizon 100,
steps 1..50 see objective 0 and steps 51..100 see objective 1.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .exceptions import raise_first
from .objectives import ClassConstants, ObjectiveSpec


def change_time_problems(times: tuple[int, ...], horizon: int) -> list[str]:
    """The value rules of change times: the first is 1, they increase
    strictly, and they lie within [1, horizon]."""
    if not times:
        return ["change_times must contain at least the start time 1"]
    problems = []
    if times[0] != 1:
        problems.append(f"the first change time must be 1 (start of the first episode), got {times[0]}")
    if any(b <= a for a, b in zip(times, times[1:])):
        problems.append(f"change times must be strictly increasing, got {list(times)}")
    if times[-1] > horizon:
        problems.append(f"change times must lie in [1, horizon={horizon}], got {list(times)}")
    return problems


def episode_problems(episodes: int, horizon: int) -> list[str]:
    """The value rules of an episode count: at least 1, at most the horizon."""
    if episodes < 1:
        return [f"episodes must be >= 1, got {episodes}"]
    if episodes > horizon:
        return [f"cannot fit {episodes} episodes into horizon {horizon}"]
    return []


@dataclass(frozen=True)
class EnvironmentSchedule:
    """Objectives served over steps 1..horizon, constant within episodes."""

    horizon: int
    change_times: tuple[int, ...]
    objectives: tuple[ObjectiveSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "change_times", tuple(int(t) for t in self.change_times))
        object.__setattr__(self, "objectives", tuple(self.objectives))
        times = self.change_times
        raise_first(change_time_problems(times, self.horizon))
        if len(self.objectives) != len(times):
            raise ValueError(
                f"need one objective per episode: {len(times)} episodes but {len(self.objectives)} objectives"
            )
        domain = self.objectives[0].domain
        for i, obj in enumerate(self.objectives):
            if obj.domain != domain:
                raise ValueError(f"objective {i} uses a different domain than objective 0")
        for i, (a, b) in enumerate(zip(self.objectives, self.objectives[1:])):
            if a == b:
                raise ValueError(f"episodes {i + 1} and {i + 2} serve identical objectives; a change must change f")

    @property
    def domain(self):
        return self.objectives[0].domain

    @property
    def num_episodes(self) -> int:
        """Number of episodes up to the horizon (Delta_T)."""
        return len(self.change_times)

    @property
    def episode_lengths(self) -> tuple[int, ...]:
        ends = self.change_times[1:] + (self.horizon + 1,)
        return tuple(e - s for s, e in zip(self.change_times, ends))

    def episode_index(self, step: int) -> int:
        """1-based episode index of a step in [1, horizon]."""
        self._require_step(step)
        return bisect_right(self.change_times, step)

    def objective_at(self, step: int) -> ObjectiveSpec:
        """Objective served at a step; constant on each episode."""
        return self.objectives[self.episode_index(step) - 1]

    def combined_constants(self) -> ClassConstants:
        """Constants valid for every episode objective."""
        return ClassConstants.combine([o.constants for o in self.objectives])

    def max_mean_value_offset(self, c: float) -> float:
        """Gradient-offset radius valid for every episode objective."""
        return max(o.mean_value_offset(c) for o in self.objectives)

    def _require_step(self, step: int) -> None:
        if not 1 <= step <= self.horizon:
            raise ValueError(f"step must lie in [1, {self.horizon}], got {step}")

    @classmethod
    def stationary(cls, horizon: int, objective: ObjectiveSpec) -> "EnvironmentSchedule":
        """Single-episode schedule serving one objective throughout."""
        return cls(horizon=horizon, change_times=(1,), objectives=(objective,))

    @classmethod
    def evenly_spaced(
        cls, horizon: int, num_episodes: int, objectives: list[ObjectiveSpec]
    ) -> "EnvironmentSchedule":
        """``num_episodes`` episodes of near-equal length, cycling through
        ``objectives`` in order (so two alternating objectives give maximal
        back-and-forth jumps)."""
        raise_first(episode_problems(num_episodes, horizon))
        if not objectives:
            raise ValueError("need at least one objective")
        times = tuple(1 + (i * horizon) // num_episodes for i in range(num_episodes))
        served = tuple(objectives[i % len(objectives)] for i in range(num_episodes))
        return cls(horizon=horizon, change_times=times, objectives=served)
