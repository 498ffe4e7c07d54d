"""The per-step trace of one trajectory: the blocks the engine hands a
consumer as it runs, and the whole trace they join to.

The engine (``trajectory``) fills one ``TraceBlock`` per block of steps
and hands it to a ``TraceSink``; ``run`` writes each block to trace.csv as
it arrives, so no horizon-sized array exists, and ``simulate_batch`` with
``record_trace=True`` keeps the blocks and joins them into a
``RegretTrace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class TraceBlock:
    """Steps ``first`` .. ``first + len(inst_regret) - 1`` of one
    trajectory's trace, as the engine hands them to a consumer once per
    block: its ``episode`` (1-based), its ``actions`` (one row per step,
    the action taken at the step) and the regret columns and boundary
    contacts of ``RegretTrace``.  Each block's arrays are new, and the
    consumer's to keep."""

    first: int
    episode: np.ndarray
    actions: np.ndarray
    inst_regret: np.ndarray
    cum_regret: np.ndarray
    boundary_contact: np.ndarray

    @classmethod
    def empty(cls, change_times: np.ndarray, first: int, count: int, d: int) -> "TraceBlock":
        """An unfilled block of steps first .. first + count - 1 in d
        dimensions; its episode column comes from the schedule's change
        times."""
        steps = np.arange(first, first + count)
        return cls(
            first=first,
            episode=np.searchsorted(change_times, steps, side="right"),
            actions=np.empty((count, d)),
            inst_regret=np.empty(count),
            cum_regret=np.empty(count),
            boundary_contact=np.zeros(count, dtype=bool),
        )


# Receives a trace block by block, in step order.
TraceSink = Callable[[TraceBlock], None]


@dataclass(frozen=True)
class RegretTrace:
    """Per-step record of one trajectory: its trace blocks joined.

    ``actions[s-1]`` is the action taken at step s (the initial point for
    s = 1); ``inst_regret[s-1] = f_s(theta_s) - f_s(X_s)`` measured against
    the true objective, which the algorithm itself never sees.
    """

    actions: np.ndarray
    inst_regret: np.ndarray
    cum_regret: np.ndarray
    episode: np.ndarray
    boundary_contact: np.ndarray
    final_x: np.ndarray

    @property
    def horizon(self) -> int:
        return self.actions.shape[0]

    @property
    def total_regret(self) -> float:
        return float(self.cum_regret[-1])

    @classmethod
    def join(cls, blocks: list[TraceBlock], final_x: np.ndarray) -> "RegretTrace":
        """The trace of ``blocks``, in step order, left at ``final_x``."""
        columns = {
            name: np.concatenate([getattr(block, name) for block in blocks])
            for name in ("actions", "inst_regret", "cum_regret", "episode", "boundary_contact")
        }
        trace = cls(**columns, final_x=final_x.copy())
        for column in (*columns.values(), trace.final_x):
            column.flags.writeable = False
        return trace


def sink_for(record_trace: bool | TraceSink) -> tuple[TraceSink | None, list[TraceBlock] | None]:
    """The consumer of a lane's trace blocks: ``record_trace`` itself when it
    is one, or, when it is True, the ``append`` of the list returned with it,
    which keeps the blocks for ``RegretTrace.join``."""
    if callable(record_trace):
        return record_trace, None
    if record_trace:
        blocks: list[TraceBlock] = []
        return blocks.append, blocks
    return None, None
