"""The per-step trace of one trajectory: the blocks the engine hands a
consumer as it runs, and the whole trace they join to.

The engine (``trajectory``) fills one ``TraceBlock`` per block of steps
and hands it to a ``TraceSink``; ``run`` sends each block to a writer
process (``tracewriter``) as it arrives, so no horizon-sized array exists,
and ``simulate_batch`` with ``record_trace=True`` keeps the blocks and
joins them into a ``RegretTrace``: the one block of steps 1 .. T, with
the point the trajectory ends at.  ``TraceBlock`` declares the columns
once, for both.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np


class TraceBlock(NamedTuple):
    """Steps ``first`` .. ``first + len(inst_regret) - 1`` of one
    trajectory's trace, as the engine hands them to a consumer once per
    block.  Row ``s - first`` of each column is step s: its ``episode``
    (1-based), its action (the initial point at s = 1), its regret
    ``f_s(theta_s) - f_s(X_s)`` against the true objective, which the
    algorithm itself never sees, the regret summed through s, and whether
    the action plus or minus c left the box.  Each block's arrays are new,
    and the consumer's to keep."""

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


class RegretTrace(NamedTuple("RegretTrace", [*TraceBlock.__annotations__.items(), ("final_x", np.ndarray)])):
    """Per-step record of one trajectory: its trace blocks joined into the
    block of steps 1 .. T, the columns of a ``TraceBlock``, and
    ``final_x``, the point it ends at."""

    __slots__ = ()

    @property
    def horizon(self) -> int:
        return self.actions.shape[0]

    @property
    def total_regret(self) -> float:
        return float(self.cum_regret[-1])

    @classmethod
    def join(cls, blocks: list[TraceBlock], final_x: np.ndarray) -> "RegretTrace":
        """The trace of ``blocks``, in step order, left at ``final_x``."""
        columns = [np.concatenate(column) for column in list(zip(*blocks))[1:]]  # every column but ``first``
        trace = cls(1, *columns, final_x.copy())
        for column in (*columns, trace.final_x):
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
