"""The step loop of a batch of one row, on Python floats.

At one row each NumPy call of ``trajectory._measure``'s step works on
arrays of one element and costs its fixed overhead, about 0.4 us, some 22
times a step.  A batch of one row therefore runs its steps here, as
Python floats: each operation is the IEEE-754 operation that the array
loop does, on the same operands in the same order, so every value is the
array loop's bit for bit.

- A corner is x + c and x - c, clamped one-sidedly, as the array loop
  clamps it.  NumPy's ``minimum`` and ``maximum`` return their second
  operand when the two compare equal, as with 0.0 and -0.0, so a clamp is
  ``p if p < hi else hi``, never Python's ``min``.
- Every squared length adds its squares strictly left to right, and both
  bowls are ``a - b*r2 - (q*r2)*r2``, with q = 0.0 for the quadratic bowl:
  for finite r2 that is ``a - b*r2`` bit for bit (``objectives.shared_kind``).
- The noise is added to each sample and to nothing else, so a batch
  without noise adds no 0.0, which would turn a -0.0 into 0.0.

Python float arithmetic signals no float error, so a step keeps its
results only when the sum of its corners before the clamp, its f(x) and
its trial points before the projection is finite, which it is only if
each of them is: an overflow or a NaN anywhere in the step reaches one of
them.  Otherwise ``Row.run`` stops before that step, and the array loop
runs it and the rest of the batch from the same state, so NumPy warns or
raises at the same step with the same text.  Underflow is
not seen at all, so ``trajectory._measure`` uses this loop only while
NumPy ignores underflow, its default.

The step of each rule family (the ascent shared by the decaying and the
fixed-step rules, or the sliding window), dimension and noise is source
unrolled over the axes (``_source``), compiled the first time a batch
needs it and kept for the life of the process.  A point's squared
length has d terms and a step has 1 + 2d points, so its source and its
time grow as d squared; beyond
``trajectory._FLOAT_AXES`` axes the array loop runs the batch, so at most
2 x 2 x ``_FLOAT_AXES`` functions are kept.
"""

from __future__ import annotations

from array import array
from functools import cache

import numpy as np


def _source(window: bool, d: int, noisy: bool) -> str:
    """The source of ``steps(j, stop, state, cs, rates, noise, restarts,
    box, objective, values, actions)``, which runs steps j .. stop - 1 of a
    block from ``state``, the iterate x and, for the window, its running
    sum.  It reads step j's perturbation c and rate or weight at index j of
    ``cs`` and ``rates`` and, with ``noisy``, its 2d noise values, plus axis
    by axis then minus, from index 2dj of the block's flat ``noise``, and
    forms its span 2.0 * c, as the array loop's block does; a window
    restarts at the steps in ``restarts``.  ``box`` is the lower bounds, the
    upper bounds and the window's anchor, and ``objective`` is (a, b, q,
    theta...).  It appends each step's f(x) to
    ``values`` and its x, axis by axis, to ``actions``, and returns the
    first step it did not run and the state before it."""
    axes = range(d)
    x = [f"x{i}" for i in axes]
    state = x + [f"z{i}" for i in axes] if window else x
    box = [f"{bound}{i}" for bound in ("lo", "hi", "an")[: 3 if window else 2] for i in axes]
    noise = [f"e{k}" for k in range(2 * d)]
    squares = [f"s{i}" for i in axes]

    def value(terms: list[str], noise: str = "") -> tuple[str, str]:
        # f at the point whose squares are ``terms``, added left to right
        return f"r = {' + '.join(terms)}", f"A - B * r - Q * r * r{noise}"

    lines = [
        "def steps(j, stop, state, cs, rates, noise, restarts, box, objective, values, actions):",
        f"    {', '.join(state)}, = state",
        f"    {', '.join(box)}, = box",
        f"    A, B, Q, {', '.join(f'th{i}' for i in axes)}, = objective",
        "    keep, act = values.append, actions.append",
    ]
    if noisy:
        # the block's noise values, step by step, 2d at a time
        lines += [
            f"    drawn = iter(noise[{2 * d} * j : {2 * d} * stop])",
            f"    for j, {', '.join(noise)}, in zip(range(j, stop), {', '.join(['drawn'] * 2 * d)}):",
        ]
    else:
        lines.append("    for j in range(j, stop):")
    lines.append("        c = cs[j]")
    for i in axes:
        lines += [
            f"        u = x{i} - th{i}",
            f"        s{i} = u * u",
            f"        p{i} = x{i} + c",
            f"        u = (p{i} if p{i} < hi{i} else hi{i}) - th{i}",
            f"        ps{i} = u * u",
            f"        m{i} = x{i} - c",
            f"        u = (m{i} if m{i} > lo{i} else lo{i}) - th{i}",
            f"        ms{i} = u * u",
        ]
    sums, f_x = value(squares)
    lines += [f"        {sums}", f"        fx = {f_x}", "        span = 2.0 * c"]
    for i in axes:
        plus, minus = list(squares), list(squares)
        plus[i], minus[i] = f"ps{i}", f"ms{i}"
        plus_sums, plus_value = value(plus, f" + e{i}" if noisy else "")
        minus_sums, minus_value = value(minus, f" + e{d + i}" if noisy else "")
        lines += [
            f"        {plus_sums}",
            f"        v = {plus_value}",
            f"        {minus_sums}",
            f"        g{i} = (v - ({minus_value})) / span",
        ]
    lines.append("        rate = rates[j]")
    if window:
        # A restart empties the sum before the step adds to it; a step
        # that stops the loop leaves it empty, which the array loop's
        # restart of the same step would do anyway.
        lines += ["        if j in restarts:", f"            {' = '.join(state[d:])} = 0.0"]
        for i in axes:
            lines += [f"        w{i} = z{i} + g{i} * rate", f"        y{i} = an{i} + w{i}"]
    else:
        lines += [f"        y{i} = x{i} + g{i} * rate" for i in axes]
    checked = [f"p{i} + m{i}" for i in axes] + ["fx"] + [f"y{i}" for i in axes]
    lines += [
        f"        if not -INF < {' + '.join(checked)} < INF:",
        f"            return j, ({', '.join(state)},)",
        "        keep(fx)",
        *(f"        act(x{i})" for i in axes),
    ]
    if window:
        lines += [f"        z{i} = w{i}" for i in axes]
    for i in axes:
        lines += [f"        y{i} = y{i} if y{i} > lo{i} else lo{i}", f"        x{i} = y{i} if y{i} < hi{i} else hi{i}"]
    lines.append(f"    return stop, ({', '.join(state)},)")
    return "\n".join(lines) + "\n"


@cache
def _steps(window: bool, d: int, noisy: bool):
    """The compiled ``steps`` of ``_source``, built once per process."""
    name = f"<kwbandit.floatloop {'window' if window else 'ascent'} d={d}{' noisy' if noisy else ''}>"
    namespace = {"INF": float("inf")}
    exec(compile(_source(window, d, noisy), name, "exec"), namespace)
    return namespace["steps"]


def _per_step(table, count: int):
    """The one float of each of ``count`` steps from a table of
    ``trajectory._Rule.tables`` over one row: a table by step, (count, ...),
    holds one per step, which a memoryview reads as a float when indexed,
    and a table by row, (1, d, 1), one for every axis and step."""
    column = table.reshape(len(table), -1)[:, 0]
    return memoryview(column) if len(column) == count else column.tolist() * count


class Row:
    """The state of a batch of one row as Python floats, and its step
    loop.  ``x`` is the batch's (d, 1) iterate and, for the sliding window,
    ``sums`` its running sum, both of which ``sync`` brings up to date, and
    ``anchor`` its (d, 1) anchor; ``lower`` and ``upper`` are the box's
    bounds by axis."""

    def __init__(self, noisy: bool, x, lower, upper, sums=None, anchor=None):
        window = sums is not None
        self.x, self.sums, self.noisy = x, sums, noisy
        self.steps = _steps(window, len(x), noisy)
        self.state = x[:, 0].tolist() + (sums[:, 0].tolist() if window else [])
        self.box = [*lower, *upper, *(anchor[:, 0].tolist() if window else ())]
        self.objective, self.coefficients = None, None
        self.values, self.actions = array("d"), array("d")

    def open(self, first: int, count: int, cs, rates, noise, restarts) -> None:
        """Reads the block of ``count`` steps from step ``first``: the rule's
        tables, its step-major noise, (count, 2d, 1), and its restarts, a
        collection of steps.  The tables and the noise are read through
        memoryviews, which make a float of a value only as a step reads it,
        so the block holds no Python float of its own."""
        self.tables = (
            _per_step(cs, count),
            _per_step(rates, count),
            memoryview(noise.reshape(-1)) if self.noisy else None,
            {s - first for s in restarts},
        )

    def run(self, j: int, stop: int, objective) -> int:
        """Runs steps j .. stop - 1 of the block on ``objective``; returns
        the first step it did not run, which is ``stop`` unless that step
        met a value that is not finite."""
        if objective is not self.objective:
            self.objective = objective
            self.coefficients = (objective.a, objective.b, getattr(objective, "q", 0.0), *objective.theta)
        tables, box, coefficients = self.tables, self.box, self.coefficients
        j, self.state = self.steps(j, stop, self.state, *tables, box, coefficients, self.values, self.actions)
        return j

    def sync(self, j: int, f_x, actions) -> None:
        """Writes x, the window's sum and, into the block's rows before
        step j, the f(x) and, unless ``actions`` is None, the x of the
        steps run since the last sync."""
        d = len(self.x)
        if self.values:
            first = j - len(self.values)
            f_x[first:j, 0] = self.values
            if actions is not None:
                actions[first:j] = np.frombuffer(self.actions).reshape(-1, d)
            del self.values[:], self.actions[:]
        self.x[:, 0] = self.state[:d]
        if self.sums is not None:
            self.sums[:, 0] = self.state[d:]
