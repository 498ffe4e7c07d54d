"""The step of each measuring rule, written once, and its two forms.

A rule family's step is one table (``_ASCENT``, shared by the decaying and
the fixed-step rules, or ``_WINDOW``) of elementwise operations on named
(d, rows) operands: the corners x + c and x - c, clamped one-sidedly into
the box; the evaluation of f at x and at the 2d perturbed points; the
central difference (v+ - v-) / 2c; the rule's update, with the window's
per-lane restarts; and the projection onto the box, ties going to the
bound, as in np.clip.  From the table, each form's step loop is generated
as Python source the first time a batch needs it, and kept for the life of
the process, one per rule family, dimension, noise and tracing:

- the array form (``Rows``) makes each operation one NumPy call on the
  batch's arrays (see ``trajectory``) and evaluates f through the objective
  kind's ``_value``;
- the float form (``Row``), for a batch of one row, unrolls each operation
  over the axes as the same IEEE-754 operation on Python floats, so every
  value is the array form's bit for bit.  It evaluates the two shipped
  bowls itself: every squared length adds its squares strictly left to
  right, and both bowls are ``a - b*r2 - (q*r2)*r2``, with q = 0.0 for the
  quadratic bowl, which for finite r2 is ``a - b*r2`` bit for bit
  (``objectives.shared_kind``).  A clamp is ``p if p < hi else hi``, never
  Python's ``min``: NumPy's ``minimum`` and ``maximum`` return their second
  operand when the two compare equal, as with 0.0 and -0.0.  The noise is
  added to each sample and to nothing else, so a batch without noise adds
  no 0.0, which would turn a -0.0 into 0.0.

Both forms answer ``open``, which reads a block's tables, and ``run(j,
stop)``, which runs steps j .. stop - 1 of the block, leaves the batch's
arrays up to date and returns the first step it did not run.  Python
floats signal no float error, so the float form keeps a step only when the
sum of the values that the table marks as checked is finite, which it is
only if each of them is: an overflow or a NaN anywhere in the step reaches
one of them.  Otherwise it stops before that step, for the array form to
run it, so NumPy warns or raises at the same step with the same text.
Python floats signal no underflow either, so the float form runs only
while NumPy ignores underflow, its default.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import cache
from itertools import repeat

import numpy as np

# A rule family's step, one row per elementwise operation over (d, rows)
# operands: (result, operation, left, right, checked).  ``c``, ``span`` (2c)
# and ``rate`` are the step's entries of the rule's tables; ``evaluate``
# stores f(x) and leaves the noisy samples at the corners in ``above`` and
# ``below``; ``restart`` empties the sums of the lanes that restart at the
# step; ``take`` gathers each row's lane entry of the step's rate.  The
# float form checks that the ``checked`` values (f(x) for ``evaluate``) are
# finite: the corners before their clamps and the trial point.
_PROJECT = (("step", "maximum", "trial", "lo", False), ("x", "minimum", "step", "hi", False))
_ASCENT = (
    ("plus", "add", "x", "c", True),
    ("plus", "minimum", "plus", "hi", False),
    ("minus", "subtract", "x", "c", True),
    ("minus", "maximum", "minus", "lo", False),
    ("samples", "evaluate", "plus", "minus", True),
    ("grad", "subtract", "above", "below", False),
    ("grad", "divide", "grad", "span", False),
    # x <- project(x + rate g)
    ("step", "multiply", "grad", "rate", False),
    ("trial", "add", "x", "step", True),
    *_PROJECT,
)
_WINDOW = _ASCENT[:7] + (
    # x <- project(anchor + sum_n n**(-1/2) g_n) over the estimates since the
    # lane's last restart
    ("sums", "restart", None, None, False),
    ("weight", "take", "rate", "lane_index", False),
    ("step", "multiply", "grad", "weight", False),
    ("sums", "add", "sums", "step", False),
    ("trial", "add", "anchor", "sums", True),
    *_PROJECT,
)
_CLAMPS = ("minimum", "maximum")
# each operation, named after its NumPy ufunc, on Python floats
_FLOAT_OPS = {
    "add": "{0} + {1}",
    "subtract": "{0} - {1}",
    "multiply": "{0} * {1}",
    "divide": "{0} / {1}",
    "minimum": "{0} if {0} < {1} else {1}",
    "maximum": "{0} if {0} > {1} else {1}",
}
_PER_STEP = ("c", "span", "rate")


def _float_source(program: tuple, d: int, noisy: bool, traced: bool) -> tuple[str, tuple]:
    """The source of ``steps(j, stop, state, tables, box, objective, values,
    actions)``, which runs steps j .. stop - 1 of a block from ``state``, x
    and, for the window, its sums.  Step j reads index j of the ``tables``
    ``cs``, ``spans`` and ``rates``, and with ``noisy`` its 2d values of the
    block's flat step-major ``noise``; a window restarts at the steps in
    ``restarts``.  ``box`` is the lower and the upper bounds and the
    window's anchor, and ``objective`` (a, b, q, theta...).  It appends each
    step's f(x) to ``values`` and, with ``traced``, its x to ``actions``,
    and returns the first step it did not run and the state before it.

    Each row of the table is a statement per axis, unless its value is read
    once, unchecked and not by a clamp, which reads it twice: then it is an
    expression, written in parentheses where it is read."""
    axes, window = range(d), program is _WINDOW
    state = ["x", "sums"][: 1 + window]
    # the reads of each (name, row that wrote it); the step's end reads the state
    reads, written = Counter(), {}
    for k, (result, op, left, right, _) in enumerate(program):
        for name in (left, right):
            reads[name, written.get(name)] += 2 if op in _CLAMPS else 1
        written[result] = k
    reads.update((name, written[name]) for name in state)
    value = {(name, i): f"{name}{i}" for name in ("x", "sums", "lo", "hi", "anchor") for i in axes}
    value.update(((name, i), name) for name in _PER_STEP for i in axes)
    start = [value[name, i] for name in state for i in axes]
    noise = "".join(f"e{k}, " for k in range(2 * d))
    lines = [
        "def steps(j, stop, state, tables, box, objective, values, actions):",
        "    cs, spans, rates, noise, restarts = tables",
        f"    {', '.join(start)}, = state",
        f"    {', '.join(value[name, i] for name in ('lo', 'hi', 'anchor')[: 2 + window] for i in axes)}, = box",
        f"    A, B, Q, {', '.join(f'th{i}' for i in axes)}, = objective",
        "    keep, act = values.append, actions.append",
        # the block's noise values, step by step, 2d at a time
        f"    drawn = iter(noise[{2 * d} * j : {2 * d} * stop])" if noisy else "",
        f"    for j, {noise}in zip(range(j, stop), {'drawn, ' * 2 * d}):" if noisy else "    for j in range(j, stop):",
        "        c, span, rate = cs[j], spans[j], rates[j]",
    ]
    checked = []
    for k, (result, op, left, right, check) in enumerate(program):
        if op == "evaluate":
            # the squares of x and of the clamped corners, then f(x) as fx and
            # the values at axis i's corners as ab_i and be_i
            for squares, point in (("s", "x"), ("ps", left), ("ms", right)):
                lines += [f"        u = {value[point, i]} - th{i}\n        {squares}{i} = u * u" for i in axes]
            points = [("fx", "s", 0, "")]
            for i in axes:
                points += [(f"ab{i}", "ps", i, f" + e{i}"), (f"be{i}", "ms", i, f" + e{d + i}")]
            for name, corner, i, e in points:
                terms = " + ".join(f"{corner if axis == i else 's'}{axis}" for axis in axes)
                lines.append(f"        r = {terms}\n        {name} = A - B * r - Q * r * r{e * noisy}")
            checked.append("fx")
            value.update({("above", i): f"ab{i}" for i in axes} | {("below", i): f"be{i}" for i in axes})
        elif op == "restart":
            # A restart empties the sum before the step adds to it; a step
            # that stops the loop leaves it empty, which the array form's
            # restart of the same step would do anyway.
            lines += ["        if j in restarts:", f"            {' = '.join(value[result, i] for i in axes)} = 0.0"]
        elif op == "take":
            value.update(((result, i), value[left, i]) for i in axes)
        else:
            for i in axes:
                expr = _FLOAT_OPS[op].format(value[left, i], value[right, i])
                value[result, i] = f"({expr})"
                if check or reads[result, k] != 1:
                    value[result, i] = f"{result}{k}_{i}"
                    lines.append(f"        {value[result, i]} = {expr}")
                    checked += [value[result, i]] * check
    lines += [
        f"        if not -INF < {' + '.join(checked)} < INF:",
        f"            return j, ({', '.join(start)},)",
        "        keep(fx)",
        *(f"        act(x{i})" for i in axes if traced),
        f"        {', '.join(start)}, = {', '.join(value[name, i] for name in state for i in axes)},",
        f"    return stop, ({', '.join(start)},)",
    ]
    return "\n".join(lines) + "\n", ()


def _array_source(program: tuple, d: int, noisy: bool, traced: bool) -> tuple[str, tuple]:
    """The source of ``steps(j, stop, by_step, restarts, actions, arrays)``,
    which runs steps j .. stop - 1 of a block, each reading its c, 2c, rate,
    row of f(x) and, with ``noisy``, slab of noise from ``by_step``, and
    returns ``stop``; and the names of ``arrays``, in order.  At d > 1 a
    ``take`` gathers the 1 + 2d points from the corners (x, plus, minus)."""
    names, body = {}, []

    def call(line: str, *used: str) -> None:
        body.append(f"        {line}")
        names.update(dict.fromkeys(used))

    for result, op, left, right, _ in program:
        if op == "evaluate":
            if d > 1:
                call('take(gather, None, points, "clip")', "take", "gather", "points")
            call("evaluate(objectives, at_points, flat_values)", "evaluate", "objectives", "at_points", "flat_values")
            call("f_x[...] = at_x", "at_x")
            if traced:
                call("actions[j] = x_traced", "x_traced")
            if noisy:
                call("add(samples, noise_j, samples)", "add", "samples")
        elif op == "restart":
            body += ["        if j in restarts:", "            for rows in restarts[j]:"]
            call(f"        {result}[:, rows] = 0.0", result)
        elif op == "take":
            call(f'{left}.take({right}, None, {result}, "clip")', right, result)
        else:
            call(f"{op}({left}, {right}, {'out=' * (op in _CLAMPS)}{result})", op, left, right, result)
    names = tuple(name for name in names if name not in _PER_STEP)
    lines = [
        "def steps(j, stop, by_step, restarts, actions, arrays):",
        f"    {', '.join(names)}, = arrays",
        f"    for j, (c, span, rate, f_x{', noise_j' * noisy}) in zip(range(j, stop), by_step):",
        *body,
        "    return stop",
    ]
    return "\n".join(lines) + "\n", names


@cache
def _compiled(emit, window: bool, d: int, noisy: bool, traced: bool):
    """The compiled ``steps`` that ``emit`` writes, and its array names."""
    source, names = emit(_WINDOW if window else _ASCENT, d, noisy, traced)
    flags = f"{'window' if window else 'ascent'} d={d}{' noisy' * noisy}{' traced' * traced}"
    namespace = {"INF": float("inf")}
    exec(compile(source, f"<kwbandit.steploop {emit.__name__} {flags}>", "exec"), namespace)
    return namespace["steps"], names


def _by_step(table: np.ndarray, start: int, count: int):
    """The operand of each of steps start .. count - 1 from a table of
    ``trajectory._Rule.tables``: the one (d, rows) entry of a table by row,
    or entry j of a table by step, 0-d when the table is (count,)."""
    if len(table) == 1:
        return repeat(table[0, ...], count - start)
    return map(table.__getitem__, zip(range(start, count), repeat(Ellipsis)))


def _per_step(table, count: int):
    """The float of each of ``count`` steps from a table of one row: a
    memoryview of a table by step, or a table by row's one float, repeated."""
    column = table.reshape(len(table), -1)[:, 0]
    return memoryview(column) if len(column) == count else column.tolist() * count


class Rows:
    """The array form of ``rule``'s step (``trajectory._Rule``) over the
    batch's ``arrays``, which with the rule's own map each name that the
    step reads to its array or callable."""

    def __init__(self, rule, noisy: bool, traced: bool, arrays: dict):
        arrays = {**vars(rule), **arrays, **{name: getattr(np, name) for name in _FLOAT_OPS}}
        self.steps, names = _compiled(_array_source, rule.window, len(rule.lo), noisy, traced)
        self.arrays, self.noisy = tuple(arrays[name] for name in names), noisy

    def open(self, count: int, cs, spans, rates, noise, restarts, f_x, actions, start: int = 0) -> None:
        """Reads the block of ``count`` steps from its step ``start`` on: the
        rule's tables, the block's step-major noise, (count, 2d, rows), its
        restarts by step, its rows of f(x) and its trace's actions, or None."""
        tables = [_by_step(table, start, count) for table in (cs, spans, rates)] + [f_x[start:]]
        self.by_step = zip(*tables, *([noise[start:]] if self.noisy else []))
        self.restarts, self.actions = restarts, actions

    def run(self, j: int, stop: int) -> int:
        return self.steps(j, stop, self.by_step, self.restarts, self.actions, self.arrays)


class Row:
    """The float form of ``rule``'s step over a batch of one row, whose
    state it holds as Python floats and writes back after each run: ``x``,
    the (d, 1) iterate, and the window's sums.  ``current[0]`` is the row's
    objective."""

    def __init__(self, rule, noisy: bool, traced: bool, x, current):
        self.x, self.sums, self.noisy, self.current = x, getattr(rule, "sums", None), noisy, current
        self.steps, _ = _compiled(_float_source, rule.window, len(x), noisy, traced)
        sums, anchor = ([self.sums], [rule.anchor]) if rule.window else ([], [])
        self.state = np.concatenate([x, *sums])[:, 0].tolist()
        self.box = np.concatenate([rule.lo, rule.hi, *anchor])[:, 0].tolist()
        self.objective, self.values, self.actions = None, array("d"), array("d")

    def open(self, count: int, cs, spans, rates, noise, restarts, f_x, actions) -> None:
        """Reads the block of ``count`` steps as ``Rows.open`` does.  The
        tables and the noise are read through memoryviews, which make a float
        of a value only as a step reads it, so the block holds no Python
        float of its own."""
        self.tables = [_per_step(table, count) for table in (cs, spans, rates)]
        self.tables += [noise.reshape(-1).data if self.noisy else None, restarts]
        self.f_x, self.trace = f_x, actions

    def run(self, j: int, stop: int) -> int:
        """Runs steps j .. stop - 1, or up to a step that meets a value that
        is not finite, and writes x, the window's sums and the steps' f(x)
        and traced x into the engine's arrays."""
        objective = self.current[0]
        if objective is not self.objective:
            self.objective = objective
            self.coefficients = (objective.a, objective.b, getattr(objective, "q", 0.0), *objective.theta)
        first, d = j, len(self.x)
        j, self.state = self.steps(
            j, stop, self.state, self.tables, self.box, self.coefficients, self.values, self.actions
        )
        if j > first:
            self.f_x[first:j, 0] = self.values
            if self.trace is not None:
                self.trace[first:j] = np.frombuffer(self.actions).reshape(-1, d)
            del self.values[:], self.actions[:]
        self.x[:, 0] = self.state[:d]
        if self.sums is not None:
            self.sums[:, 0] = self.state[d:]
        return j
