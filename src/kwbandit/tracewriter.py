"""trace.csv's one schema, and the writer process that formats it.

``run`` starts this file as a script (``COMMAND``: ``python -I -S``, so it
loads neither NumPy, nor the package, nor site packages, and starts in
about 20 ms on a 2-vCPU Xeon, against about 65 ms for a bare ``python -c
pass``), with the partial trace file as its standard output.  ``run`` hands
each ``TraceBlock`` to the script's standard input as one frame (``send``),
and the script formats a block's rows while the engine simulates the next.
A full pipe makes ``send`` wait, so no queue grows; the script exits when
its input ends, so a parent that dies orphans no writer.

A frame is three native int64s, the block's first step, its step count n
and the dimension d, then the block's columns as raw native bytes:
episode (n int64), actions (n rows of d float64), inst and cum regret (n
float64 each) and boundary contact (n bytes, 0 or 1).  A row holds ``str``
of its ints, ``repr`` of its floats (full round-trip precision) and 1 or 0
for its contact; the header goes out with the block of step 1.
"""

import struct
import sys

COMMAND = (sys.executable, "-I", "-S", __file__)

_HEAD = struct.Struct("=qqq")


def header(d: int) -> str:
    """trace.csv's header line in ``d`` dimensions: its column names in order."""
    actions = [f"action_{i}" for i in range(d)]
    return ",".join(["step", "episode", *actions, "inst_regret", "cum_regret", "boundary_contact"]) + "\n"


def rows(first: int, episode, actions, inst_regret, cum_regret, contact, d: int) -> str:
    """The lines of steps ``first``, ``first + 1``, ... of trace.csv, from
    sequences of ints (``episode``, ``contact``) and floats (``actions``,
    row after row of ``d`` values, and the regret columns)."""
    line = "%d,%d," + "%r," * d + "%r,%r,%d\n"
    steps = range(first, first + len(episode))
    by_axis = (actions[i::d] for i in range(d))
    return "".join(map(line.__mod__, zip(steps, episode, *by_axis, inst_regret, cum_regret, contact)))


def send(pipe, block) -> None:
    """Write a ``TraceBlock`` to the writer's input ``pipe`` (a buffered
    binary file) as one frame, from the block's own buffers, without a
    copy, and flush it so the writer can format it at once."""
    n, d = block.actions.shape
    pipe.write(_HEAD.pack(block.first, n, d))
    for column in (block.episode, block.actions, block.inst_regret, block.cum_regret, block.boundary_contact):
        pipe.write(column)
    pipe.flush()


def main(source, sink) -> None:
    """Format every frame read from ``source`` into ``sink`` (binary files),
    until the input ends; a frame cut short means that its sender is gone."""
    while True:
        head = source.read(_HEAD.size)
        if len(head) < _HEAD.size:
            break
        first, n, d = _HEAD.unpack(head)
        size = 8 * n * (d + 3) + n
        body = memoryview(source.read(size))
        if len(body) < size:
            break
        episode = body[: 8 * n].cast("q")
        actions = body[8 * n : 8 * n * (d + 1)].cast("d")
        inst_regret = body[8 * n * (d + 1) : 8 * n * (d + 2)].cast("d")
        cum_regret = body[8 * n * (d + 2) : 8 * n * (d + 3)].cast("d")
        if first == 1:
            sink.write(header(d).encode())
        sink.write(rows(first, episode, actions, inst_regret, cum_regret, body[8 * n * (d + 3) :], d).encode())
    sink.flush()


if __name__ == "__main__":
    main(sys.stdin.buffer, sys.stdout.buffer)
