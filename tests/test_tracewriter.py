import io
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kwbandit import tracewriter
from kwbandit.traces import TraceBlock

# -0.0, the smallest subnormal, the largest subnormal, the smallest normal
# and the largest finite float, with their negatives
EDGE_FLOATS = [-0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS + [-x for x in EDGE_FLOATS]))


@st.composite
def trace_blocks(draw):
    """One to three consecutive blocks of one trace, in 1 to 4 dimensions,
    with random finite float64 columns."""
    d = draw(st.integers(1, 4))
    first = draw(st.sampled_from([1, 2, 4097, 2**53 - 4]))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 12))
        column = st.lists(FLOATS, min_size=n, max_size=n).map(np.array)
        blocks.append(
            TraceBlock(
                first=first,
                episode=np.array(draw(st.lists(st.integers(1, 2**62), min_size=n, max_size=n)), dtype=np.intp),
                actions=np.array(draw(st.lists(FLOATS, min_size=n * d, max_size=n * d))).reshape(n, d),
                inst_regret=draw(column),
                cum_regret=draw(column),
                boundary_contact=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
            )
        )
        first += n
    return blocks


def expected_csv(blocks):
    """trace.csv as the schema states it: str of each int, repr of each
    float, 1 or 0 for each contact, and the header before step 1."""
    lines = []
    d = blocks[0].actions.shape[1]
    if blocks[0].first == 1:
        lines.append(",".join(["step", "episode", *(f"action_{i}" for i in range(d)), "inst_regret", "cum_regret", "boundary_contact"]))
    for block in blocks:
        for j in range(len(block.episode)):
            floats = [*block.actions[j].tolist(), block.inst_regret[j].item(), block.cum_regret[j].item()]
            ints = [block.first + j, block.episode[j].item()]
            lines.append(",".join([*map(str, ints), *map(repr, floats), "1" if block.boundary_contact[j] else "0"]))
    return "".join(line + "\n" for line in lines).encode()


def frames(blocks) -> bytes:
    pipe = io.BytesIO()
    for block in blocks:
        tracewriter.send(pipe, block)
    return pipe.getvalue()


def run_writer(data: bytes) -> bytes:
    """The writer's output for ``data`` on its input, run in this process."""
    out = io.BytesIO()
    tracewriter.main(io.BytesIO(data), out)
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(blocks=trace_blocks())
def test_rows_are_repr_and_str_of_each_cell(blocks):
    assert run_writer(frames(blocks)) == expected_csv(blocks)


def test_a_frame_cut_short_ends_the_output_after_the_last_whole_frame():
    blocks = [TraceBlock.empty(np.array([3]), first, 4, 2) for first in (1, 5)]
    for block in blocks:
        block.actions[...] = block.inst_regret[...] = block.cum_regret[...] = 0.25
    data = frames(blocks)
    # inside the second frame's head, then inside its body
    for cut in (len(data) // 2 + 3, len(data) - 1):
        assert run_writer(data[:cut]) == expected_csv(blocks[:1])


def test_the_writer_loads_neither_numpy_nor_kwbandit():
    """The writer as a process: it formats a frame, and its sys.modules
    holds no numpy and no kwbandit module (printed to stderr)."""
    block = TraceBlock.empty(np.array([2]), 1, 3, 1)
    block.actions[...] = block.inst_regret[...] = block.cum_regret[...] = 0.5
    *interpreter, script = tracewriter.COMMAND
    run = "import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__'); print(*sys.modules, file=sys.stderr)"
    done = subprocess.run([*interpreter, "-c", run, script], input=frames([block]), capture_output=True, timeout=60, check=True)
    assert done.stdout == expected_csv([block])
    modules = done.stderr.decode().split()
    assert "struct" in modules
    assert not [name for name in modules if name.partition(".")[0] in ("numpy", "kwbandit")]
