import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest

from kwbandit import (
    ConfigValidationError,
    Experiment,
    parse_config,
    parse_sweep,
    regret_lanes,
    regret_samples,
    run_experiment,
    run_sweep,
    simulate_batch,
    simulate_lanes,
)
from kwbandit import montecarlo, runner, trajectory
from kwbandit.cli import main
from kwbandit.config import with_overrides
from kwbandit.rng import StreamChunk
from kwbandit.runner import resolve_experiment
from kwbandit.traces import TraceBlock


def data_lines(path: Path) -> list[str]:
    return path.read_text().splitlines()[1:]


def cells(row) -> str:
    """``row`` as a CSV line, formatted as the drivers write it."""
    return ",".join(runner._fmt(value) for value in astuple(row))


def base_doc(**overrides):
    doc = {
        "domain": {"lower": [-2.0], "upper": [2.0]},
        "objectives": [{"kind": "quadratic-bowl", "theta": [0.0], "b": 1.0}],
        "noise": {"kind": "none"},
        "algorithm": {"variant": "fixed-step", "beta": 0.1, "c": 0.1, "x0": [1.0]},
        "horizon": 100,
        "replications": 1,
        "base_seed": 7,
    }
    doc.update(overrides)
    return doc


class TestRunExperiment:
    def test_noiseless_matches_geometric_closed_form(self, tmp_path):
        cfg = parse_config(json.dumps(base_doc()))
        result = run_experiment(cfg, out_dir=tmp_path)
        closed_form = sum(0.64 ** (s - 1) for s in range(1, 101))
        assert result.mean_regret == pytest.approx(closed_form, rel=1e-9)
        assert result.stderr_regret == 0.0

    def test_csv_bytes_deterministic(self, tmp_path, monkeypatch):
        doc = base_doc(noise={"kind": "gaussian", "sigma2": 1.0}, replications=130)
        cfg = parse_config(json.dumps(doc))
        run_experiment(cfg, out_dir=tmp_path / "a")
        monkeypatch.setattr(montecarlo, "REPLICATION_CHUNK", 8)
        run_experiment(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a/trace.csv").read_bytes() == (tmp_path / "b/trace.csv").read_bytes()
        assert (tmp_path / "a/summary.csv").read_bytes() == (tmp_path / "b/summary.csv").read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        doc = base_doc(noise={"kind": "gaussian", "sigma2": 1.0}, replications=4)
        cfg = parse_config(json.dumps(doc))
        a = run_experiment(cfg, out_dir=None)
        b = run_experiment(with_overrides(cfg, seed=99), out_dir=None)
        assert a.mean_regret != b.mean_regret

    def test_oracle_trace_all_zero(self, tmp_path):
        doc = base_doc(algorithm={"variant": "oracle"})
        cfg = parse_config(json.dumps(doc))
        result = run_experiment(cfg, out_dir=tmp_path)
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "step,episode,action_0,inst_regret,cum_regret,boundary_contact"
        cum_col = [line.split(",")[4] for line in lines[1:]]
        assert set(cum_col) == {"0.0"}
        assert result.mean_regret == 0.0

    def test_trace_csv_round_trips_floats(self, tmp_path):
        cfg = parse_config(json.dumps(base_doc()))
        run_experiment(cfg, out_dir=tmp_path)
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        actions = np.array([float(line.split(",")[2]) for line in lines[1:]])
        resolved = resolve_experiment(cfg)
        trace = simulate_batch(
            resolved.policy, resolved.env, resolved.noise, StreamChunk(cfg.base_seed, 1), record_trace=True
        ).trace
        assert np.array_equal(actions, trace.actions[:, 0])

    def test_result_holds_no_trace(self):
        # the trace streams to trace.csv; holding it would grow with the horizon
        assert "trace" not in {f.name for f in fields(runner.SummaryRow)}

    def test_returns_the_row_it_writes(self, tmp_path):
        doc = base_doc(noise={"kind": "gaussian", "sigma2": 1.0}, replications=4)
        row = run_experiment(parse_config(json.dumps(doc)), out_dir=tmp_path)
        assert data_lines(tmp_path / runner.SUMMARY_CSV) == [cells(row)]

    def test_returns_the_same_row_without_an_out_dir(self, tmp_path):
        cfg = parse_config(json.dumps(base_doc(noise={"kind": "gaussian", "sigma2": 1.0}, replications=4)))
        assert run_experiment(cfg) == run_experiment(cfg, out_dir=tmp_path)

    def test_trace_csv_does_not_depend_on_the_batch_width(self, tmp_path):
        """At 1,100 replications the traced row shares a 1,024-row batch,
        whose noise blocks span 28 steps, against 4,096 at one replication:
        trace.csv is the same bytes."""
        doc = base_doc(
            domain={"lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
            objectives=[
                {"kind": "quadratic-bowl", "theta": [0.5, -0.5], "b": 1.0},
                {"kind": "quartic-perturbed-bowl", "theta": [-0.5, 0.25], "b": 1.0, "q": 0.05},
            ],
            schedule={"episodes": 5},
            noise={"kind": "uniform-bounded", "sigma2": 0.3},
            algorithm={"variant": "vanilla", "x0": [1.0, -1.0]},
            horizon=4500,
        )
        cfg = parse_config(json.dumps(doc))
        run_experiment(cfg, out_dir=tmp_path / "one")
        run_experiment(with_overrides(cfg, replications=1100), out_dir=tmp_path / "wide")
        assert (tmp_path / "one/trace.csv").read_bytes() == (tmp_path / "wide/trace.csv").read_bytes()

    @pytest.mark.parametrize("variant", ["fixed-step", "static"])
    def test_traced_memory_does_not_grow_with_the_horizon(self, variant, tmp_path):
        """A traced one-replication run at 8,000 and at 40,000 steps peaks
        within 64 KiB: the trace streams out block by block."""
        algorithm = {"variant": "fixed-step", "beta": 0.1, "c": 0.1, "x0": [1.0]}
        if variant == "static":
            algorithm = {"variant": "static", "x0": [1.0]}
        doc = base_doc(
            objectives=[
                {"kind": "quadratic-bowl", "theta": [0.5], "b": 1.0},
                {"kind": "quadratic-bowl", "theta": [-0.5], "b": 1.0},
            ],
            schedule={"episodes": 4},
            noise={"kind": "gaussian", "sigma2": 1.0},
            algorithm=algorithm,
        )
        peaks = []
        for horizon in (8000, 40_000):
            cfg = parse_config(json.dumps({**doc, "horizon": horizon}))
            tracemalloc.start()
            try:
                run_experiment(cfg, out_dir=tmp_path / str(horizon))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 64 * 1024, peaks

    def test_failed_run_leaves_no_csv(self, tmp_path, monkeypatch, capsys):
        """The engine runs out of memory after handing over its first trace
        block: the run exits 2 with one line, and --out holds no CSV, not
        even the partial trace."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps(base_doc(horizon=10_000)))
        blocks = []

        def second_block_fails(*args):
            blocks.append(args)
            if len(blocks) == 2:
                raise MemoryError("no room for the second block")
            return empty(*args)

        empty = TraceBlock.empty
        monkeypatch.setattr(TraceBlock, "empty", second_block_fails)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["out of memory: no room for the second block"]
        assert len(blocks) == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("ending", ["finishes", "engine-fails", "writer-fails"])
    def test_every_run_reaps_its_trace_writer(self, ending, tmp_path, monkeypatch):
        """However a run ends, its trace writer has exited and been reaped by
        the time ``main`` returns, so this process has no child left."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps(base_doc(horizon=10_000)))
        out = tmp_path / "out"
        if ending == "engine-fails":
            monkeypatch.setattr(TraceBlock, "empty", fail_on_the_second_call(TraceBlock.empty))
        if ending == "writer-fails":
            trace_on_a_full_disk(out)
        assert main(["run", "--config", str(config), "--out", str(out)]) == (0 if ending == "finishes" else 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_failed_trace_writer_is_one_line_and_leaves_no_csv(self, tmp_path, capsys):
        """The writer fails to write (the disk is full) and exits with a
        traceback: the run exits 2 with the traceback's last line, and --out
        holds neither CSV nor the partial trace."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps(base_doc(horizon=10_000)))
        out = tmp_path / "out"
        trace_on_a_full_disk(out)
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["i/o error: trace writer failed: OSError: [Errno 28] No space left on device"]
        assert list(out.iterdir()) == []

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads a process's state from /proc")
    def test_a_killed_run_orphans_no_trace_writer(self, tmp_path):
        """A process hands its trace writer one block and is killed: the
        writer, whose input has ended, writes that block and exits."""
        script = f"""
import os
import numpy as np
from kwbandit import runner
from kwbandit.traces import TraceBlock
spawn = os.posix_spawn
def spawned(*args, **kwargs):
    pid = spawn(*args, **kwargs)
    print(pid, flush=True)
    return pid
os.posix_spawn = spawned
with runner._trace_writer({str(tmp_path / "trace.csv")!r}) as sink:
    block = TraceBlock.empty(np.array([1]), 1, 3, 1)
    block.actions[...] = block.inst_regret[...] = block.cum_regret[...] = 0.5
    sink(block)
    os.kill(os.getpid(), 9)
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        killed = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60)
        assert killed.returncode == -9, killed.stderr
        stat = Path(f"/proc/{int(killed.stdout)}/stat")
        deadline = time.monotonic() + 30
        while stat.exists() and stat.read_text().rpartition(")")[2].split()[0] not in ("Z", "X"):
            assert time.monotonic() < deadline, "the orphaned writer still runs"
            time.sleep(0.01)
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        assert rows[1:] == ["1,1,0.5,0.5,0.5,0", "2,1,0.5,0.5,0.5,0", "3,1,0.5,0.5,0.5,0"]

    @pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="reads a process's descriptors from /proc")
    def test_a_noise_worker_holds_only_its_two_pipes(self, tmp_path, monkeypatch, worker_forks):
        """A traced run's noise worker, in its third block, holds its ends
        of its two pipes and nothing else it inherited: not the trace
        writer's input, nor the standard streams."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps(base_doc(noise={"kind": "gaussian", "sigma2": 1.0}, horizon=50)))
        monkeypatch.setattr(trajectory, "_NOISE_BLOCK_STEPS", 7)
        tables, held = trajectory._Ascent.tables, []

        def third_block_looks(self, first, count):
            if first == 15:
                fds = Path(f"/proc/{worker_forks[0]}/fd")
                held.extend(os.readlink(fds / fd) for fd in os.listdir(fds))
            return tables(self, first, count)

        monkeypatch.setattr(trajectory._Ascent, "tables", third_block_looks)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert len(worker_forks) == 1
        assert len(held) == 2 and all(target.startswith("pipe:") for target in held), held

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads a process's state from /proc")
    def test_a_killed_sweep_leaves_no_noise_worker(self, tmp_path):
        """A sweep is killed in its third noise block, while its worker
        waits for a buffer: the worker, whose pipe from the parent has
        ended, exits."""
        doc = base_doc(noise={"kind": "gaussian", "sigma2": 1.0}, replications=3)
        doc["sweep"] = {"axis": "T", "values": [50, 100, 200]}
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(doc))
        script = f"""
import os
import kwbandit.trajectory as traj
from kwbandit.cli import main
traj._WORKER_VALUES, traj._NOISE_BLOCK_STEPS = 0, 7
fork, tables, blocks = os.fork, traj._Ascent.tables, []
def forked():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
def third_block_kills(self, first, count):
    blocks.append(first)
    if len(blocks) == 3:
        os.kill(os.getpid(), 9)
    return tables(self, first, count)
os.fork, traj._Ascent.tables = forked, third_block_kills
main(["sweep", "--config", {str(config)!r}, "--out", {str(tmp_path / "out")!r}])
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        killed = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60)
        assert killed.returncode == -9, killed.stderr
        stat = Path(f"/proc/{int(killed.stdout)}/stat")
        deadline = time.monotonic() + 30
        while stat.exists() and stat.read_text().rpartition(")")[2].split()[0] not in ("Z", "X"):
            assert time.monotonic() < deadline, "the orphaned noise worker still runs"
            time.sleep(0.01)

    def test_summary_has_bound_and_tuning(self, tmp_path):
        doc = base_doc(
            schedule={"episodes": 1},
            noise={"kind": "gaussian", "sigma2": 1.0},
            algorithm={"variant": "fixed-step", "tuning": "auto", "x0": [1.0]},
            replications=2,
        )
        result = run_experiment(parse_config(json.dumps(doc)), out_dir=tmp_path)
        header, row = (tmp_path / "summary.csv").read_text().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["tuning"] == "auto"
        assert float(record["beta"]) == result.beta
        assert record["bound_name"] == "fixed-step-total"
        assert float(record["bound_value"]) == result.bound_value
        # alpha = 1 couples the perturbation to 1
        assert float(record["c"]) == 1.0

    def test_lf_line_endings(self, tmp_path):
        run_experiment(parse_config(json.dumps(base_doc())), out_dir=tmp_path)
        raw = (tmp_path / "trace.csv").read_bytes()
        assert b"\r" not in raw

    def test_auto_needs_stochastic_noise(self):
        doc = base_doc(schedule={"episodes": 1}, algorithm={"variant": "fixed-step", "tuning": "auto", "x0": [1.0]})
        with pytest.raises(ConfigValidationError, match="auto tuning failed"):
            run_experiment(parse_config(json.dumps(doc)), out_dir=None)

    def test_window_must_exceed_burn_in(self):
        doc = base_doc(
            objectives=[{"kind": "quadratic-bowl", "theta": [0.0], "b": 1.0, "s0": 10}],
            algorithm={"variant": "sliding-window", "window": 5, "x0": [0.0]},
        )
        with pytest.raises(ConfigValidationError, match="burn-in"):
            run_experiment(parse_config(json.dumps(doc)), out_dir=None)


class TestResolveExperiment:
    def test_auto_window_uses_declared_constant(self):
        doc = base_doc(
            schedule={"episodes": 8},
            horizon=1000,
            objectives=[
                {"kind": "quadratic-bowl", "theta": [-0.5], "b": 1.0, "k5": 16.0},
                {"kind": "quadratic-bowl", "theta": [0.5], "b": 1.0, "k5": 16.0},
            ],
            algorithm={"variant": "sliding-window", "tuning": "auto", "x0": [0.0]},
        )
        resolved = resolve_experiment(parse_config(json.dumps(doc)))
        # (16 / (2*4) * 1000/8)**(2/3) = 250**(2/3) ~ 39.7 -> 40
        assert resolved.echo.window == 40
        assert resolved.bound.name == "sliding-window-total"


def fail_on_the_second_call(empty):
    """``TraceBlock.empty`` that runs out of memory on its second call."""
    calls = []

    def second_call_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise MemoryError("no room for the second block")
        return empty(*args)

    return second_call_fails


def trace_on_a_full_disk(out):
    """Make ``out``'s partial trace a link to a device that is always full."""
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    out.mkdir()
    (out / "trace.csv.partial").symlink_to("/dev/full")


def stub_constant_totals(monkeypatch, total):
    """Every replication of a sweep point totals ``total(env)``, without simulating."""

    def constant(experiments):
        return [(np.full(e.replications, total(e.env)), {}) for e in experiments]

    monkeypatch.setattr(runner, "regret_lanes", constant)


class TestRunSweep:
    def sweep(self, axis="T", values=(100, 200, 400)):
        doc = base_doc(
            schedule={"episodes": 1},
            noise={"kind": "gaussian", "sigma2": 1.0},
            algorithm={"variant": "fixed-step", "tuning": "auto", "x0": [1.0]},
            replications=4,
        )
        doc["sweep"] = {"axis": axis, "values": list(values)}
        return parse_sweep(json.dumps(doc))

    def test_injected_constant_values_fit_zero_slope(self, tmp_path, monkeypatch):
        stub_constant_totals(monkeypatch, lambda env: 5.0 * env.horizon)
        _, fit = run_sweep(self.sweep(), out_dir=tmp_path)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        lines = (tmp_path / "exponent_fit.csv").read_text().splitlines()
        assert lines[0] == "axis,n_points,slope,r_squared"
        assert lines[1].startswith("T,3,")

    def test_one_summary_row_per_value(self, tmp_path, monkeypatch):
        stub_constant_totals(monkeypatch, lambda env: float(env.horizon))
        run_sweep(self.sweep(), out_dir=tmp_path)
        lines = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_returns_the_rows_it_writes(self, tmp_path):
        points, fit = run_sweep(self.sweep(), out_dir=tmp_path)
        assert data_lines(tmp_path / runner.SWEEP_SUMMARY_CSV) == [cells(point) for point in points]
        assert data_lines(tmp_path / runner.EXPONENT_FIT_CSV) == [cells(fit)]

    def test_chunk_invariance(self, tmp_path, monkeypatch):
        sweep = self.sweep()
        sweep = replace(sweep, base=with_overrides(sweep.base, replications=20))
        _, a = run_sweep(sweep, out_dir=tmp_path / "a")
        monkeypatch.setattr(montecarlo, "REPLICATION_CHUNK", 8)
        _, b = run_sweep(sweep, out_dir=tmp_path / "b")
        assert (tmp_path / "a/sweep_summary.csv").read_bytes() == (tmp_path / "b/sweep_summary.csv").read_bytes()
        assert a.slope == b.slope

    @pytest.mark.parametrize(
        "axis, values, algorithm",
        [
            ("T", [120, 200, 300], {"variant": "fixed-step", "tuning": "auto", "x0": [1.0]}),
            ("delta_T", [1, 3, 6], {"variant": "sliding-window", "tuning": "auto", "x0": [0.0], "c": 0.5}),
        ],
        ids=["T-fixed-step", "delta_T-sliding-window"],
    )
    def test_lanes_give_each_point_the_samples_it_has_alone(self, axis, values, algorithm, monkeypatch):
        doc = base_doc(
            horizon=300,
            schedule={"episodes": 1},
            noise={"kind": "gaussian", "sigma2": 1.0},
            objectives=[
                {"kind": "quadratic-bowl", "theta": [-0.5], "b": 1.0, "k5": 2.0},
                {"kind": "quartic-perturbed-bowl", "theta": [0.5], "b": 1.0, "q": 0.05, "k5": 2.0},
            ],
            algorithm=algorithm,
            replications=10,
        )
        doc["sweep"] = {"axis": axis, "values": values}
        sweep = parse_sweep(json.dumps(doc))
        experiments = []
        for index, value in enumerate(values):
            r = resolve_experiment(sweep.config_for(value))
            experiments.append(Experiment(r.policy, r.env, r.noise, 10, r.config.base_seed, seed_path=(index,)))
        alone = [regret_samples(e.policy, e.env, e.noise, 10, e.base_seed, e.seed_path)[0] for e in experiments]

        together = regret_lanes(experiments)
        monkeypatch.setattr(montecarlo, "REPLICATION_CHUNK", 7)  # 30 rows in batches of 7: pieces of lanes
        split = regret_lanes(experiments)
        for samples in (together, split):
            assert [totals.tobytes() for totals, _ in samples] == [totals.tobytes() for totals in alone]

    @pytest.mark.parametrize(
        "axis, values, algorithm",
        [
            ("delta_T", [2, 4, 8], {"variant": "sliding-window", "tuning": "auto", "x0": [0.0], "c": 0.5}),
            ("L", [20, 40, 80], {"variant": "sliding-window", "window": 40, "x0": [0.0], "c": 0.5}),
        ],
        ids=["delta_T", "L"],
    )
    def test_points_of_one_horizon_share_batches(self, axis, values, algorithm, tmp_path, monkeypatch):
        """The points of a delta_T or an L sweep share one horizon, so their
        rows run as one ``simulate_lanes`` call per batch, and the CSV bytes
        are those of running each point alone, whatever the chunk size."""
        doc = base_doc(
            horizon=300,
            schedule={"episodes": 1},
            noise={"kind": "gaussian", "sigma2": 1.0},
            objectives=[
                {"kind": "quadratic-bowl", "theta": [-0.5], "b": 1.0, "k5": 2.0},
                {"kind": "quartic-perturbed-bowl", "theta": [0.5], "b": 1.0, "q": 0.05, "k5": 2.0},
            ],
            algorithm=algorithm,
            replications=10,
        )
        doc["sweep"] = {"axis": axis, "values": values}
        sweep = parse_sweep(json.dumps(doc))

        def artifacts(name):
            run_sweep(sweep, out_dir=tmp_path / name)
            return [(tmp_path / name / csv).read_bytes() for csv in ("sweep_summary.csv", "exponent_fit.csv")]

        def one_at_a_time(experiments):
            return [regret_samples(e.policy, e.env, e.noise, e.replications, e.base_seed, e.seed_path) for e in experiments]

        with monkeypatch.context() as patch:
            patch.setattr(runner, "regret_lanes", one_at_a_time)
            alone = artifacts("alone")

        calls = []

        def lanes_call(lanes, noise):
            calls.append(("lanes", [len(lane.rngs) for lane in lanes]))
            return simulate_lanes(lanes, noise)

        def batch_call(policy, env, noise, rngs, *args):
            calls.append(("batch", [len(rngs)]))
            return simulate_batch(policy, env, noise, rngs, *args)

        monkeypatch.setattr(montecarlo, "simulate_lanes", lanes_call)
        monkeypatch.setattr(montecarlo, "simulate_batch", batch_call)
        assert artifacts("together") == alone
        assert calls == [("lanes", [10, 10, 10])]

        calls.clear()
        monkeypatch.setattr(montecarlo, "REPLICATION_CHUNK", 7)  # 30 rows in batches of 7: pieces of lanes
        assert artifacts("split") == alone
        assert calls == [("batch", [7]), ("lanes", [3, 4]), ("lanes", [6, 1]), ("batch", [7]), ("batch", [2])]

    def test_delta_axis_scale_is_change_rate(self, tmp_path, monkeypatch):
        doc = base_doc(
            horizon=1000,
            schedule={"episodes": 2},
            noise={"kind": "gaussian", "sigma2": 1.0},
            objectives=[
                {"kind": "quadratic-bowl", "theta": [-0.5], "b": 1.0},
                {"kind": "quadratic-bowl", "theta": [0.5], "b": 1.0},
            ],
            algorithm={"variant": "fixed-step", "tuning": "auto", "x0": [0.0]},
            replications=2,
        )
        doc["sweep"] = {"axis": "delta_T", "values": [2, 4, 8]}
        stub_constant_totals(monkeypatch, lambda env: 1.0)
        points, _ = run_sweep(parse_sweep(json.dumps(doc)))
        assert [p.scale for p in points] == [0.002, 0.004, 0.008]
