"""kwbandit benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload sweep-stationary --seed 0 --seconds 35 --trace 0

Run it from the root of a kwbandit checkout; kwbandit is imported from
``src/``.  Each pass of the workload is a fresh child process, repeated
until ``--seconds`` have passed.  Every output is checked: against the
recorded reference (``perfbench/reference.json``) when the seed has one,
otherwise against the run's first pass.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

    python3 perfbench/run.py --record 0 1 2

records the reference outputs of every workload for the given seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import SCAN_BASELINE, SCAN_STREAM_METRIC, config_text, scan_name
from tracer import busy_s, layer_metrics
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WORK_DIR = ".perfbench_work"
MIN_PASSES = 3
MIN_TRACED_RUN_PASSES = 4
CHILD_TIMEOUT_S = 150.0
# Median gauge time (see child.gauge) on the machine the README's figures
# come from: 2 vCPUs, Intel Xeon 2.1 GHz, Python 3.11.7, numpy 2.4.6.
GAUGE_REFERENCE_S = 0.17
# What the installed `kwbandit` console script runs.
CLI_ENTRY = "import sys; from kwbandit.cli import main; sys.exit(main())"
# Engine and stream costs measured when the project roadmap was last re-anchored.
ROADMAP_BASELINE = (
    (scan_name("fixed-step", 1, 1), 66_000.0, "ns/rep-step"),
    (scan_name("fixed-step", 1, 64), 1045.0, "ns/rep-step"),
    (scan_name(*SCAN_BASELINE), 213.0, "ns/rep-step"),
    (SCAN_STREAM_METRIC, 13.0, "us/stream"),
    ("rng.us_per_stream", 13.0, "us/stream"),
)


@dataclass
class Pass:
    traced: bool
    wall_s: float
    rss_mb: float
    attempted: int
    failed: int
    latencies_s: list[float]
    outputs: object = None
    snapshot: dict | None = None


@dataclass
class Outcome:
    passes: list[Pass] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    gauge_s: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def machine_facts(root: Path) -> dict:
    """Facts about the machine and the code measured, read without side effects."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "kwbandit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "loadavg_at_start": loadavg,
    }


def spawn(cmd: list[str], env: dict, cwd: Path, log: Path) -> tuple[float, float, int]:
    """Run a child to completion: (wall seconds, peak RSS in MB, exit code).

    Wall time runs from spawning to reaping; the peak resident set comes
    from the rusage ``wait4`` returns for the child.  Linux carries the
    parent's high-water mark across ``exec``, so the parent must stay
    smaller than any child: it does not import numpy and streams the files
    it checks.
    """
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=sink, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def digest_outputs(out_dir: Path, names: list[str]) -> dict[str, str] | None:
    """sha256 of each expected output file, or None if one is missing."""
    digests = {}
    for name in names:
        path = out_dir / name
        if not path.is_file():
            return None
        with open(path, "rb") as handle:
            digests[name] = hashlib.file_digest(handle, "sha256").hexdigest()
    return digests


def csv_shape_ok(out_dir: Path, inputs: dict) -> bool:
    """Row counts and column counts the workload's CSVs must have."""
    rows_expected = {
        "sweep_summary.csv": len(inputs["config"].get("sweep", {}).get("values", ())),
        "exponent_fit.csv": 1,
        "summary.csv": 1,
        "trace.csv": inputs["config"]["horizon"],
    }
    for name in inputs["outputs"]:
        with open(out_dir / name, newline="", encoding="utf-8") as handle:
            rows = csv.reader(handle)
            width = len(next(rows, ()))
            count = 0
            for row in rows:
                if len(row) != width:
                    return False
                count += 1
        if not width or count != rows_expected[name]:
            return False
    return True


def tail_latency(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and that
    percentile.  With fewer than 40 values, a quarter of them (rounded up)
    must lie beyond it: the slowest of a few CLI invocations is one load
    spike on a shared machine, not a property of the program."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(10, (n + 3) // 4, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


@contextlib.contextmanager
def work_dir(root: Path, name: str):
    """A directory for one run's files under the checkout, removed afterwards."""
    work = root / WORK_DIR / name
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            (root / WORK_DIR).rmdir()


def gauge_threads(inputs: dict) -> int:
    """Threads the workload computes on.  ``kwbandit sweep`` at the CLI's
    automatic ``--threads`` runs its points on one thread per CPU; a single
    replication or a library call at its default runs on one."""
    if inputs.get("command") == "sweep":
        return min(os.cpu_count() or 1, len(inputs["config"]["sweep"]["values"]))
    return 1


def load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


class Bench:
    """Runs the passes of one workload on one seed and checks their outputs."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int, reference: dict | None):
        self.root, self.work, self.seed = root, work, seed
        self.inputs = make_inputs(workload, seed)
        self.expected = reference
        self.python = sys.executable
        pythonpath = [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self.inputs_path = work / "inputs.json"
        self.inputs_path.write_text(json.dumps(self.inputs, indent=1), encoding="utf-8")
        if self.inputs["kind"] == "cli":
            self.config_path = work / "config.json"
            self.config_path.write_text(config_text(self.inputs), encoding="utf-8")
        self.count = 0
        self.gauge_threads = gauge_threads(self.inputs)

    def _child(self, *args: str) -> list[str]:
        return [self.python, str(HERE / "child.py"), *args]

    def setup_sample(self, outcome: Outcome) -> float | None:
        """Wall time of one child that imports kwbandit and sets the workload up."""
        cmd = self._child("setup", "--inputs", str(self.inputs_path))
        wall, _, code = spawn(cmd, self.env, self.root, self.work / "setup.log")
        if code != 0:
            outcome.errors.append(f"set-up child exited {code}: {self._log_tail('setup.log')}")
            return None
        return wall

    def gauge_sample(self, outcome: Outcome) -> float | None:
        """The speed gauge's time in a fresh child (see ``child.gauge``)."""
        out = self.work / "gauge.json"
        cmd = self._child("gauge", "--out", str(out), "--threads", str(self.gauge_threads))
        _, _, code = spawn(cmd, self.env, self.root, self.work / "gauge.log")
        if code != 0:
            outcome.errors.append(f"gauge child exited {code}: {self._log_tail('gauge.log')}")
            return None
        return json.loads(out.read_text(encoding="utf-8"))["gauge_s"]

    def _log_tail(self, name: str) -> str:
        lines = (self.work / name).read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    def _check(self, outputs, outcome: Outcome) -> list[bool]:
        """Per-operation pass/fail against the reference, or the first pass."""
        if self.expected is None:
            self.expected = outputs
            outcome.notes.append(
                f"no recorded reference for seed {self.seed}: every pass is checked against the first one"
            )
        if self.inputs["kind"] == "cli":
            return [outputs == self.expected]
        return [
            got is not None and want is not None and all(got.get(key) == value for key, value in want.items())
            for got, want in zip(outputs, self.expected)
        ]

    def run_pass(self, traced: bool, outcome: Outcome) -> Pass:
        self.count += 1
        tag = f"pass{self.count}"
        trace_path = self.work / f"{tag}.trace.json"
        log = self.work / f"{tag}.log"
        if self.inputs["kind"] == "cli":
            out = self.work / tag
            cli_args = [self.inputs["command"], "--config", str(self.config_path), "--out", str(out)]
            if traced:
                cmd = self._child("cli", "--trace", str(trace_path), "--", *cli_args)
            else:
                cmd = [self.python, "-c", CLI_ENTRY, *cli_args]
            wall, rss, code = spawn(cmd, self.env, self.root, log)
            outputs = None
            if code == 0:
                outputs = digest_outputs(out, self.inputs["outputs"])
                if outputs is not None and not csv_shape_ok(out, self.inputs):
                    outcome.errors.append(f"{tag}: CSV row or column counts are wrong")
                    outputs = None
            else:
                outcome.errors.append(f"{tag}: kwbandit exited {code}: {self._log_tail(log.name)}")
            shutil.rmtree(out, ignore_errors=True)
            ok = self._check(outputs, outcome) if outputs is not None else [False]
            latencies = [wall]
        else:
            results_path = self.work / f"{tag}.results.json"
            cmd = self._child("library", "--inputs", str(self.inputs_path), "--out", str(results_path))
            if traced:
                cmd += ["--trace", str(trace_path)]
            wall, rss, code = spawn(cmd, self.env, self.root, log)
            calls = len(self.inputs["calls"])
            outputs, latencies, ok = None, [], [False] * calls
            if code == 0:
                doc = json.loads(results_path.read_text(encoding="utf-8"))
                outputs, latencies = doc["results"], doc["latencies_s"]
                outcome.errors.extend(f"{tag}: {error}" for error in doc["errors"])
                ok = self._check(outputs, outcome)
            else:
                outcome.errors.append(f"{tag}: library child exited {code}: {self._log_tail(log.name)}")
        snapshot = None
        if traced and code == 0:
            snapshot = json.loads(trace_path.read_text(encoding="utf-8"))
        return Pass(traced, wall, rss, len(ok), ok.count(False), latencies, outputs, snapshot)

    def scan(self, outcome: Outcome) -> dict[str, float]:
        out = self.work / "scan.json"
        _, _, code = spawn(self._child("scan", "--out", str(out)), self.env, self.root, self.work / "scan.log")
        if code != 0:
            outcome.errors.append(f"engine scan exited {code}: {self._log_tail('scan.log')}")
            return {}
        return json.loads(out.read_text(encoding="utf-8"))


def measure(bench: Bench, seconds: float, trace: bool) -> Outcome:
    """Rounds of a gauge sample, a set-up sample and a pass, until ``seconds``
    have passed, and a last gauge sample.  A traced run alternates untraced
    and traced passes."""
    outcome = Outcome()
    bench.setup_sample(outcome)  # warm-up: fills bytecode caches
    minimum = MIN_TRACED_RUN_PASSES if trace else MIN_PASSES
    start = time.perf_counter()
    rounds: list[float] = []
    while not outcome.errors:
        round_start = time.perf_counter()
        traced = trace and len(outcome.passes) % 2 == 1
        outcome.gauge_s.append(bench.gauge_sample(outcome))
        outcome.setup_s.append(bench.setup_sample(outcome))
        if outcome.errors:
            break
        outcome.passes.append(bench.run_pass(traced, outcome))
        rounds.append(time.perf_counter() - round_start)
        # Stop when another round would likely end more than half a round late.
        if len(outcome.passes) >= minimum and time.perf_counter() - start + statistics.median(rounds) / 2 >= seconds:
            outcome.gauge_s.append(bench.gauge_sample(outcome))  # closes the last pass
            break
    return outcome


def end_to_end(outcome: Outcome, rep_steps: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """End-to-end metrics, with each time scaled to the gauge's reference speed
    by the gauge samples taken just before and just after it."""
    gauge_s = outcome.gauge_s
    pass_scale = [2.0 * GAUGE_REFERENCE_S / (gauge_s[i] + gauge_s[i + 1]) for i in range(len(outcome.passes))]
    setup_scale = [GAUGE_REFERENCE_S / g for g in gauge_s[: len(outcome.setup_s)]]

    def metrics(scaled: bool) -> tuple[dict[str, tuple[float, str]], float, int]:
        passes = [(p, f if scaled else 1.0) for p, f in zip(outcome.passes, pass_scale) if not p.traced]
        wall = statistics.median(p.wall_s * f for p, f in passes)
        latencies = [t * f for p, f in passes for t in p.latencies_s]
        tail, percentile = tail_latency(latencies)
        setup = [s * (f if scaled else 1.0) for s, f in zip(outcome.setup_s, setup_scale)]
        values = {
            "wall_s": (wall, "s"),
            "rep_steps_per_s": (rep_steps / wall, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(p.rss_mb for p, _ in passes), "MB"),
            "call_p50_s": (statistics.median(latencies), "s"),
            "call_tail_s": (tail, "s"),
        }
        return values, percentile, len(latencies)

    scaled, percentile, calls = metrics(True)
    notes = [
        f"passes: {len(pass_scale)}; set-up samples: {len(outcome.setup_s)}",
        f"call_tail_s is percentile {percentile:.4g} of {calls} calls",
        f"speed gauge: median {statistics.median(gauge_s)!r} s of {len(gauge_s)} samples,"
        f" reference {GAUGE_REFERENCE_S} s",
    ]
    notes += [f"unscaled {name} = {value!r} {unit}" for name, (value, unit) in metrics(False)[0].items()]
    return scaled, notes


def per_layer(outcome: Outcome, scan: dict[str, float]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    untraced = [p for p in outcome.passes if not p.traced]
    traced = [p for p in outcome.passes if p.traced and p.snapshot is not None]
    per_pass = [layer_metrics(p.snapshot) for p in traced]
    notes = []
    metrics: dict[str, tuple[float, str]] = {}
    for name, (_, unit) in per_pass[0].items():
        if any(name not in m for m in per_pass):
            continue
        values = [m[name][0] for m in per_pass]
        if unit in ("count", "bytes") and len(set(values)) > 1:
            notes.append(f"{name} differed between traced passes: {values}")
        metrics[name] = (statistics.median(values), unit)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    metrics["trace.accounted_frac"] = (statistics.median(busy_s(p.snapshot) / p.wall_s for p in traced), "ratio")
    for name, value in scan.items():
        metrics[name] = (value, "us/stream" if name == SCAN_STREAM_METRIC else "ns/rep-step")
    absent = sorted(set().union(*(p.snapshot["absent_spans"] + p.snapshot["absent_counters"] for p in traced)))
    if absent:
        notes.append(f"absent layer metrics (their code could not be traced): {absent}")
    notes.append(f"traced passes: {len(traced)}; untraced passes: {len(untraced)}")
    for name, roadmap, unit in ROADMAP_BASELINE:
        if name in metrics:
            notes.append(f"baseline {name} = {metrics[name][0]:.4g} {unit} (roadmap re-anchor: ~{roadmap:g})")
    return metrics, notes


def run(args, root: Path) -> int:
    reference = load_reference().get("workloads", {}).get(args.workload, {}).get(str(args.seed))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("machine: " + json.dumps(machine_facts(root), sort_keys=True))
    with work_dir(root, f"run-{os.getpid()}") as work:
        bench = Bench(root, work, args.workload, args.seed, reference)
        print(f"speed gauge threads: {bench.gauge_threads}")
        outcome = measure(bench, args.seconds, bool(args.trace))
        scan = bench.scan(outcome) if args.trace and not outcome.errors else {}
    attempted = sum(p.attempted for p in outcome.passes)
    failed = sum(p.failed for p in outcome.passes)
    correct = not outcome.errors and failed == 0 and attempted > 0
    metrics: dict[str, tuple[float, str]] = {}
    notes: list[str] = []
    if correct and args.trace:
        metrics, notes = per_layer(outcome, scan)
    elif correct:
        metrics, notes = end_to_end(outcome, bench.inputs["rep_steps"])
    print(f"reference: {'recorded' if reference is not None else 'none'} for seed {args.seed}")
    print(f"failed_frac = {failed / max(attempted, 1)!r} ({failed} failed of {attempted} operations)")
    for line in notes + outcome.notes:
        print(line)
    for error in outcome.errors:
        print(f"error: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def record(seeds: list[int], root: Path) -> int:
    """Write the reference outputs of every workload for ``seeds``."""
    doc = load_reference() or {"workloads": {}}
    doc["default_seed"], doc["held_out_seed"] = DEFAULT_SEED, HELD_OUT_SEED
    doc["src_sha256"] = machine_facts(root)["src_sha256"]
    with work_dir(root, f"record-{os.getpid()}") as work:
        for workload in WORKLOADS:
            for seed in seeds:
                outcome = Outcome()
                bench = Bench(root, work, workload, seed, None)
                done = bench.run_pass(False, outcome)
                if outcome.errors or done.failed:
                    print(f"{workload} seed {seed}: {outcome.errors}", file=sys.stderr)
                    return 1
                doc["workloads"].setdefault(workload, {})[str(seed)] = done.outputs
                print(f"recorded {workload} seed {seed} ({done.wall_s:.2f} s)", flush=True)
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=int, nargs="+", metavar="SEED", help="record reference outputs")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "kwbandit" / "__init__.py").is_file():
        print(f"no kwbandit sources under {root / 'src'}: run from the root of a kwbandit checkout", file=sys.stderr)
        return 2
    if args.record:
        return record(args.record, root)
    if args.workload is None:
        parser.error("--workload is required")
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be a positive number")
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
