"""One benchmark child process.

    python3 perfbench/child.py setup   --inputs IN
    python3 perfbench/child.py library --inputs IN --out OUT [--trace TRACE]
    python3 perfbench/child.py cli     --trace TRACE -- <kwbandit CLI arguments>
    python3 perfbench/child.py scan    --out OUT
    python3 perfbench/child.py gauge   --out OUT [--threads N]

``setup`` imports kwbandit and parses and resolves the workload, then
exits.  ``library`` runs the diagnostics-wide call loop and writes each
call's exact result and latency.  ``cli`` runs the kwbandit CLI in-process
with the tracer installed.  ``scan`` times ``simulate_batch`` over rule
variant x dimension x batch width.  ``gauge`` times a fixed loop that uses
no kwbandit code, on as many threads as the workload computes on.  ``--trace`` writes the tracer's spans and counts as
JSON.  kwbandit is imported from ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SCAN_VARIANTS = ("vanilla", "fixed-step", "sliding-window")
SCAN_DIMENSIONS = (1, 2, 4)
SCAN_WIDTHS = (1, 64, 1024)
SCAN_REPEATS = 3
SCAN_WINDOW = 16
SCAN_SEED = 20_171_212
SCAN_HORIZON = 200
# Extra point that reproduces the 512-replication engine baseline.
SCAN_BASELINE = ("fixed-step", 1, 512)
SCAN_STREAMS = 2000
SCAN_STREAM_METRIC = "rng.us_per_stream.scan"
GAUGE_STEPS = 10_000
GAUGE_SEED = 12345


def scan_name(variant: str, d: int, width: int) -> str:
    return f"trajectory.ns_per_rep_step.{variant}.d{d}.w{width}"


def scan_points() -> list[tuple[str, int, int]]:
    points = [(v, d, w) for v in SCAN_VARIANTS for d in SCAN_DIMENSIONS for w in SCAN_WIDTHS]
    return points + [SCAN_BASELINE]


def config_text(inputs: dict) -> str:
    """The config document of a CLI workload, as the benchmark writes it."""
    return json.dumps(inputs["config"], indent=1)


def _exact(value):
    """A result value in a form that compares exactly: floats by repr."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    return repr(float(value))


def _library(inputs: dict):
    """Objectives and configs of the library workload, and its call function."""
    import kwbandit as kb

    box = kb.Domain(lower=(inputs["box"][0],), upper=(inputs["box"][1],))
    chk, cal = inputs["check"], inputs["calibrate"]
    bowl = kb.QuadraticBowl(domain=box, theta=(chk["theta"],), b=1.0)
    fixed = kb.FixedStepConfig(beta=chk["beta"], c=chk["c"], constants=bowl.constants)
    check_noise = kb.NoiseModel.gaussian(chk["sigma2"])
    cal_bowl = kb.QuadraticBowl(domain=box, theta=(cal["theta"],), b=1.0)
    cal_noise = kb.NoiseModel.gaussian(cal["sigma2"])

    def call(spec: dict) -> dict:
        if spec["fn"] == "distance_recursion_check":
            report = kb.distance_recursion_check(
                fixed,
                bowl,
                check_noise,
                x0=(chk["x0"],),
                probe_step=spec["probe_step"],
                replications=chk["replications"],
                base_seed=spec["base_seed"],
            )
            return {key: _exact(value) for key, value in dataclasses.asdict(report).items()}
        value = kb.calibrate_window_constant(
            cal_bowl,
            cal_noise,
            x0=(cal["x0"],),
            windows=tuple(cal["windows"]),
            replications=cal["replications"],
            base_seed=spec["base_seed"],
            c=cal["c"],
            epochs=cal["epochs"],
        )
        return {"value": _exact(value)}

    return call


def _setup_cli(inputs: dict, config_text: str) -> None:
    from kwbandit.config import parse_config, parse_sweep
    from kwbandit.runner import resolve_experiment

    if inputs["command"] == "sweep":
        sweep = parse_sweep(config_text)
        for value in sweep.values:
            resolve_experiment(sweep.config_for(value))
    else:
        resolve_experiment(parse_config(config_text))


def _install_tracer():
    import kwbandit  # noqa: F401  (loads every module the tracer patches)
    import kwbandit.cli  # noqa: F401
    from tracer import TARGETS, Tracer

    tracer = Tracer()
    tracer.install(TARGETS)
    return tracer


def _write_json(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def run_scan() -> dict:
    """ns per replication-step of ``simulate_batch`` at each scan point, and
    the cost of one replication stream, without the tracer."""
    import kwbandit as kb

    results = {}
    for variant, d, width in scan_points():
        box = kb.Domain(lower=(-2.0,) * d, upper=(2.0,) * d)
        bowl = kb.QuadraticBowl(domain=box, theta=(0.3,) * d, b=1.0)
        x0 = (-1.0,) * d
        if variant == "vanilla":
            policy = kb.VanillaPolicy(x0=x0)
        elif variant == "fixed-step":
            policy = kb.FixedStepPolicy(config=kb.FixedStepConfig(beta=0.1, c=0.1, constants=bowl.constants), x0=x0)
        else:
            policy = kb.SlidingWindowPolicy(config=kb.SlidingWindowConfig(window=SCAN_WINDOW, x0=x0, c=0.5))
        horizon = SCAN_HORIZON
        env = kb.EnvironmentSchedule.stationary(horizon=horizon, objective=bowl)
        noise = kb.NoiseModel.gaussian(1.0)
        samples = []
        for repeat in range(SCAN_REPEATS):
            rngs = [kb.replication_stream(SCAN_SEED, repeat, r) for r in range(width)]
            start = time.perf_counter_ns()
            kb.simulate_batch(policy, env, noise, rngs)
            samples.append((time.perf_counter_ns() - start) / (width * horizon))
        results[scan_name(variant, d, width)] = statistics.median(samples)
    samples = []
    for repeat in range(SCAN_REPEATS):
        start = time.perf_counter_ns()
        for r in range(SCAN_STREAMS):
            kb.replication_stream(SCAN_SEED, SCAN_REPEATS + repeat, r)
        samples.append((time.perf_counter_ns() - start) / SCAN_STREAMS / 1e3)
    results[SCAN_STREAM_METRIC] = statistics.median(samples)
    return results


def gauge(threads: int = 1) -> float:
    """Seconds for a fixed loop shaped like the engine's step (small numpy
    operations with Python glue) that uses no kwbandit code, its steps
    shared out over ``threads`` threads.

    On a shared machine the speed of interpreter-bound code drifts by tens
    of percent over minutes.  The gauge drifts with it, so time metrics
    scaled by it measure the program rather than the machine's load.  A
    workload that computes on several threads is slowed by load on any
    core it uses, so its gauge runs on as many.
    """
    import numpy as np

    noise = np.random.default_rng(GAUGE_SEED).normal(size=(GAUGE_STEPS, 64, 2))
    lo, hi = np.array([-2.0]), np.array([2.0])

    def steps(first: int) -> None:
        x = np.zeros((64, 1))
        for j in range(first, GAUGE_STEPS, threads):
            f_plus = -np.sum((x - 0.2) ** 2, axis=-1) + noise[j, :, 0]
            f_minus = -np.sum((x - 0.4) ** 2, axis=-1) + noise[j, :, 1]
            x = np.clip(x + 0.5 * (f_plus - f_minus)[:, None], lo, hi)

    start = time.perf_counter()
    if threads == 1:
        steps(0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(steps, range(threads)))
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "library", "cli", "scan", "gauge"))
    parser.add_argument("--inputs")
    parser.add_argument("--out")
    parser.add_argument("--trace")
    parser.add_argument("--threads", type=int, default=1)
    argv = sys.argv[1:] if argv is None else list(argv)
    cli_args = []
    if "--" in argv:
        split = argv.index("--")
        argv, cli_args = argv[:split], argv[split + 1 :]
    args = parser.parse_args(argv)

    if args.mode == "scan":
        _write_json(args.out, run_scan())
        return 0
    if args.mode == "gauge":
        _write_json(args.out, {"gauge_s": gauge(args.threads)})
        return 0

    if args.mode == "cli":
        tracer = _install_tracer()
        from kwbandit.cli import main as cli_main

        code = cli_main(cli_args)
        _write_json(args.trace, tracer.snapshot())
        return code

    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    if args.mode == "setup":
        if inputs["kind"] == "cli":
            _setup_cli(inputs, config_text(inputs))
        else:
            _library(inputs)
        return 0

    tracer = _install_tracer() if args.trace else None
    call = _library(inputs)
    results, latencies, errors = [], [], []
    for spec in inputs["calls"]:
        start = time.perf_counter()
        try:
            results.append(call(spec))
        except Exception as exc:  # a failed call is counted, and the loop goes on
            results.append(None)
            errors.append(f"{spec['fn']}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - start)
    _write_json(args.out, {"results": results, "latencies_s": latencies, "errors": errors})
    if tracer is not None:
        _write_json(args.trace, tracer.snapshot())
    return 0


if __name__ == "__main__":
    sys.exit(main())
