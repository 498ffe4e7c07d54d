"""Command-line driver.

Subcommands:

* ``verify`` - grid condition reports for every objective in the config
* ``run``    - execute the config, writing trace.csv and summary.csv
* ``sweep``  - run a sweep config, writing sweep_summary.csv and
               exponent_fit.csv
* ``bounds`` - evaluate the config's theoretical bound from parameters
               alone (``--check`` also simulates and verifies domination)

Every subcommand assembles the config before its own work.  Exit codes:
0 success, 1 validation error (a config that does not assemble, or whose
values overflow float arithmetic, too),
2 runtime/IO error (an allocation that fails too), 3 check failure
(failed condition report or failed ``bounds --check``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, parse_config, parse_sweep, with_overrides
from .exceptions import ConfigValidationError
from .montecarlo import MonteCarloEstimate, regret_samples
from .runner import EXPONENT_FIT_CSV, SUMMARY_CSV, SWEEP_SUMMARY_CSV, TRACE_CSV
from .runner import resolve_experiment, run_experiment, run_sweep

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_CHECK_FAILED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kwbandit", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to a JSON config document")
        p.add_argument("--seed", type=int, default=None, help="override the config's base_seed")
        p.add_argument("--replications", type=int, default=None, help="override the config's replications")
        p.add_argument("--out", default="out", help="output directory (default: out)")

    p_verify = sub.add_parser("verify", help="verify the declared objective-class constants on a grid")
    common(p_verify)
    p_verify.add_argument("--grid", type=int, default=16, help="grid points per axis (default 16)")

    p_run = sub.add_parser("run", help="run the experiment and write CSV artifacts")
    common(p_run)

    p_sweep = sub.add_parser("sweep", help="run a sweep and fit the scaling exponent")
    common(p_sweep)

    p_bounds = sub.add_parser("bounds", help="evaluate the theoretical bound, no simulation")
    common(p_bounds)
    p_bounds.add_argument(
        "--check",
        action="store_true",
        help="also run the Monte-Carlo estimate and fail (exit 3) unless mean - 3*SE <= bound",
    )
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigValidationError([f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})"]) from None


def _overridden(args, cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg`` with ``--seed`` and ``--replications`` applied: the one place
    every command applies them."""
    return with_overrides(cfg, seed=args.seed, replications=args.replications)


def _cmd_verify(args) -> int:
    from .conditions import verify_conditions

    cfg = _overridden(args, parse_config(_read(args.config)))
    resolve_experiment(cfg)  # rejects every config that run rejects
    objectives = cfg.build_objectives()
    all_hold = True
    for i, objective in enumerate(objectives):
        report = verify_conditions(objective, grid_points_per_axis=args.grid)
        print(f"objective[{i}] {report.describe()}")
        all_hold = all_hold and report.all_hold
    print("conditions: " + ("ALL HOLD" if all_hold else "FAILURES REPORTED"))
    return EXIT_OK if all_hold else EXIT_CHECK_FAILED


def _cmd_run(args) -> int:
    row = run_experiment(_overridden(args, parse_config(_read(args.config))), out_dir=args.out)
    print(f"mean total regret: {row.mean_regret!r} (stderr {row.stderr_regret!r})")
    if row.bound_name:
        print(f"bound {row.bound_name}: {row.bound_value!r}")
    out = Path(args.out)
    print(f"wrote {out / TRACE_CSV} and {out / SUMMARY_CSV}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    sweep = parse_sweep(_read(args.config))
    points, fit = run_sweep(replace(sweep, base=_overridden(args, sweep.base)), out_dir=args.out)
    for point in points:
        print(
            f"{point.axis}={point.value:g}: mean regret {point.mean_regret!r}, "
            f"normalized {point.normalized_regret!r}"
        )
    print(f"fitted exponent: slope={fit.slope!r} r2={fit.r_squared!r}")
    out = Path(args.out)
    print(f"wrote {out / SWEEP_SUMMARY_CSV} and {out / EXPONENT_FIT_CSV}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    cfg = _overridden(args, parse_config(_read(args.config)))
    resolved = resolve_experiment(cfg)
    if resolved.bound is None:
        print(f"variant {cfg.variant!r} has no theoretical bound to evaluate", file=sys.stderr)
        return EXIT_VALIDATION
    bound = resolved.bound
    print(f"bound {bound.name} = {bound.value!r}")
    for key, value in bound.terms:
        print(f"  term {key} = {value!r}")
    for key, value in bound.inputs:
        print(f"  input {key} = {value!r}")
    if not args.check:
        return EXIT_OK
    if cfg.replications < 2:
        # one replication has no standard error, so no tolerance applies
        raise ValueError(f"bounds --check needs replications >= 2, got {cfg.replications}")
    totals, _ = regret_samples(resolved.policy, resolved.env, resolved.noise, cfg.replications, cfg.base_seed)
    estimate = MonteCarloEstimate.from_samples(totals)
    floor = estimate.lower_confidence()
    print(f"monte-carlo mean = {estimate.mean!r} (stderr {estimate.standard_error!r}); mean - 3*SE = {floor!r}")
    if floor <= bound.value:
        print("check: PASS (bound dominates the empirical mean)")
        return EXIT_OK
    print("check: FAIL (empirical mean exceeds the bound beyond statistical tolerance)")
    return EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"verify": _cmd_verify, "run": _cmd_run, "sweep": _cmd_sweep, "bounds": _cmd_bounds}
    try:
        # A float operation that overflows or gives NaN is an error, not a
        # warning: only parameters at the edge of the float range cause one.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return handlers[args.command](args)
    except ConfigValidationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FloatingPointError as exc:
        print(f"invalid parameters: {exc} (a config value beyond what float arithmetic holds)", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
