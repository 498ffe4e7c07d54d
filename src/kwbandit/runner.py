"""Experiment and sweep drivers: policy resolution (including auto
tuning), Monte-Carlo execution, and CSV emission.

Output bytes are a pure function of (config document, seed): floats are
written with repr (full round-trip precision), rows are emitted in a
fixed order, and each replication's stream is keyed by its index, so how
replications are chunked never changes stream assignment or aggregation
order.  trace.csv is formatted beside the engine, in a writer process
that ``tracewriter`` holds with the trace's schema; the other CSVs are
written here, from the row types below.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .algorithms import FIXED_STEP, RESTART, SLIDING_WINDOW, VANILLA, FixedStepConfig, SlidingWindowConfig
from .bounds import BoundReport, fixed_step_regret_bound, sliding_window_regret_bound
from .config import AUTO, MAX_REP_STEPS, ORACLE, STATIC, ExperimentConfig, SweepSpec
from .exceptions import ConfigValidationError
from .montecarlo import Experiment, MonteCarloEstimate, regret_lanes, regret_samples
from .noise import NoiseModel
from .schedule import EnvironmentSchedule
from .tracewriter import COMMAND, send
from .traces import TraceSink
from .trajectory import (
    FixedStepPolicy,
    OraclePolicy,
    Policy,
    SlidingWindowPolicy,
    StaticPolicy,
    VanillaPolicy,
)
from .tuning import coupled_perturbation, optimal_step_size, optimal_window

# Each row type below is one CSV schema: its field order is the column order.


@dataclass(frozen=True)
class TuningEcho:
    """What an experiment runs with, tuning values included; None (an
    empty CSV cell) where its variant has no such value.  These are the
    leading columns of summary.csv."""

    variant: str
    tuning: str
    horizon: int
    delta_T: int
    dimension: int
    replications: int
    base_seed: int
    beta: float | None = None
    c: float | None = None
    alpha: float | None = None
    window: int | None = None
    refresh: str = ""
    epsilon: float | None = None
    gamma: float | None = None
    error_floor: float | None = None
    k5: float | None = None


@dataclass(frozen=True, kw_only=True)
class SummaryRow(TuningEcho):
    """The row of summary.csv: the echo, the Monte-Carlo estimate and the bound."""

    mean_regret: float
    stderr_regret: float
    bound_name: str
    bound_value: float | None


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: a row of sweep_summary.csv."""

    axis: str
    value: float
    scale: float
    horizon: int
    delta_T: int
    variant: str
    tuning: str
    beta: float | None
    c: float | None
    window: int | None
    replications: int
    base_seed: int
    mean_regret: float
    stderr_regret: float
    normalized_regret: float
    bound_name: str
    bound_value: float | None


@dataclass(frozen=True)
class ExponentFitRow:
    """The row of exponent_fit.csv."""

    axis: str
    n_points: int
    slope: float
    r_squared: float


@dataclass(frozen=True)
class ResolvedExperiment:
    """A config turned into runnable pieces, with tuning values echoed."""

    config: ExperimentConfig
    env: EnvironmentSchedule
    noise: NoiseModel
    policy: Policy
    echo: TuningEcho
    bound: BoundReport | None


def resolve_experiment(cfg: ExperimentConfig) -> ResolvedExperiment:
    """Assemble a parsed config: build schedule/noise/policy; auto tuning
    computes the rate or window from the schedule's change rate and echoes
    the values used.  Whatever does not assemble (a beta that breaks
    contraction, or more than ``MAX_REP_STEPS`` replication-steps, say)
    raises one ConfigValidationError."""
    try:
        return _assemble(cfg)
    except (ValueError, OverflowError) as exc:
        raise ConfigValidationError([f"config does not assemble: {exc}"]) from exc


def _assemble(cfg: ExperimentConfig) -> ResolvedExperiment:
    work = cfg.horizon * cfg.replications
    if work > MAX_REP_STEPS:
        raise ValueError(f"horizon * replications = {work} is over the cap of {MAX_REP_STEPS} replication-steps")
    env = cfg.build_schedule()
    domain = env.domain
    noise = NoiseModel(kind=cfg.noise_kind, sigma2=cfg.noise_sigma2)
    constants = env.combined_constants()
    episodes = env.num_episodes
    echo = TuningEcho(
        variant=cfg.variant,
        tuning=cfg.tuning if cfg.variant in (FIXED_STEP, SLIDING_WINDOW) else "",
        horizon=cfg.horizon,
        delta_T=episodes,
        dimension=domain.dimension,
        replications=cfg.replications,
        base_seed=cfg.base_seed,
    )
    bound = None

    if cfg.variant == ORACLE:
        policy: Policy = OraclePolicy()
    elif cfg.variant == STATIC:
        policy = StaticPolicy(x0=cfg.x0)
    elif cfg.variant == VANILLA:
        policy = VanillaPolicy(x0=cfg.x0)
    elif cfg.variant == FIXED_STEP:
        sigma_tilde2 = noise.sigma_tilde2(domain.dimension)
        if cfg.tuning == AUTO:
            try:
                beta = optimal_step_size(domain.diameter, sigma_tilde2, cfg.alpha, cfg.horizon, episodes)
            except ValueError as exc:
                raise ValueError(f"algorithm: auto tuning failed: {exc}") from exc
            c = coupled_perturbation(beta, cfg.alpha)
        else:
            beta, c = cfg.beta, cfg.c
        policy = FixedStepPolicy(config=FixedStepConfig(beta=beta, c=c, constants=constants), x0=cfg.x0)
        epsilon = env.max_mean_value_offset(c)
        bound = fixed_step_regret_bound(
            constants, domain.diameter, sigma_tilde2, beta, c, epsilon, cfg.horizon, episodes
        )
        echo = replace(
            echo,
            beta=beta,
            c=c,
            alpha=cfg.alpha,
            epsilon=epsilon,
            gamma=bound.input("gamma"),
            error_floor=bound.input("error_floor"),
        )
    else:
        if cfg.tuning == AUTO:
            window = optimal_window(constants.k5, domain.diameter, cfg.horizon, episodes)
        else:
            window = cfg.window
        if window <= constants.s0:
            raise ValueError(f"algorithm.window: window {window} must exceed the declared burn-in s0={constants.s0}")
        sw = SlidingWindowConfig(window=window, x0=cfg.x0, c=cfg.c)
        policy = SlidingWindowPolicy(config=sw)
        echo = replace(echo, window=window, c=sw.c, refresh=RESTART, k5=constants.k5)
        bound = sliding_window_regret_bound(constants, domain.diameter, window, cfg.horizon, episodes)
    return ResolvedExperiment(config=cfg, env=env, noise=noise, policy=policy, echo=echo, bound=bound)


@dataclass(frozen=True)
class ExperimentResult:
    mean_regret: float
    stderr_regret: float
    bound: BoundReport | None
    echo: TuningEcho
    trace_path: Path | None
    summary_path: Path | None


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _make_out_dir(out_dir: str | Path | None) -> None:
    """Create the output directory before any simulation, so a path that
    cannot be one (an existing file) fails at once."""
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write a header and rows of already formatted cells, joined with
    commas.  Every header is a field name and every cell a number, an empty
    cell or a word from a fixed set (a variant, tuning, refresh rule, axis
    or bound name), none of which RFC 4180 quotes, so the join writes the
    bytes a ``csv.writer`` would."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(row) + "\n" for row in rows)


def _write_rows(path: Path, row_type: type, rows) -> None:
    """Write row dataclasses of ``row_type``; the header is its field names."""
    _write_csv(path, [f.name for f in fields(row_type)], ([_fmt(v) for v in astuple(row)] for row in rows))


@contextmanager
def _trace_writer(path: Path) -> Iterator[TraceSink]:
    """A sink that hands each trace block to a writer process
    (``tracewriter``), which formats it into ``path`` while the engine
    simulates the next.  On leaving, the writer's input is closed and the
    writer waited for: it formats what it holds and exits, whether the body
    finished or raised.  A writer that failed raises OSError with the last
    line of its standard error, never its traceback."""
    frames_out, frames_in = os.pipe()
    errors_out, errors_in = os.pipe()
    with open(frames_in, "wb") as frames, open(errors_out, "rb") as errors:
        try:
            with open(path, "wb") as trace:
                stdio = [(os.POSIX_SPAWN_DUP2, fd, i) for i, fd in enumerate((frames_out, trace.fileno(), errors_in))]
                pid = os.posix_spawn(COMMAND[0], COMMAND, os.environ, file_actions=stdio)
        finally:
            os.close(frames_out)
            os.close(errors_in)
        broken = False
        try:
            yield partial(send, frames)
        except BrokenPipeError:
            broken = True  # the writer stopped reading; its stderr says why
        finally:
            with suppress(BrokenPipeError):
                frames.close()
            message = errors.read().decode(errors="replace").splitlines()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if broken or status:
        raise OSError(f"trace writer failed: {message[-1] if message else f'exit status {status}'}")


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentResult:
    """Execute a config: per-step trace CSV for replication 0 plus a
    one-row summary CSV with the Monte-Carlo estimate, the evaluated
    bound, and the tuning values used.

    The trace goes block by block, as the engine runs, to a writer process
    that formats it into a partial file while the engine simulates on; the
    file becomes trace.csv only once every replication has run and the
    writer has exited.  A run that fails while it simulates, or whose
    writer fails, leaves neither CSV, and every run waits for its writer.
    Without ``out_dir`` no trace is kept and no writer starts."""
    resolved = resolve_experiment(cfg)
    env = resolved.env
    _make_out_dir(out_dir)

    simulate = partial(regret_samples, resolved.policy, env, resolved.noise, cfg.replications, cfg.base_seed)
    trace_path = summary_path = None
    if out_dir is None:
        totals, _ = simulate()
    else:
        out = Path(out_dir)
        trace_path, summary_path = out / "trace.csv", out / "summary.csv"
        unfinished = out / "trace.csv.partial"
        try:
            with _trace_writer(unfinished) as sink:
                totals, _ = simulate(trace=sink)
            unfinished.replace(trace_path)
        finally:
            unfinished.unlink(missing_ok=True)
    estimate = MonteCarloEstimate.from_samples(totals, cfg.base_seed)

    if summary_path is not None:
        bound = resolved.bound
        row = SummaryRow(
            **asdict(resolved.echo),
            mean_regret=estimate.mean,
            stderr_regret=estimate.standard_error,
            bound_name=bound.name if bound else "",
            bound_value=bound.value if bound else None,
        )
        _write_rows(summary_path, SummaryRow, [row])
    return ExperimentResult(
        mean_regret=estimate.mean,
        stderr_regret=estimate.standard_error,
        bound=resolved.bound,
        echo=resolved.echo,
        trace_path=trace_path,
        summary_path=summary_path,
    )


@dataclass(frozen=True)
class SweepResult:
    axis: str
    points: tuple[SweepRow, ...]
    slope: float
    r_squared: float
    summary_path: Path | None
    exponent_path: Path | None


def run_sweep(sweep: SweepSpec, out_dir: str | Path | None = None) -> SweepResult:
    """Run one experiment per sweep value and fit the power-law exponent of
    the normalized regret against the axis scale (the change rate
    episodes/horizon for the delta_T axis, the raw value otherwise).

    Every point is resolved before the first one simulates; then all run
    through one ``regret_lanes`` call, so the points of one horizon share
    batches.  sweep_summary.csv is written before the fit, so a fit that
    fails (a point of zero regret has no logarithm) keeps the points.
    """
    from .scaling import fit_scaling_exponent  # only a sweep fits; run loads no fit

    resolved_points, errors = [], []
    for value in sweep.values:
        try:
            resolved_points.append(resolve_experiment(sweep.config_for(value)))
        except ConfigValidationError as exc:
            errors += [f"sweep value {value}: {error}" for error in exc.errors]
    if errors:
        raise ConfigValidationError(errors)

    _make_out_dir(out_dir)
    experiments = [
        Experiment(r.policy, r.env, r.noise, r.config.replications, r.config.base_seed, seed_path=(index,))
        for index, r in enumerate(resolved_points)
    ]
    points = []
    for value, resolved, (totals, _) in zip(sweep.values, resolved_points, regret_lanes(experiments)):
        cfg, echo, bound = resolved.config, resolved.echo, resolved.bound
        estimate = MonteCarloEstimate.from_samples(totals, cfg.base_seed)
        points.append(
            SweepRow(
                axis=sweep.axis,
                value=float(value),
                scale=echo.delta_T / cfg.horizon if sweep.axis == "delta_T" else float(value),
                horizon=echo.horizon,
                delta_T=echo.delta_T,
                variant=echo.variant,
                tuning=echo.tuning,
                beta=echo.beta,
                c=echo.c,
                window=echo.window,
                replications=echo.replications,
                base_seed=echo.base_seed,
                mean_regret=estimate.mean,
                stderr_regret=estimate.standard_error,
                normalized_regret=estimate.mean / cfg.horizon,
                bound_name=bound.name if bound else "",
                bound_value=bound.value if bound else None,
            )
        )

    summary_path = exponent_path = None
    if out_dir is not None:
        summary_path = Path(out_dir) / "sweep_summary.csv"
        _write_rows(summary_path, SweepRow, points)
    slope, r2 = fit_scaling_exponent([(p.scale, p.normalized_regret) for p in points])
    if out_dir is not None:
        exponent_path = Path(out_dir) / "exponent_fit.csv"
        _write_rows(exponent_path, ExponentFitRow, [ExponentFitRow(sweep.axis, len(points), slope, r2)])
    return SweepResult(
        axis=sweep.axis,
        points=tuple(points),
        slope=slope,
        r_squared=r2,
        summary_path=summary_path,
        exponent_path=exponent_path,
    )
