"""Experiment and sweep drivers: policy resolution (including auto
tuning), Monte-Carlo execution, and CSV emission.

Output bytes are a pure function of (config document, seed): floats are
written with repr (full round-trip precision), rows are emitted in a
fixed order, and each replication's stream is keyed by its index, so how
replications are chunked never changes stream assignment or aggregation
order.  trace.csv is formatted beside the engine, in a writer process
that ``tracewriter`` holds with the trace's schema; the other CSVs are
written here, from the row types below, and each driver returns the rows
it writes: ``run_experiment`` its ``SummaryRow``, ``run_sweep`` its
``SweepRow`` points and ``ExponentFitRow``.
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

# The file names of the outputs, in the directory that ``out_dir`` names.
TRACE_CSV = "trace.csv"
SUMMARY_CSV = "summary.csv"
SWEEP_SUMMARY_CSV = "sweep_summary.csv"
EXPONENT_FIT_CSV = "exponent_fit.csv"

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
    """One sweep point: a row of sweep_summary.csv.  Every column but
    ``axis``, ``value``, ``scale`` and ``normalized_regret`` is the
    point's summary.csv column of the same name."""

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

    @classmethod
    def of(cls, summary: SummaryRow, axis: str, value: float, scale: float) -> "SweepRow":
        """The point at ``value`` on ``axis``, whose summary row is ``summary``."""
        shared = {f.name: getattr(summary, f.name) for f in fields(cls) if hasattr(summary, f.name)}
        normalized = summary.mean_regret / summary.horizon
        return cls(**shared, axis=axis, value=value, scale=scale, normalized_regret=normalized)


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


def _summary(resolved: ResolvedExperiment, totals: np.ndarray) -> SummaryRow:
    """The summary.csv row of ``resolved``, whose replications' total
    regrets are ``totals``: its echo, their mean and SE, and its bound."""
    estimate = MonteCarloEstimate.from_samples(totals)
    bound = resolved.bound
    return SummaryRow(
        **asdict(resolved.echo),
        mean_regret=estimate.mean,
        stderr_regret=estimate.standard_error,
        bound_name=bound.name if bound else "",
        bound_value=bound.value if bound else None,
    )


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
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


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> SummaryRow:
    """Execute a config: per-step trace CSV for replication 0 plus a
    one-row summary CSV with the Monte-Carlo estimate, the evaluated
    bound, and the tuning values used.  Returns that row.

    The trace goes block by block, as the engine runs, to a writer process
    that formats it into a partial file while the engine simulates on; the
    file becomes trace.csv only once every replication has run and the
    writer has exited.  A run that fails while it simulates, or whose
    writer fails, leaves neither CSV, and every run waits for its writer.
    Without ``out_dir`` no trace is kept and no writer starts."""
    resolved = resolve_experiment(cfg)
    _make_out_dir(out_dir)

    simulate = partial(regret_samples, resolved.policy, resolved.env, resolved.noise, cfg.replications, cfg.base_seed)
    if out_dir is None:
        return _summary(resolved, simulate()[0])
    out = Path(out_dir)
    unfinished = out / f"{TRACE_CSV}.partial"
    try:
        with _trace_writer(unfinished) as sink:
            totals, _ = simulate(trace=sink)
        unfinished.replace(out / TRACE_CSV)
    finally:
        unfinished.unlink(missing_ok=True)
    row = _summary(resolved, totals)
    _write_rows(out / SUMMARY_CSV, SummaryRow, [row])
    return row


def run_sweep(sweep: SweepSpec, out_dir: str | Path | None = None) -> tuple[list[SweepRow], ExponentFitRow]:
    """Run one experiment per sweep value and fit the power-law exponent of
    the normalized regret against the axis scale (the change rate
    episodes/horizon for the delta_T axis, the raw value otherwise).
    Returns the points and the fit, the rows of sweep_summary.csv and
    exponent_fit.csv.

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
        summary = _summary(resolved, totals)
        scale = summary.delta_T / summary.horizon if sweep.axis == "delta_T" else float(value)
        points.append(SweepRow.of(summary, sweep.axis, float(value), scale))

    if out_dir is not None:
        _write_rows(Path(out_dir) / SWEEP_SUMMARY_CSV, SweepRow, points)
    slope, r2 = fit_scaling_exponent([(p.scale, p.normalized_regret) for p in points])
    fit = ExponentFitRow(sweep.axis, len(points), slope, r2)
    if out_dir is not None:
        _write_rows(Path(out_dir) / EXPONENT_FIT_CSV, ExponentFitRow, [fit])
    return points, fit
