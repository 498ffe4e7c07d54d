"""Experiment config documents: a strict JSON schema with full-error
validation.

Unknown keys are rejected and every validation problem is collected (not
just the first).  ``ExperimentConfig`` is one flat record of the checked
document: the box, each objective as its kind and the keyword arguments of
the bowl class that kind names, the noise, the algorithm's keys, and the
schedule as ``change_times`` or ``episodes`` (neither means stationary).
The schema is documented in the README.  Parsing checks the document only;
``runner.resolve_experiment`` assembles a config (its schedule, tuning and
policy) and reports what does not assemble.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .domain import Domain
from .exceptions import ConfigValidationError
from .noise import GAUSSIAN, NONE, UNIFORM_BOUNDED
from .objectives import QUADRATIC_BOWL, QUARTIC_PERTURBED_BOWL, ObjectiveSpec, QuadraticBowl, QuarticPerturbedBowl
from .schedule import EnvironmentSchedule
from .algorithms import FIXED_STEP, SLIDING_WINDOW, VANILLA

ORACLE = "oracle"
STATIC = "static"
VARIANTS = (VANILLA, FIXED_STEP, SLIDING_WINDOW, ORACLE, STATIC)

EXPLICIT = "explicit"
AUTO = "auto"

BOWLS = {QUADRATIC_BOWL: QuadraticBowl, QUARTIC_PERTURBED_BOWL: QuarticPerturbedBowl}

# Each sweep axis names the field it sets and that field's type.
SWEEP_AXES = {"T": ("horizon", int), "delta_T": ("episodes", int), "beta": ("beta", float), "L": ("window", int)}

# The most replications a config or ``--replications`` may ask for: every
# replication's total regret and probes are kept until the run ends.
MAX_REPLICATIONS = 10**6
# The most replication-steps (horizon x replications) one experiment may
# ask for: about three hours at some 8 million replication-steps a second.
# ``runner.resolve_experiment`` checks it on every experiment it assembles,
# so on the document, on each point of a sweep and after the overrides.
MAX_REP_STEPS = 10**11


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config document.  ``objectives`` holds, per objective, its
    kind and every keyword argument of ``BOWLS[kind]`` except ``domain``;
    as those are dicts, a config is not hashable."""

    domain_lower: tuple[float, ...]
    domain_upper: tuple[float, ...]
    objectives: tuple[tuple[str, dict], ...]
    noise_kind: str
    noise_sigma2: float
    horizon: int
    replications: int
    base_seed: int
    variant: str
    tuning: str = EXPLICIT
    x0: tuple[float, ...] | None = None
    beta: float | None = None
    c: float | None = None
    alpha: float = 1.0
    window: int | None = None
    change_times: tuple[int, ...] | None = None
    episodes: int | None = None

    def build_objectives(self) -> tuple[ObjectiveSpec, ...]:
        domain = Domain(lower=self.domain_lower, upper=self.domain_upper)
        built = []
        for i, (kind, kwargs) in enumerate(self.objectives):
            try:
                built.append(BOWLS[kind](domain=domain, **kwargs))
            except ValueError as exc:
                raise ValueError(f"objectives[{i}]: {exc}") from exc
        return tuple(built)

    def build_schedule(self) -> EnvironmentSchedule:
        objectives = self.build_objectives()
        if self.episodes is not None:
            return EnvironmentSchedule.evenly_spaced(self.horizon, self.episodes, list(objectives))
        if self.change_times is not None:
            return EnvironmentSchedule(horizon=self.horizon, change_times=self.change_times, objectives=objectives)
        return EnvironmentSchedule.stationary(self.horizon, objectives[0])


@dataclass(frozen=True)
class SweepSpec:
    """One axis swept over sorted positive values, the rest held fixed.

    ``config_for`` sets the one field the axis names in ``SWEEP_AXES``: an
    integer for the T/delta_T/L axes and a float for beta.
    """

    axis: str
    values: tuple[int | float, ...]
    base: ExperimentConfig

    def config_for(self, value) -> ExperimentConfig:
        field, cast = SWEEP_AXES[self.axis]
        return replace(self.base, **{field: cast(value)})


def _finite(value) -> bool:
    """Whether a JSON value is a number a float holds finitely: not a bool,
    NaN, an infinity, nor an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return bool(np.isfinite(float(value)))
    except OverflowError:
        return False


class _Checker:
    """Accumulates validation errors instead of failing fast."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def expect_keys(self, doc: dict, path: str, required: set[str], optional: set[str]) -> bool:
        ok = True
        unknown = set(doc) - required - optional
        for key in sorted(unknown):
            self.fail(f"{path}: unknown key {key!r}")
            ok = False
        for key in sorted(required - set(doc)):
            self.fail(f"{path}: missing required key {key!r}")
            ok = False
        return ok

    def number(self, doc: dict, path: str, key: str, minimum=None, exclusive=False, default=None):
        if key not in doc:
            return default
        value = doc[key]
        if not _finite(value):
            self.fail(f"{path}.{key}: expected a finite number, got {value!r}")
            return default
        value = float(value)
        if minimum is not None and (value <= minimum if exclusive else value < minimum):
            op = ">" if exclusive else ">="
            self.fail(f"{path}.{key}: must be {op} {minimum}, got {value}")
            return default
        return value

    def integer(self, doc: dict, path: str, key: str, minimum=None, default=None, maximum=None):
        if key not in doc:
            return default
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(f"{path}.{key}: expected an integer, got {value!r}")
            return default
        if minimum is not None and value < minimum:
            self.fail(f"{path}.{key}: must be >= {minimum}, got {value}")
            return default
        if maximum is not None and value > maximum:
            self.fail(f"{path}.{key}: must be <= {maximum}, got {value}")
            return default
        return value

    def vector(self, doc: dict, path: str, key: str, default=None):
        if key not in doc:
            return default
        value = doc[key]
        if not isinstance(value, list) or not value:
            self.fail(f"{path}.{key}: expected a non-empty list of numbers")
            return default
        out = []
        for i, v in enumerate(value):
            if not _finite(v):
                self.fail(f"{path}.{key}[{i}]: expected a finite number, got {v!r}")
                return default
            out.append(float(v))
        return tuple(out)

    def choice(self, doc: dict, path: str, key: str, choices: tuple, default=None):
        if key not in doc:
            return default
        value = doc[key]
        if value not in choices:
            self.fail(f"{path}.{key}: expected one of {list(choices)}, got {value!r}")
            return default
        return value


def _parse_objective(doc, index: int, chk: _Checker) -> tuple[str, dict] | None:
    """An objective's kind and the checked keyword arguments of its bowl."""
    path = f"objectives[{index}]"
    if not isinstance(doc, dict):
        chk.fail(f"{path}: expected an object")
        return None
    kind = chk.choice(doc, path, "kind", (QUADRATIC_BOWL, QUARTIC_PERTURBED_BOWL))
    if kind is None:
        if "kind" not in doc:
            chk.fail(f"{path}: missing required key 'kind'")
        return None
    required = {"kind", "theta", "b"}
    optional = {"a", "k5", "s0"}
    if kind == QUARTIC_PERTURBED_BOWL:
        required.add("q")
    if not chk.expect_keys(doc, path, required, optional):
        return None
    kwargs = {
        "theta": chk.vector(doc, path, "theta"),
        "b": chk.number(doc, path, "b", minimum=0.0, exclusive=True),
        "a": chk.number(doc, path, "a", default=0.0),
    }
    if kind == QUARTIC_PERTURBED_BOWL:
        kwargs["q"] = chk.number(doc, path, "q", minimum=0.0, exclusive=True)
    kwargs["k5"] = chk.number(doc, path, "k5", minimum=0.0, exclusive=True, default=1.0)
    kwargs["s0"] = chk.integer(doc, path, "s0", minimum=0, default=0)
    if None in kwargs.values():
        return None
    return kind, kwargs


def _parse_schedule(doc, horizon: int | None, chk: _Checker) -> dict | None:
    """``{"episodes": N}`` or ``{"change_times": (...)}``, checked."""
    path = "schedule"
    if not isinstance(doc, dict):
        chk.fail(f"{path}: expected an object")
        return None
    chk.expect_keys(doc, path, set(), {"change_times", "episodes"})
    has_times = "change_times" in doc
    has_episodes = "episodes" in doc
    if has_times == has_episodes:
        chk.fail(f"{path}: provide exactly one of 'change_times' or 'episodes'")
        return None
    if has_episodes:
        episodes = chk.integer(doc, path, "episodes", minimum=1)
        if episodes is None:
            return None
        if horizon is not None and episodes > horizon:
            chk.fail(f"{path}.episodes: must be <= horizon ({horizon}), got {episodes}")
            return None
        return {"episodes": episodes}
    times = doc["change_times"]
    if not isinstance(times, list) or not times or not all(isinstance(t, int) and not isinstance(t, bool) for t in times):
        chk.fail(f"{path}.change_times: expected a non-empty list of integers")
        return None
    if times[0] != 1:
        chk.fail(f"{path}.change_times: the first change time must be 1, got {times[0]}")
        return None
    if any(b <= a for a, b in zip(times, times[1:])):
        chk.fail(f"{path}.change_times: must be strictly increasing, got {times}")
        return None
    if horizon is not None and times[-1] > horizon:
        chk.fail(f"{path}.change_times: must lie within [1, horizon={horizon}], got {times}")
        return None
    return {"change_times": tuple(times)}


def _parse_algorithm(doc, dimension: int | None, midpoint, chk: _Checker) -> dict | None:
    """The algorithm's fields of ``ExperimentConfig``, checked."""
    path = "algorithm"
    if not isinstance(doc, dict):
        chk.fail(f"{path}: expected an object")
        return None
    variant = chk.choice(doc, path, "variant", VARIANTS)
    if variant is None:
        if "variant" not in doc:
            chk.fail(f"{path}: missing required key 'variant'")
        return None

    allowed: set[str] = {"variant"}
    if variant in (VANILLA, STATIC):
        allowed |= {"x0"}
    elif variant == FIXED_STEP:
        allowed |= {"tuning", "x0", "beta", "c", "alpha"}
    elif variant == SLIDING_WINDOW:
        allowed |= {"tuning", "x0", "window", "c"}
    if not chk.expect_keys(doc, path, {"variant"}, allowed - {"variant"}):
        return None

    tuning = chk.choice(doc, path, "tuning", (EXPLICIT, AUTO), default=EXPLICIT)
    beta = chk.number(doc, path, "beta", minimum=0.0, exclusive=True)
    c = chk.number(doc, path, "c", minimum=0.0, exclusive=True)
    alpha = chk.number(doc, path, "alpha", default=1.0)
    window = chk.integer(doc, path, "window", minimum=1)

    if alpha is not None and not 0.0 < alpha <= 1.0:
        chk.fail(f"{path}.alpha: must lie in (0, 1], got {alpha}")
    if variant == FIXED_STEP:
        if tuning == EXPLICIT:
            if beta is None and "beta" not in doc:
                chk.fail(f"{path}: fixed-step with explicit tuning requires 'beta'")
            if c is None and "c" not in doc:
                chk.fail(f"{path}: fixed-step with explicit tuning requires 'c'")
        else:
            if "beta" in doc or "c" in doc:
                chk.fail(f"{path}: 'beta'/'c' are computed by auto tuning and may not be declared")
    if variant == SLIDING_WINDOW:
        if tuning == EXPLICIT and "window" not in doc:
            chk.fail(f"{path}: sliding-window with explicit tuning requires 'window'")
        if tuning == AUTO and "window" in doc:
            chk.fail(f"{path}: 'window' is computed by auto tuning and may not be declared")

    x0 = chk.vector(doc, path, "x0")
    if variant != ORACLE and x0 is None and "x0" not in doc and midpoint is not None:
        x0 = midpoint
    if x0 is not None and dimension is not None and len(x0) != dimension:
        chk.fail(f"{path}.x0: expected {dimension} components, got {len(x0)}")
    return {
        "variant": variant,
        "tuning": tuning if variant in (FIXED_STEP, SLIDING_WINDOW) else EXPLICIT,
        "x0": x0,
        "beta": beta,
        "c": c,
        "alpha": alpha if alpha is not None else 1.0,
        "window": window,
    }


def _parse_document(doc: dict, chk: _Checker, extra_top_keys: set[str] = frozenset()) -> ExperimentConfig | None:
    top_required = {"domain", "objectives", "noise", "algorithm", "horizon", "replications", "base_seed"}
    top_optional = {"schedule"} | extra_top_keys
    chk.expect_keys(doc, "config", top_required, top_optional)

    dimension = None
    midpoint = None
    lower = upper = None
    if isinstance(doc.get("domain"), dict):
        if chk.expect_keys(doc["domain"], "domain", {"lower", "upper"}, set()):
            lower = chk.vector(doc["domain"], "domain", "lower")
            upper = chk.vector(doc["domain"], "domain", "upper")
            if lower is not None and upper is not None:
                if len(lower) != len(upper):
                    chk.fail(f"domain: lower has {len(lower)} components, upper has {len(upper)}")
                elif any(a >= b for a, b in zip(lower, upper)):
                    chk.fail("domain: every lower bound must be strictly below its upper bound")
                else:
                    dimension = len(lower)
                    midpoint = tuple(0.5 * (a + b) for a, b in zip(lower, upper))
    elif "domain" in doc:
        chk.fail("domain: expected an object with 'lower' and 'upper'")

    horizon = chk.integer(doc, "config", "horizon", minimum=1)
    replications = chk.integer(doc, "config", "replications", minimum=1, maximum=MAX_REPLICATIONS)
    base_seed = chk.integer(doc, "config", "base_seed", minimum=0)

    entries: list[tuple[str, dict]] = []
    if isinstance(doc.get("objectives"), list) and doc["objectives"]:
        for i, entry_doc in enumerate(doc["objectives"]):
            entry = _parse_objective(entry_doc, i, chk)
            if entry is not None:
                entries.append(entry)
                theta = entry[1]["theta"]
                if dimension is not None and len(theta) != dimension:
                    chk.fail(f"objectives[{i}].theta: expected {dimension} components, got {len(theta)}")
                elif lower is not None and upper is not None and any(
                    not (lo <= t <= hi) for t, lo, hi in zip(theta, lower, upper)
                ):
                    chk.fail(f"objectives[{i}].theta: {list(theta)} lies outside the domain box")
    elif "objectives" in doc:
        chk.fail("objectives: expected a non-empty list of objective objects")

    noise_kind = None
    noise_sigma2 = 0.0
    if isinstance(doc.get("noise"), dict):
        if chk.expect_keys(doc["noise"], "noise", {"kind"}, {"sigma2"}):
            noise_kind = chk.choice(doc["noise"], "noise", "kind", (GAUSSIAN, UNIFORM_BOUNDED, NONE))
            sigma2 = chk.number(doc["noise"], "noise", "sigma2", minimum=0.0, default=0.0)
            if noise_kind == NONE and sigma2 not in (None, 0.0):
                chk.fail(f"noise.sigma2: kind 'none' requires sigma2 = 0, got {sigma2}")
            elif noise_kind in (GAUSSIAN, UNIFORM_BOUNDED) and (sigma2 is None or sigma2 <= 0.0):
                chk.fail(f"noise.sigma2: kind {noise_kind!r} requires sigma2 > 0")
            noise_sigma2 = sigma2 if sigma2 is not None else 0.0
    elif "noise" in doc:
        chk.fail("noise: expected an object with 'kind'")

    schedule = None
    if "schedule" in doc:
        schedule = _parse_schedule(doc["schedule"], horizon, chk)

    algorithm = None
    if "algorithm" in doc:
        algorithm = _parse_algorithm(doc["algorithm"], dimension, midpoint, chk)
    if algorithm is not None:
        if algorithm["tuning"] == AUTO and "schedule" not in doc:
            chk.fail(
                "algorithm: auto tuning derives the rate from episodes/horizon, so a 'schedule' section "
                "(its episode count) is required"
            )
        x0 = algorithm["x0"]
        if (
            x0 is not None
            and lower is not None
            and upper is not None
            and len(x0) == len(lower)
            and any(not (lo <= v <= hi) for v, lo, hi in zip(x0, lower, upper))
        ):
            chk.fail(f"algorithm.x0: {list(x0)} lies outside the domain box")

    if "schedule" not in doc and len(entries) > 1:
        chk.fail("objectives: a config without a schedule must declare exactly one objective")
    if entries and schedule is not None:
        n_episodes = schedule.get("episodes") or len(schedule["change_times"])
        if "change_times" in schedule and len(entries) != n_episodes:
            chk.fail(
                f"objectives: explicit change_times declare {n_episodes} episodes "
                f"but {len(entries)} objectives were given (need one per episode)"
            )
        if n_episodes > 1 and len(entries) < 2:
            chk.fail("objectives: a schedule with more than one episode needs at least two distinct objectives")

    if chk.errors:
        return None
    return ExperimentConfig(
        domain_lower=lower,
        domain_upper=upper,
        objectives=tuple(entries),
        noise_kind=noise_kind,
        noise_sigma2=float(noise_sigma2),
        horizon=horizon,
        replications=replications,
        base_seed=base_seed,
        **algorithm,
        **(schedule or {}),
    )


def parse_config(source: str | dict) -> ExperimentConfig:
    """Parse and validate a config document (JSON text or a dict tree).

    Checks the document only and builds nothing; ``resolve_experiment``
    assembles the result.  Raises ConfigValidationError carrying every
    problem found.
    """
    doc = _load(source)
    chk = _Checker()
    cfg = _parse_document(doc, chk)
    if cfg is None:
        raise ConfigValidationError(chk.errors or ["config: could not be parsed"])
    return cfg


def with_overrides(
    cfg: ExperimentConfig, seed: int | None = None, replications: int | None = None
) -> ExperimentConfig:
    """``cfg`` with ``base_seed`` and ``replications`` replaced where given.

    Overrides pass the same range checks as the document's own keys and
    raise ConfigValidationError when they fail.
    """
    doc = {key: value for key, value in (("base_seed", seed), ("replications", replications)) if value is not None}
    chk = _Checker()
    base_seed = chk.integer(doc, "override", "base_seed", minimum=0, default=cfg.base_seed)
    replications = chk.integer(
        doc, "override", "replications", minimum=1, default=cfg.replications, maximum=MAX_REPLICATIONS
    )
    if chk.errors:
        raise ConfigValidationError(chk.errors)
    return replace(cfg, base_seed=base_seed, replications=replications)


def parse_sweep(source: str | dict) -> SweepSpec:
    """Parse a sweep document: a config plus a top-level 'sweep' section.

    Like ``parse_config`` it checks the document only; ``run_sweep``
    assembles every point before it simulates one.
    """
    doc = _load(source)
    chk = _Checker()
    sweep_doc = doc.get("sweep")
    axis = None
    values: tuple[float, ...] | None = None
    if not isinstance(sweep_doc, dict):
        chk.fail("sweep: missing or malformed 'sweep' section")
    else:
        if chk.expect_keys(sweep_doc, "sweep", {"axis", "values"}, set()):
            axis = chk.choice(sweep_doc, "sweep", "axis", tuple(SWEEP_AXES))
            raw = sweep_doc.get("values")
            if not isinstance(raw, list) or len(raw) < 3:
                chk.fail("sweep.values: expected a list of at least 3 values (exponent fits need 3 points)")
            else:
                if any(isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0 for v in raw):
                    chk.fail("sweep.values: all values must be positive numbers")
                # a beta becomes a float; the integer axes keep exact integers
                elif any(not _finite(v) for v in raw if axis == "beta" or isinstance(v, float)):
                    chk.fail("sweep.values: all values must be finite numbers")
                elif any(b <= a for a, b in zip(raw, raw[1:])):
                    chk.fail("sweep.values: values must be strictly increasing")
                elif axis in ("T", "delta_T", "L") and not all(isinstance(v, int) for v in raw):
                    chk.fail(f"sweep.values: axis {axis!r} requires integer values")
                else:
                    values = tuple(raw)

    base = _parse_document(doc, chk, extra_top_keys={"sweep"})
    if base is not None and base.variant == ORACLE:
        chk.fail("sweep: variant 'oracle' has zero regret at every point, so no exponent can be fitted")
    if base is not None and axis is not None and values is not None:
        if axis == "delta_T" and base.episodes is None:
            chk.fail("sweep: axis 'delta_T' requires a schedule given as {'episodes': N}")
        if axis == "beta" and not (base.variant == FIXED_STEP and base.tuning == EXPLICIT):
            chk.fail("sweep: axis 'beta' requires an explicitly tuned fixed-step algorithm")
        if axis == "L" and not (base.variant == SLIDING_WINDOW and base.tuning == EXPLICIT):
            chk.fail("sweep: axis 'L' requires an explicitly tuned sliding-window algorithm")
    if chk.errors:
        raise ConfigValidationError(chk.errors)
    return SweepSpec(axis=axis, values=values, base=base)


def _load(source: str | dict) -> dict:
    if isinstance(source, dict):
        return source
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ConfigValidationError([f"config is not well-formed JSON: {exc}"]) from exc
    except RecursionError:
        raise ConfigValidationError(["config is nested too deeply to parse"]) from None
    if not isinstance(doc, dict):
        raise ConfigValidationError(["config: top level must be a JSON object"])
    return doc
