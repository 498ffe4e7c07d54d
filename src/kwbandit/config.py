"""Experiment config documents: a strict JSON schema with full-error
validation.

Unknown keys are rejected and every problem is collected (not just the
first).  This module keeps three kinds of check: JSON shape (keys, types,
finite numbers, integers), facts that span sections (dimensions, objective
counts, a schedule for auto tuning, which sweep axis fits which variant),
and the caps.  Each value rule is a function beside its class (such as
``schedule.change_time_problems``) that returns its problems as strings:
the class raises the first, and the parser reports all of them under the
section's path.  ``ExperimentConfig`` is one flat record of the checked
document: the box, each objective as its kind and the keyword arguments of
the bowl class that kind names, the noise, the algorithm's keys, and the
schedule as ``change_times`` or ``episodes`` (neither means stationary).
The schema is documented in the README.  Parsing checks the document only;
``runner.resolve_experiment`` assembles a config (its schedule, tuning and
policy) and reports what does not assemble.
"""

from __future__ import annotations

import json
from inspect import Parameter, signature
from typing import NamedTuple

import numpy as np

from .algorithms import FIXED_STEP, SLIDING_WINDOW, VANILLA, step_problems
from .domain import Domain, bound_problems
from .exceptions import ConfigValidationError
from .noise import KINDS, sigma2_problems
from .objectives import QUADRATIC_BOWL, QUARTIC_PERTURBED_BOWL, ObjectiveSpec, QuadraticBowl, QuarticPerturbedBowl
from .objectives import calibration_problems, coefficient_problems, theta_problems
from .schedule import EnvironmentSchedule, change_time_problems, episode_problems
from .tuning import alpha_problems

ORACLE = "oracle"
STATIC = "static"

EXPLICIT = "explicit"
AUTO = "auto"

# Each variant's keys besides "variant", and those of them that explicit
# tuning requires and auto tuning computes.
ALGORITHM_KEYS = {
    VANILLA: ({"x0"}, ()),
    FIXED_STEP: ({"tuning", "x0", "beta", "c", "alpha"}, ("beta", "c")),
    SLIDING_WINDOW: ({"tuning", "x0", "window", "c"}, ("window",)),
    ORACLE: (set(), ()),
    STATIC: ({"x0"}, ()),
}

BOWLS = {QUADRATIC_BOWL: QuadraticBowl, QUARTIC_PERTURBED_BOWL: QuarticPerturbedBowl}

# Each sweep axis names the field it sets, that field's type, and what a
# document must declare for the field to be set.
SWEEP_AXES = {
    "T": ("horizon", int, "a horizon"),
    "delta_T": ("episodes", int, "a schedule given as {'episodes': N}"),
    "beta": ("beta", float, "an explicitly tuned fixed-step algorithm"),
    "L": ("window", int, "an explicitly tuned sliding-window algorithm"),
}

# The most replications a config or ``--replications`` may ask for: every
# replication's total regret and probes are kept until the run ends.
MAX_REPLICATIONS = 10**6
# The most replication-steps (horizon x replications) one experiment may
# ask for: about three hours at some 8 million replication-steps a second.
# ``runner.resolve_experiment`` checks it on every experiment it assembles,
# so on the document, on each point of a sweep and after the overrides.
MAX_REP_STEPS = 10**11


class ExperimentConfig(NamedTuple):
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


class SweepSpec(NamedTuple):
    """One axis swept over sorted positive values, the rest held fixed.

    ``config_for`` sets the one field the axis names in ``SWEEP_AXES``: an
    integer for the T/delta_T/L axes and a float for beta.
    """

    axis: str
    values: tuple[int | float, ...]
    base: ExperimentConfig

    def config_for(self, value) -> ExperimentConfig:
        field, cast, _ = SWEEP_AXES[self.axis]
        return self.base._replace(**{field: cast(value)})


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

    def rules(self, path: str, problems: list[str]) -> bool:
        """Report a rule function's problems under ``path``; whether there were none."""
        self.errors.extend(f"{path}: {problem}" for problem in problems)
        return not problems

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

    # Each reader below returns ``default`` for an absent key and None for
    # a value it rejects.

    def number(self, doc: dict, path: str, key: str, default=None):
        if key not in doc:
            return default
        value = doc[key]
        if not _finite(value):
            self.fail(f"{path}.{key}: expected a finite number, got {value!r}")
            return None
        return float(value)

    def integer(self, doc: dict, path: str, key: str, minimum=None, default=None, maximum=None):
        if key not in doc:
            return default
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(f"{path}.{key}: expected an integer, got {value!r}")
            return None
        if minimum is not None and value < minimum:
            self.fail(f"{path}.{key}: must be >= {minimum}, got {value}")
            return None
        if maximum is not None and value > maximum:
            self.fail(f"{path}.{key}: must be <= {maximum}, got {value}")
            return None
        return value

    def vector(self, doc: dict, path: str, key: str, default=None):
        if key not in doc:
            return default
        value = doc[key]
        if not isinstance(value, list) or not value:
            self.fail(f"{path}.{key}: expected a non-empty list of numbers")
            return None
        out = []
        for i, v in enumerate(value):
            if not _finite(v):
                self.fail(f"{path}.{key}[{i}]: expected a finite number, got {v!r}")
                return None
            out.append(float(v))
        return tuple(out)

    def choice(self, doc: dict, path: str, key: str, choices: tuple, default=None):
        if key not in doc:
            return default
        value = doc[key]
        if value not in choices:
            self.fail(f"{path}.{key}: expected one of {list(choices)}, got {value!r}")
            return None
        return value


def _parse_objective(doc, index: int, chk: _Checker, box: tuple | None = None) -> tuple[str, dict] | None:
    """An objective's kind and the checked keyword arguments of its bowl,
    whose constructor's parameters but ``domain`` are its keys; theta is
    checked against ``box``, the (lower, upper) of a valid domain."""
    path = f"objectives[{index}]"
    if not isinstance(doc, dict):
        chk.fail(f"{path}: expected an object")
        return None
    kind = chk.choice(doc, path, "kind", tuple(BOWLS))
    if kind is None:
        if "kind" not in doc:
            chk.fail(f"{path}: missing required key 'kind'")
        return None
    parameters = signature(BOWLS[kind]).parameters
    defaults = {name: p.default for name, p in parameters.items() if name != "domain"}
    required = {key for key, default in defaults.items() if default is Parameter.empty}
    if not chk.expect_keys(doc, path, {"kind"} | required, set(defaults) - required):
        return None
    readers = {"theta": chk.vector, "s0": chk.integer}
    kwargs = {key: readers.get(key, chk.number)(doc, path, key, default=default) for key, default in defaults.items()}
    if None in kwargs.values():
        return None
    problems = coefficient_problems(kwargs["b"], kwargs.get("q"))
    if box is not None:
        problems += theta_problems(kwargs["theta"], *box)
    if not chk.rules(path, problems + calibration_problems(kwargs["k5"], kwargs["s0"])):
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
        episodes = chk.integer(doc, path, "episodes")
        if episodes is None or horizon is None or not chk.rules(path, episode_problems(episodes, horizon)):
            return None
        return {"episodes": episodes}
    times = doc["change_times"]
    if not isinstance(times, list) or not all(isinstance(t, int) and not isinstance(t, bool) for t in times):
        chk.fail(f"{path}.change_times: expected a list of integers")
        return None
    if horizon is None or not chk.rules(path, change_time_problems(tuple(times), horizon)):
        return None
    return {"change_times": tuple(times)}


def _parse_algorithm(doc, box: tuple | None, chk: _Checker) -> dict | None:
    """The algorithm's fields of ``ExperimentConfig``, checked; ``x0`` is
    checked against ``box``, the (lower, upper) of a valid domain, and
    defaults to its midpoint."""
    path = "algorithm"
    if not isinstance(doc, dict):
        chk.fail(f"{path}: expected an object")
        return None
    variant = chk.choice(doc, path, "variant", tuple(ALGORITHM_KEYS))
    if variant is None:
        if "variant" not in doc:
            chk.fail(f"{path}: missing required key 'variant'")
        return None
    optional, tuned = ALGORITHM_KEYS[variant]
    if not chk.expect_keys(doc, path, {"variant"}, optional):
        return None

    tuning = chk.choice(doc, path, "tuning", (EXPLICIT, AUTO), default=EXPLICIT)
    beta = chk.number(doc, path, "beta")
    c = chk.number(doc, path, "c")
    alpha = chk.number(doc, path, "alpha", default=1.0)
    window = chk.integer(doc, path, "window")
    chk.rules(path, step_problems(beta, c, window) + (alpha_problems(alpha) if alpha is not None else []))

    for key in tuned:
        if tuning == EXPLICIT and key not in doc:
            chk.fail(f"{path}: {variant} with explicit tuning requires {key!r}")
        if tuning == AUTO and key in doc:
            chk.fail(f"{path}: {key!r} is computed by auto tuning and may not be declared")

    x0 = chk.vector(doc, path, "x0")
    if box is not None:
        lower, upper = box
        if variant != ORACLE and "x0" not in doc:
            x0 = tuple(0.5 * (a + b) for a, b in zip(lower, upper))
        elif x0 is not None and len(x0) != len(lower):
            chk.fail(f"{path}.x0: expected {len(lower)} components, got {len(x0)}")
        elif x0 is not None and any(not (lo <= v <= hi) for v, lo, hi in zip(x0, lower, upper)):
            chk.fail(f"{path}.x0: {list(x0)} lies outside the domain box")
    return {
        "variant": variant,
        "tuning": tuning,
        "x0": x0,
        "beta": beta,
        "c": c,
        "alpha": alpha,
        "window": window,
    }


def _parse_document(doc: dict, chk: _Checker, extra_top_keys: set[str] = frozenset()) -> ExperimentConfig | None:
    top_required = {"domain", "objectives", "noise", "algorithm", "horizon", "replications", "base_seed"}
    top_optional = {"schedule"} | extra_top_keys
    chk.expect_keys(doc, "config", top_required, top_optional)

    box = None  # the (lower, upper) of a valid domain
    if isinstance(doc.get("domain"), dict):
        if chk.expect_keys(doc["domain"], "domain", {"lower", "upper"}, set()):
            lower = chk.vector(doc["domain"], "domain", "lower")
            upper = chk.vector(doc["domain"], "domain", "upper")
            if lower is not None and upper is not None and chk.rules("domain", bound_problems(lower, upper)):
                box = (lower, upper)
    elif "domain" in doc:
        chk.fail("domain: expected an object with 'lower' and 'upper'")

    horizon = chk.integer(doc, "config", "horizon", minimum=1)
    replications = chk.integer(doc, "config", "replications", minimum=1, maximum=MAX_REPLICATIONS)
    base_seed = chk.integer(doc, "config", "base_seed", minimum=0)

    entries: list[tuple[str, dict]] = []
    if isinstance(doc.get("objectives"), list) and doc["objectives"]:
        for i, entry_doc in enumerate(doc["objectives"]):
            entry = _parse_objective(entry_doc, i, chk, box)
            if entry is not None:
                entries.append(entry)
    elif "objectives" in doc:
        chk.fail("objectives: expected a non-empty list of objective objects")

    noise_kind = noise_sigma2 = None
    if isinstance(doc.get("noise"), dict):
        if chk.expect_keys(doc["noise"], "noise", {"kind"}, {"sigma2"}):
            noise_kind = chk.choice(doc["noise"], "noise", "kind", KINDS)
            noise_sigma2 = chk.number(doc["noise"], "noise", "sigma2", default=0.0)
            if noise_kind is not None and noise_sigma2 is not None:
                chk.rules("noise", sigma2_problems(noise_kind, noise_sigma2))
    elif "noise" in doc:
        chk.fail("noise: expected an object with 'kind'")

    schedule = None
    if "schedule" in doc:
        schedule = _parse_schedule(doc["schedule"], horizon, chk)

    algorithm = None
    if "algorithm" in doc:
        algorithm = _parse_algorithm(doc["algorithm"], box, chk)
    if algorithm is not None and algorithm["tuning"] == AUTO and "schedule" not in doc:
        chk.fail(
            "algorithm: auto tuning derives the rate from episodes/horizon, so a 'schedule' section "
            "(its episode count) is required"
        )
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
        domain_lower=box[0],
        domain_upper=box[1],
        objectives=tuple(entries),
        noise_kind=noise_kind,
        noise_sigma2=noise_sigma2,
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
    chk = _Checker()
    cfg = _parse_document(_load(source), chk)
    if cfg is None:
        raise ConfigValidationError(chk.errors)
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
    return cfg._replace(base_seed=base_seed, replications=replications)


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
        field, _, declared = SWEEP_AXES[axis]
        if getattr(base, field) is None:
            chk.fail(f"sweep: axis {axis!r} requires {declared}")
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
