"""A hypothesis strategy of valid config documents.

Each value is drawn over a range a little wider than its rules allow and
kept only when the rule functions that read it accept it: the functions
beside the library's classes, which the classes raise and the config
parser reports.  A few facts the parser checks across sections, or the
library only at assembly, are kept by construction instead:

* objectives are distinct, so no two consecutive episodes serve one;
* a quartic bowl's q stays below b / (2R), R the largest distance from
  its theta to the box (the bowl's own check of its constants);
* a sliding window exceeds every objective's burn-in s0, and auto tuning
  of the window declares no burn-in;
* auto tuning has a schedule, and auto tuning of the fixed step has noise
  to tune against (sigma2 > 0).

So a drawn document can fail to assemble only where the contraction
factor is >= 1 (an explicit beta, or an auto-tuned beta* >= k1/k2**2) or
over the replication-step cap.  Floats are rounded to three places, so no
perturbation is small enough that c**2 underflows.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from kwbandit.algorithms import step_problems
from kwbandit.domain import bound_problems
from kwbandit.noise import sigma2_problems
from kwbandit.objectives import calibration_problems, coefficient_problems, theta_problems
from kwbandit.schedule import change_time_problems, episode_problems
from kwbandit.tuning import alpha_problems


def reals(low: float, high: float):
    return st.floats(low, high).map(lambda v: round(v, 3))


def accepted(strategy, rule):
    """The values of ``strategy`` in which ``rule``, a function of one
    value that returns a list of problems, finds none."""
    return strategy.filter(lambda value: not rule(value))


def boxes(dimension: int):
    axis = st.tuples(reals(-3.0, 1.0), reals(-0.2, 4.0)).map(lambda a: ((a[0],), (a[0] + a[1],)))
    axes = st.lists(accepted(axis, lambda a: bound_problems(*a)), min_size=dimension, max_size=dimension)
    return axes.map(lambda axes: {"lower": [a[0][0] for a in axes], "upper": [a[1][0] for a in axes]})


def points(box):
    """The points of ``box``, drawn from a slightly larger one."""
    lower, upper = tuple(box["lower"]), tuple(box["upper"])
    near = st.tuples(*(reals(lo - 0.1, hi + 0.1) for lo, hi in zip(lower, upper)))
    return accepted(near, lambda point: theta_problems(point, lower, upper)).map(list)


@st.composite
def objectives(draw, box, max_s0: int):
    kind = draw(st.sampled_from(["quadratic-bowl", "quartic-perturbed-bowl"]))
    theta = draw(points(box))
    b = draw(accepted(reals(-0.5, 4.0), coefficient_problems))
    doc = {"kind": kind, "theta": theta, "b": b}
    if kind == "quartic-perturbed-bowl":
        radius = math.sqrt(sum(max(t - lo, hi - t) ** 2 for t, lo, hi in zip(theta, box["lower"], box["upper"])))
        q = reals(-0.1, 0.9).map(lambda share: share * b / (2.0 * radius))
        doc["q"] = draw(accepted(q, lambda q: coefficient_problems(b, q)))
    if draw(st.booleans()):
        doc["a"] = draw(reals(-2.0, 2.0))
    if draw(st.booleans()):
        doc["k5"] = draw(accepted(reals(-0.5, 4.0), lambda k5: calibration_problems(k5, 0)))
    if max_s0 > 0 and draw(st.booleans()):
        doc["s0"] = draw(accepted(st.integers(-1, max_s0), lambda s0: calibration_problems(1.0, s0)))
    return doc


@st.composite
def noises(draw, stochastic: bool):
    """A noise section; ``stochastic``: one of variance > 0."""
    kind = draw(st.sampled_from(["gaussian", "uniform-bounded"] + ([] if stochastic else ["none"])))

    def problems(sigma2):
        variance = sigma2 or 0.0
        return sigma2_problems(kind, variance) + (["no noise to tune against"] if stochastic and not variance else [])

    sigma2 = draw(accepted(st.one_of(st.none(), st.just(0.0), reals(-0.5, 2.0)), problems))  # None: the key left out
    return {"kind": kind} if sigma2 is None else {"kind": kind, "sigma2": sigma2}


@st.composite
def algorithms(draw, box):
    variant = draw(st.sampled_from(["vanilla", "fixed-step", "sliding-window", "oracle", "static"]))
    doc = {"variant": variant}
    if variant in ("fixed-step", "sliding-window"):
        doc["tuning"] = draw(st.sampled_from(["explicit", "auto", None]))  # None: the key left out
        if doc["tuning"] is None:
            del doc["tuning"]
    explicit = doc.get("tuning", "explicit") == "explicit"
    if variant == "fixed-step":
        if explicit:
            doc["beta"] = draw(accepted(reals(-0.02, 0.3), lambda beta: step_problems(beta=beta)))
            doc["c"] = draw(accepted(reals(-0.05, 2.0), lambda c: step_problems(c=c)))
        if draw(st.booleans()):
            doc["alpha"] = draw(accepted(reals(0.0, 1.2), alpha_problems))
    if variant == "sliding-window":
        if explicit:
            doc["window"] = draw(accepted(st.integers(-1, 64), lambda window: step_problems(window=window)))
        if draw(st.booleans()):
            doc["c"] = draw(accepted(reals(-0.05, 2.0), lambda c: step_problems(c=c)))
    if variant != "oracle" and draw(st.booleans()):
        doc["x0"] = draw(points(box))
    return doc


@st.composite
def schedules(draw, horizon: int, count: int, required: bool):
    """A schedule for ``count`` objectives, or None (stationary) for one
    unless one is ``required``."""
    form = draw(st.sampled_from(["episodes", "change_times"] + (["none"] if count == 1 and not required else [])))
    if form == "none":
        return None
    if form == "episodes":
        episodes = st.integers(0, horizon + 1) if count > 1 else st.integers(0, 1)
        return {"episodes": draw(accepted(episodes, lambda n: episode_problems(n, horizon)))}
    later = st.lists(st.integers(2, horizon + 1), min_size=count - 1, max_size=count - 1, unique=True)
    times = later.map(lambda later: [1, *sorted(later)])
    return {"change_times": draw(accepted(times, lambda times: change_time_problems(tuple(times), horizon)))}


def _bowl(doc: dict) -> tuple:
    """The bowl an objective document builds: equal for equal bowls."""
    defaults = {"q": None, "a": 0.0, "k5": 1.0, "s0": 0}
    return doc["kind"], tuple(doc["theta"]), doc["b"], *(doc.get(key, value) for key, value in defaults.items())


@st.composite
def documents(draw, max_dimension: int = 3, max_horizon: int = 300, max_replications: int = 5):
    """A config document that ``parse_config`` accepts (see the module's docstring)."""
    box = draw(boxes(draw(st.integers(1, max_dimension))))
    algorithm = draw(algorithms(box))
    auto = algorithm.get("tuning") == "auto"
    horizon = draw(st.integers(1, max_horizon))
    count = draw(st.integers(1, min(3, horizon)))
    if algorithm["variant"] != "sliding-window":
        max_s0 = 3
    else:
        max_s0 = 0 if auto else min(3, algorithm["window"] - 1)
    doc = {
        "domain": box,
        "objectives": draw(st.lists(objectives(box, max_s0), min_size=count, max_size=count, unique_by=_bowl)),
        "noise": draw(noises(stochastic=auto and algorithm["variant"] == "fixed-step")),
        "algorithm": algorithm,
        "horizon": horizon,
        "replications": draw(st.integers(1, max_replications)),
        "base_seed": draw(st.integers(0, 2**32)),
    }
    schedule = draw(schedules(horizon, count, required=auto))
    if schedule is not None:
        doc["schedule"] = schedule
    return doc
