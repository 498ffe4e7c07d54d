import contextlib
import copy
import gc
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kwbandit import runner
from kwbandit.cli import main
from kwbandit.config import MAX_REP_STEPS, MAX_REPLICATIONS, ExperimentConfig
from kwbandit.noise import NoiseModel


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.fixture
def smoke(tmp_path):
    return write_config(
        tmp_path,
        {
            "domain": {"lower": [-2.0], "upper": [2.0]},
            "objectives": [{"kind": "quadratic-bowl", "theta": [0.0], "b": 1.0}],
            "noise": {"kind": "none"},
            "algorithm": {"variant": "fixed-step", "beta": 0.1, "c": 0.1, "x0": [1.0]},
            "horizon": 50,
            "replications": 1,
            "base_seed": 7,
        },
    )


@pytest.fixture
def sweep_config(tmp_path):
    return write_config(
        tmp_path,
        {
            "domain": {"lower": [-2.0], "upper": [2.0]},
            "objectives": [{"kind": "quadratic-bowl", "theta": [0.0], "b": 1.0}],
            "schedule": {"episodes": 1},
            "noise": {"kind": "gaussian", "sigma2": 1.0},
            "algorithm": {"variant": "fixed-step", "tuning": "auto", "x0": [1.0]},
            "horizon": 100,
            "replications": 3,
            "base_seed": 1,
            "sweep": {"axis": "T", "values": [50, 100, 200]},
        },
        name="sweep.json",
    )


def wide_doc(d, horizon):
    """The smoke config in ``d`` dimensions."""
    return {
        "domain": {"lower": [-2.0] * d, "upper": [2.0] * d},
        "objectives": [{"kind": "quadratic-bowl", "theta": [0.0] * d, "b": 1.0}],
        "noise": {"kind": "none"},
        "algorithm": {"variant": "fixed-step", "beta": 0.1, "c": 0.1, "x0": [1.0] * d},
        "horizon": horizon,
        "replications": 1,
        "base_seed": 7,
    }


def window_doc(k5):
    return {
        "domain": {"lower": [-2.0], "upper": [2.0]},
        "objectives": [{"kind": "quadratic-bowl", "theta": [0.5], "b": 1.0, "k5": k5}],
        "noise": {"kind": "gaussian", "sigma2": 1.0},
        "algorithm": {"variant": "sliding-window", "window": 64, "c": 0.5, "x0": [0.0]},
        "horizon": 3000,
        "replications": 30,
        "base_seed": 6,
    }


def test_run_writes_artifacts(smoke, tmp_path, capsys):
    code = main(["run", "--config", smoke, "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out/trace.csv").exists()
    assert (tmp_path / "out/summary.csv").exists()
    assert "mean total regret" in capsys.readouterr().out


def test_gaussian_noise_of_zero_variance_writes_the_noiseless_bytes(tmp_path, capsys):
    """sigma2 = 0 is a valid gaussian variance: the smoke config's run
    writes the bytes that it writes without noise."""
    smoke = json.loads(Path(SHIPPED_SMOKE).read_text())
    outputs = []
    for noise in ({"kind": "gaussian", "sigma2": 0}, {"kind": "none"}):
        out = tmp_path / noise["kind"]
        assert main(["run", "--config", write_config(tmp_path, {**smoke, "noise": noise}), "--out", str(out)]) == 0
        outputs.append({name: (out / name).read_bytes() for name in ("trace.csv", "summary.csv")})
    assert outputs[0] == outputs[1]
    assert capsys.readouterr().err == ""


def test_validation_error_exit_code(tmp_path, capsys):
    bad = write_config(tmp_path, {"horizon": 10})
    assert main(["run", "--config", bad, "--out", str(tmp_path / "out")]) == 1
    assert "missing required key" in capsys.readouterr().err


def test_verify_reports_conditions(smoke, tmp_path, capsys):
    assert main(["verify", "--config", smoke, "--grid", "16"]) == 0
    out = capsys.readouterr().out
    assert "curvature-lower-bound" in out and "ALL HOLD" in out


@pytest.mark.parametrize("grid", [0, 1])
def test_verify_rejects_a_grid_too_coarse_to_difference(grid, smoke, capsys):
    assert main(["verify", "--config", smoke, "--grid", str(grid)]) == 1
    assert "grid_points_per_axis" in capsys.readouterr().err


def test_bounds_prints_plain_floats(tmp_path, capsys):
    assert main(["bounds", "--config", write_config(tmp_path, window_doc(k5=1.0))]) == 0
    out = capsys.readouterr().out
    assert "bound sliding-window-total = " in out
    assert "np.float64" not in out


def test_bounds_prints_terms(smoke, tmp_path, capsys):
    code = main(["bounds", "--config", smoke])
    assert code == 0
    out = capsys.readouterr().out
    assert "bound fixed-step-total" in out and "term tracking" in out


def test_bounds_check_passes_for_dominated_run(tmp_path, capsys):
    doc = {
        "domain": {"lower": [-2.0], "upper": [2.0]},
        "objectives": [{"kind": "quadratic-bowl", "theta": [0.0], "b": 1.0}],
        "noise": {"kind": "gaussian", "sigma2": 0.25},
        "algorithm": {"variant": "fixed-step", "beta": 0.1, "c": 0.5, "x0": [1.0]},
        "horizon": 200,
        "replications": 50,
        "base_seed": 3,
    }
    cfg = write_config(tmp_path, doc)
    assert main(["bounds", "--config", cfg, "--check"]) == 0
    assert "PASS" in capsys.readouterr().out


SHIPPED_SMOKE = str(Path(__file__).resolve().parents[1] / "configs" / "smoke.json")


def test_bounds_without_check_needs_no_replications(capsys):
    # smoke.json has one replication: the formulas alone still evaluate
    assert main(["bounds", "--config", SHIPPED_SMOKE]) == 0
    assert "bound fixed-step-total" in capsys.readouterr().out


@pytest.mark.parametrize("override", [[], ["--replications", "1"]], ids=["config", "override"])
def test_bounds_check_needs_two_replications(override, capsys):
    # one replication has no standard error, so no statistical tolerance applies
    assert main(["bounds", "--config", SHIPPED_SMOKE, "--check", *override]) == 1
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1
    assert "replications >= 2" in captured.err
    assert captured.out == ""  # rejected before the bound report prints


# In a fresh interpreter: this one has loaded every module of the package.
MODULES_AFTER = """
import sys
from kwbandit.cli import main
code = main(sys.argv[1:])
print(code, "kwbandit.conditions" in sys.modules, "kwbandit.scaling" in sys.modules)
"""


@pytest.mark.parametrize("command, grids", [("run", False), ("sweep", False), ("bounds", False), ("verify", True)])
def test_only_verify_loads_the_condition_grids(command, grids, sweep_config, tmp_path):
    """Only verify loads the condition grids, and only sweep the exponent fit."""
    config = sweep_config if command == "sweep" else SHIPPED_SMOKE
    argv = [sys.executable, "-c", MODULES_AFTER, command, "--config", config, "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, check=True)
    assert child.stdout.splitlines()[-1] == f"0 {grids} {command == 'sweep'}"


# What the console script runs: ``main`` as the process's command.
PROGRAM_ENTRY = "import sys; from kwbandit.cli import main; sys.exit(main())"
# The program entry with the noise worker forked on any host, reporting
# each fork's pid on stderr.
PROGRAM_ENTRY_FORKS = """
import os, sys
from kwbandit import noiseworker
noiseworker._cpus = lambda: 2
fork = os.fork
def forked():
    pid = fork()
    if pid:
        print(pid, file=sys.stderr, flush=True)
    return pid
os.fork = forked
""" + PROGRAM_ENTRY


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads a process's state from /proc")
def test_a_sweep_through_the_program_entry_writes_the_in_process_bytes(tmp_path, capsys):
    """A sweep of 128 replications a point run as the process's command:
    its batches share their draw with the noise worker, which forks after
    ``main`` has frozen the collector's objects.  It prints and writes the
    bytes of the same sweep run in-process, and at exit the worker has
    been reaped."""
    doc = json.loads((Path(SHIPPED_SMOKE).parent / "stationary_sweep.json").read_text())
    doc["horizon"], doc["sweep"]["values"] = 100, [100, 1000, 4000]
    args = ["sweep", "--config", "config.json", "--replications", "128", "--out", "out"]
    inside, entry = tmp_path / "inside", tmp_path / "entry"
    for work in (inside, entry):
        work.mkdir()
        write_config(work, doc)
    with contextlib.chdir(inside):
        assert main(args) == 0
    printed = capsys.readouterr().out
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = [sys.executable, "-c", PROGRAM_ENTRY_FORKS, *args]
    child = subprocess.run(argv, cwd=entry, env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout == printed
    for name in (runner.SWEEP_SUMMARY_CSV, runner.EXPONENT_FIT_CSV):
        assert (entry / "out" / name).read_bytes() == (inside / "out" / name).read_bytes()
    forked = [int(pid) for pid in child.stderr.split()]
    assert forked, "the sweep forked no noise worker"
    for pid in forked:
        stat = Path(f"/proc/{pid}/stat")
        assert not stat.exists() or stat.read_text().rpartition(")")[2].split()[0] in ("Z", "X"), "a worker runs on"


def test_only_the_program_entry_freezes_the_collector(tmp_path, capsys):
    """Importing the CLI leaves the collector as it was, and so does
    ``main`` called in-process; ``main`` as the process's command freezes
    the objects built so far, and they stay frozen up to the exit hooks."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    imported = "import gc, kwbandit.cli; print(gc.isenabled(), gc.get_freeze_count())"
    child = subprocess.run([sys.executable, "-c", imported], env=env, capture_output=True, text=True, timeout=60)
    assert child.stdout.split() == ["True", "0"], child.stderr

    frozen = gc.get_freeze_count()
    assert main(["run", "--config", SHIPPED_SMOKE, "--out", str(tmp_path / "inside")]) == 0
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()

    at_exit = "import atexit, gc; atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
    argv = [sys.executable, "-c", at_exit + PROGRAM_ENTRY, "run", "--config", SHIPPED_SMOKE, "--out", str(tmp_path)]
    child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    word, count = child.stdout.splitlines()[-1].split()
    assert word == "frozen" and int(count) > 0


def test_bounds_for_oracle_is_a_validation_error(tmp_path, capsys):
    doc = {
        "domain": {"lower": [-2.0], "upper": [2.0]},
        "objectives": [{"kind": "quadratic-bowl", "theta": [0.0], "b": 1.0}],
        "noise": {"kind": "none"},
        "algorithm": {"variant": "oracle"},
        "horizon": 10,
        "replications": 1,
        "base_seed": 0,
    }
    assert main(["bounds", "--config", write_config(tmp_path, doc)]) == 1


def test_sweep_subcommand(sweep_config, tmp_path, capsys):
    assert main(["sweep", "--config", sweep_config, "--out", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s/sweep_summary.csv").exists()
    assert (tmp_path / "s/exponent_fit.csv").exists()
    assert "fitted exponent" in capsys.readouterr().out


@pytest.mark.parametrize("override", [["--seed", "-1"], ["--replications", "0"]], ids=["seed", "replications"])
@pytest.mark.parametrize("command", [["run"], ["sweep"], ["bounds", "--check"]], ids=["run", "sweep", "bounds"])
def test_bad_override_is_a_validation_error(command, override, smoke, sweep_config, tmp_path, capsys):
    config = sweep_config if command == ["sweep"] else smoke
    assert main([*command, "--config", config, *override, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "override." in err


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
QUARTIC_CONDITIONS = str(CONFIGS / "quartic_conditions.json")
SECOND_OBJECTIVE = {"kind": "quadratic-bowl", "theta": [0.5], "b": 1.0}

# One document per value rule: the shipped smoke config with the sections
# given here, and the one problem the rule's function reports, after the
# section's path.
SMOKE_ALGORITHM = {"variant": "fixed-step", "beta": 0.1, "c": 0.1, "x0": [1.0]}
RULE_CASES = {
    "domain-bound-lengths": (
        {"domain": {"lower": [-2.0], "upper": [2.0, 2.0]}},
        "domain: lower has 1 components, upper has 2",
    ),
    "domain-lower-below-upper": (
        {"domain": {"lower": [2.0], "upper": [2.0]}},
        "domain: axis 0: lower must be < upper, got [2.0, 2.0]",
    ),
    "objective-theta-in-box": (
        {"objectives": [{"kind": "quadratic-bowl", "theta": [5.0], "b": 1.0}]},
        "objectives[0]: theta [5.0] lies outside the domain box",
    ),
    "objective-b": (
        {"objectives": [{"kind": "quadratic-bowl", "theta": [0.0], "b": -1.0}]},
        "objectives[0]: b must be > 0, got -1.0",
    ),
    "objective-q": (
        {"objectives": [{"kind": "quartic-perturbed-bowl", "theta": [0.0], "b": 1.0, "q": 0}]},
        "objectives[0]: q must be > 0, got 0.0",
    ),
    "objective-k5": (
        {"objectives": [{"kind": "quadratic-bowl", "theta": [0.0], "b": 1.0, "k5": 0}]},
        "objectives[0]: k5 must be a positive finite real, got 0.0",
    ),
    "objective-s0": (
        {"objectives": [{"kind": "quadratic-bowl", "theta": [0.0], "b": 1.0, "s0": -1}]},
        "objectives[0]: s0 must be >= 0, got -1",
    ),
    "noise-sigma2-nonnegative": (
        {"noise": {"kind": "gaussian", "sigma2": -1.0}},
        "noise: sigma2 must be a finite value >= 0, got -1.0",
    ),
    "noise-none-sigma2": (
        {"noise": {"kind": "none", "sigma2": 1.0}},
        "noise: noise kind 'none' requires sigma2 = 0, got 1.0",
    ),
    "noise-uniform-sigma2": (
        {"noise": {"kind": "uniform-bounded", "sigma2": 0}},
        "noise: uniform-bounded noise requires sigma2 > 0",
    ),
    "algorithm-beta": ({"algorithm": {**SMOKE_ALGORITHM, "beta": -0.1}}, "algorithm: beta must be > 0, got -0.1"),
    "algorithm-c": ({"algorithm": {**SMOKE_ALGORITHM, "c": 0}}, "algorithm: c must be > 0, got 0.0"),
    "algorithm-window": (
        {"algorithm": {"variant": "sliding-window", "window": 0, "x0": [1.0]}},
        "algorithm: window must be >= 1, got 0",
    ),
    "algorithm-alpha": (
        {"algorithm": {**SMOKE_ALGORITHM, "alpha": 1.5}},
        "algorithm: alpha must lie in (0, 1], got 1.5",
    ),
    "schedule-first-change-time": (
        {"schedule": {"change_times": [2]}},
        "schedule: the first change time must be 1 (start of the first episode), got 2",
    ),
    "schedule-change-times-increase": (
        {"schedule": {"change_times": [1, 1]}},
        "schedule: change times must be strictly increasing, got [1, 1]",
    ),
    "schedule-change-times-in-horizon": (
        {"schedule": {"change_times": [1, 101]}},
        "schedule: change times must lie in [1, horizon=100], got [1, 101]",
    ),
    "schedule-episodes-in-horizon": (
        {"schedule": {"episodes": 101}},
        "schedule: cannot fit 101 episodes into horizon 100",
    ),
}

# four of those cases, in four sections, broken together in one document,
# which reports all four problems on its one line
SEVERAL_RULES = ("objective-b", "noise-none-sigma2", "algorithm-alpha", "schedule-episodes-in-horizon")

# id, argv ("{dir}" is a scratch directory holding the files of
# ``bad_inputs``), exit code, lines on stderr, texts naming the fault (on
# stdout for exit 3, the failed check's report; "{dir}" as in argv)
EXIT_CODE_MATRIX = [
    *(
        (f"rule-{name}", ["run", "--config", f"{{dir}}/rule-{name}.json"], 1, 1, (f"invalid config: {text}",))
        for name, (_, text) in RULE_CASES.items()
    ),
    ("several-rules", ["run", "--config", "{dir}/several-rules.json"], 1, 1, tuple(RULE_CASES[n][1] for n in SEVERAL_RULES)),
    ("missing-config", ["run", "--config", "{dir}/nope.json"], 2, 1, ("No such file",)),
    ("directory", ["run", "--config", "{dir}"], 2, 1, ("Is a directory",)),
    ("non-utf8", ["run", "--config", "{dir}/non-utf8.json"], 1, 1, ("{dir}/non-utf8.json", "not UTF-8")),
    ("invalid-json", ["run", "--config", "{dir}/invalid.json"], 1, 1, ("not well-formed JSON",)),
    ("non-object-json", ["run", "--config", "{dir}/array.json"], 1, 1, ("top level must be a JSON object",)),
    ("unknown-key", ["run", "--config", "{dir}/unknown-key.json"], 1, 1, ("unknown key 'extra_field'",)),
    ("deep-nesting", ["run", "--config", "{dir}/deep.json"], 1, 1, ("nested too deeply",)),
    ("bad-seed", ["run", "--config", SHIPPED_SMOKE, "--seed", "-1"], 1, 1, ("override.base_seed",)),
    ("verify-bad-seed", ["verify", "--config", SHIPPED_SMOKE, "--seed", "-1"], 1, 1, ("override.base_seed",)),
    ("verify-no-contraction", ["verify", "--config", "{dir}/beta-0.6.json"], 1, 1, ("contraction factor", "beta=0.6")),
    (
        "schedule-less-two-objectives",
        ["run", "--config", "{dir}/two-objectives.json"],
        1,
        1,
        ("a config without a schedule must declare exactly one objective",),
    ),
    ("grid-1", ["verify", "--config", SHIPPED_SMOKE, "--grid", "1"], 1, 1, ("grid_points_per_axis",)),
    ("grid-over-budget", ["verify", "--config", QUARTIC_CONDITIONS, "--grid", "1001"], 1, 1, ("1001", "1002001")),
    ("bounds-check-one-replication", ["bounds", "--config", SHIPPED_SMOKE, "--check"], 1, 1, ("replications >= 2",)),
    ("unknown-flag", ["run", "--config", SHIPPED_SMOKE, "--threads", "2"], 2, 2, ("unrecognized arguments: --threads",)),
    ("out-names-a-file", ["run", "--config", SHIPPED_SMOKE, "--out", "{dir}/a-file"], 2, 1, ("File exists",)),
    ("sweep-nan-value", ["sweep", "--config", "{dir}/nan-sweep.json"], 1, 1, ("sweep.values", "finite")),
    ("sweep-infinite-value", ["sweep", "--config", "{dir}/infinite-sweep.json"], 1, 1, ("sweep.values", "finite")),
    ("sweep-huge-integer-beta", ["sweep", "--config", "{dir}/huge-beta-sweep.json"], 1, 1, ("sweep.values", "finite")),
    ("huge-integer-beta", ["run", "--config", "{dir}/huge-beta.json"], 1, 1, ("algorithm.beta", "finite")),
    ("huge-integer-theta", ["run", "--config", "{dir}/huge-theta.json"], 1, 1, ("objectives[0].theta[0]", "finite")),
    ("huge-integer-sigma2", ["run", "--config", "{dir}/huge-sigma2.json"], 1, 1, ("noise.sigma2", "finite")),
    ("huge-integer-lower", ["run", "--config", "{dir}/huge-lower.json"], 1, 1, ("domain.lower[0]", "finite")),
    ("float-overflow-horizon-run", ["run", "--config", "{dir}/overflow-horizon.json"], 1, 1, ("does not assemble",)),
    (
        "float-overflow-horizon-verify",
        ["verify", "--config", "{dir}/overflow-horizon-window.json"],
        1,
        1,
        ("does not assemble",),
    ),
    ("float-overflow-window", ["run", "--config", "{dir}/overflow-window.json"], 1, 1, ("does not assemble",)),
    ("float-overflow-horizon-bounds", ["bounds", "--config", "{dir}/overflow-horizon.json"], 1, 1, ("does not assemble",)),
    (
        "float-overflow-horizon-sweep",
        ["sweep", "--config", "{dir}/overflow-horizon-sweep.json"],
        1,
        1,
        ("sweep value 1000", "does not assemble"),
    ),
    (
        "replications-over-cap",
        ["run", "--config", "{dir}/too-many-replications.json"],
        1,
        1,
        ("config.replications", f"<= {MAX_REPLICATIONS}"),
    ),
    (
        "replications-override-over-cap",
        ["run", "--config", SHIPPED_SMOKE, "--replications", str(MAX_REPLICATIONS + 1)],
        1,
        1,
        ("override.replications", f"<= {MAX_REPLICATIONS}"),
    ),
    ("rep-steps-over-cap-run", ["run", "--config", "{dir}/horizon-over-cap.json"], 1, 1, (f"cap of {MAX_REP_STEPS}",)),
    (
        "rep-steps-over-cap-bounds-check",
        ["bounds", "--config", "{dir}/horizon-over-cap.json", "--check"],
        1,
        1,
        ("horizon * replications = 2000000000000", f"cap of {MAX_REP_STEPS}"),
    ),
    (
        "rep-steps-over-cap-sweep",
        ["sweep", "--config", "{dir}/horizon-over-cap-sweep.json"],
        1,
        1,
        ("sweep value 1000000000000", f"cap of {MAX_REP_STEPS}"),
    ),
    (
        "rep-steps-override-over-cap",
        ["run", "--config", "{dir}/huge-horizon.json", "--replications", "2"],
        1,
        1,
        ("horizon * replications = 200000000000", f"cap of {MAX_REP_STEPS}"),
    ),
    (
        "float-overflow-perturbation",
        ["run", "--config", "{dir}/huge-c-window.json"],
        1,
        1,
        ("overflow encountered", "float arithmetic"),
    ),
    (
        "float-overflow-difference-one-row",
        ["run", "--config", "{dir}/tiny-c-window.json", "--replications", "1"],
        1,
        1,
        ("overflow encountered", "float arithmetic"),
    ),
    ("undominated-bounds-check", ["bounds", "--config", "{dir}/window.json", "--check"], 3, 0, ("check: FAIL",)),
    (
        "second-objective-does-not-assemble",
        ["run", "--config", "{dir}/strong-quartic.json"],
        1,
        1,
        ("does not assemble: objectives[1]: quartic perturbation too strong",),
    ),
    ("sweep-oracle", ["sweep", "--config", "{dir}/oracle-sweep.json"], 1, 1, ("variant 'oracle'", "zero regret")),
    ("sweep-zero-regret", ["sweep", "--config", "{dir}/zero-regret-sweep.json"], 1, 1, ("log-log fit",)),
]


@pytest.fixture
def bad_inputs(tmp_path):
    smoke = json.loads(Path(SHIPPED_SMOKE).read_text())
    files = {
        "non-utf8.json": b"\xff\xfe{}",
        "invalid.json": b"{",
        "array.json": b"[1, 2]",
        "unknown-key.json": json.dumps({**smoke, "extra_field": 1}).encode(),
        "deep.json": b"[" * 100_000,
        # a declared steady-distance constant k5 far below the rule's real
        # one shrinks the windowed bound under the measured regret
        "window.json": json.dumps(window_doc(k5=0.01)).encode(),
        # beta = 0.6 exceeds k1/k2**2 = 0.5 of the unit bowl: no contraction
        "beta-0.6.json": json.dumps({**smoke, "algorithm": {**smoke["algorithm"], "beta": 0.6}}).encode(),
        "two-objectives.json": json.dumps({**smoke, "objectives": smoke["objectives"] + [SECOND_OBJECTIVE]}).encode(),
        # 2*q*R/b = 5 for the second objective: it has no valid constants
        "strong-quartic.json": json.dumps(
            {
                **smoke,
                "schedule": {"episodes": 2},
                "objectives": smoke["objectives"] + [{**SECOND_OBJECTIVE, "kind": "quartic-perturbed-bowl", "q": 1.0}],
            }
        ).encode(),
        # 10**11 steps in 500 dimensions, at the cap of replication-steps:
        # a second replication takes it over the cap
        "huge-horizon.json": json.dumps(wide_doc(500, horizon=MAX_REP_STEPS)).encode(),
        "horizon-over-cap.json": json.dumps({**smoke, "horizon": 10**12, "replications": 2}).encode(),
        "a-file": b"",
        # the central difference divides by 2c, which overflows
        "huge-c-window.json": json.dumps(
            {**window_doc(k5=1.8), "algorithm": {**window_doc(k5=1.8)["algorithm"], "c": 1e308}}
        ).encode(),
        # the central difference divides the noise by 2c = 2e-320, which
        # overflows on the first step
        "tiny-c-window.json": json.dumps(
            {**window_doc(k5=1.8), "algorithm": {**window_doc(k5=1.8)["algorithm"], "c": 1e-320}}
        ).encode(),
        # over the cap, a run would simulate chunk after chunk until memory ran out
        "too-many-replications.json": json.dumps({**smoke, "replications": 10**400}).encode(),
        # json.loads takes NaN and Infinity, which no order check catches
        "nan-sweep.json": json.dumps(beta_sweep_doc([0.05, float("nan"), 0.2])).encode(),
        "infinite-sweep.json": json.dumps(beta_sweep_doc([0.05, 0.2, float("inf")])).encode(),
        # JSON integers too large for a float: as a number field or a beta
        # sweep value, and as a horizon or window, which the bounds and the
        # tuning take as a float
        "huge-beta-sweep.json": json.dumps(beta_sweep_doc([0.05, 0.2, 10**400])).encode(),
        "huge-beta.json": json.dumps({**smoke, "algorithm": {**smoke["algorithm"], "beta": 10**400}}).encode(),
        "huge-theta.json": json.dumps({**smoke, "objectives": [{**smoke["objectives"][0], "theta": [10**400]}]}).encode(),
        "huge-sigma2.json": json.dumps({**smoke, "noise": {"kind": "gaussian", "sigma2": 10**400}}).encode(),
        "huge-lower.json": json.dumps({**smoke, "domain": {"lower": [-(10**400)], "upper": [2.0]}}).encode(),
        "overflow-horizon.json": json.dumps({**smoke, "horizon": 10**400}).encode(),
        "overflow-horizon-window.json": json.dumps({**window_doc(k5=1.8), "horizon": 10**400}).encode(),
        "overflow-window.json": json.dumps(
            {**window_doc(k5=1.8), "algorithm": {**window_doc(k5=1.8)["algorithm"], "window": 10**400}}
        ).encode(),
        "overflow-horizon-sweep.json": json.dumps(
            {**beta_sweep_doc([0.05]), "sweep": {"axis": "T", "values": [10, 100, 10**400]}}
        ).encode(),
        "horizon-over-cap-sweep.json": json.dumps(
            {**beta_sweep_doc([0.05]), "sweep": {"axis": "T", "values": [10, 100, 10**12]}}
        ).encode(),
        # the oracle has zero regret at every point, and so has a static
        # rule that plays theta: neither has a log-log exponent
        "oracle-sweep.json": json.dumps(t_sweep_doc({"variant": "oracle"})).encode(),
        "zero-regret-sweep.json": json.dumps(t_sweep_doc(ZERO_REGRET_STATIC)).encode(),
    }
    for name, (sections, _) in RULE_CASES.items():
        files[f"rule-{name}.json"] = json.dumps({**smoke, **sections}).encode()
    several = {key: section for name in SEVERAL_RULES for key, section in RULE_CASES[name][0].items()}
    files["several-rules.json"] = json.dumps({**smoke, **several}).encode()
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    return tmp_path


@pytest.mark.parametrize(
    "argv, code, lines, texts", [row[1:] for row in EXIT_CODE_MATRIX], ids=[row[0] for row in EXIT_CODE_MATRIX]
)
def test_bad_input_exit_code(argv, code, lines, texts, bad_inputs, capsys):
    argv = [arg.replace("{dir}", str(bad_inputs)) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(bad_inputs / "out")]
    try:
        exit_code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        exit_code = exc.code
    captured = capsys.readouterr()
    assert exit_code == code
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == lines
    assert captured.err.count("invalid config:") <= 1
    report = captured.out if code == 3 else captured.err
    for text in texts:
        assert text.replace("{dir}", str(bad_inputs)) in report


def test_out_of_memory_is_one_line(sweep_config, tmp_path, capsys, monkeypatch):
    """An allocation that fails in the engine, here each noise block's,
    exits 2 with one line, in a run and in a sweep.  No valid input
    exhausts memory at once: every table the engine builds is bounded by
    its block budget or by the rep-step cap."""

    def no_room(*args):
        raise MemoryError("Unable to allocate the noise block")

    monkeypatch.setattr(NoiseModel, "fill", no_room)
    configs = {"run": write_config(tmp_path, window_doc(k5=1.8)), "sweep": sweep_config}
    for command, config in configs.items():
        assert main([command, "--config", config, "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["out of memory: Unable to allocate the noise block"]


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (MemoryError("no room for the noise"), 2, "out of memory: "),
        (ValueError("zip() argument 2 is shorter than argument 1"), 1, "invalid parameters: "),
    ],
    ids=["memory", "value"],
)
def test_a_failure_in_the_noise_worker_is_one_line(
    error, code, prefix, sweep_config, tmp_path, capsys, monkeypatch, worker_forks
):
    """The fill fails in the forked noise worker: run and sweep exit with
    the code and the one line that the same failure in-process gives, and
    leave no child."""

    def fails(*args):
        raise error

    monkeypatch.setattr(NoiseModel, "fill", fails)
    configs = {"run": write_config(tmp_path, window_doc(k5=1.8)), "sweep": sweep_config}
    for command, config in configs.items():
        assert main([command, "--config", config, "--out", str(tmp_path / command)]) == code
        assert capsys.readouterr().err.splitlines() == [prefix + str(error)]
    assert len(worker_forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_window_longer_than_the_run_builds_no_weight_table(tmp_path, capsys):
    """A window of 10**15 steps never restarts within 3,000 steps, so its
    run is that of a 3,000-step window; the weights of the steps run are
    computed, not a table of 10**15 of them."""
    traces = []
    for window in (10**15, 3000):
        doc = window_doc(k5=1.8)
        doc["algorithm"]["window"] = window
        out = tmp_path / str(window)
        assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_naming_a_file_fails_before_simulating(command, smoke, sweep_config, tmp_path, capsys, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr(runner, "regret_samples", no_simulation)
    monkeypatch.setattr(runner, "regret_lanes", no_simulation)
    a_file = tmp_path / "a-file"
    a_file.write_bytes(b"")
    config = sweep_config if command == "sweep" else smoke
    assert main([command, "--config", config, "--out", str(a_file)]) == 2
    err = capsys.readouterr().err
    assert "File exists" in err
    assert len(err.splitlines()) == 1


def beta_sweep_doc(values):
    return {
        "domain": {"lower": [-2.0], "upper": [2.0]},
        "objectives": [{"kind": "quadratic-bowl", "theta": [0.0], "b": 1.0}],
        "noise": {"kind": "gaussian", "sigma2": 1.0},
        "algorithm": {"variant": "fixed-step", "beta": 0.1, "c": 0.5, "x0": [1.0]},
        "horizon": 1000,
        "replications": 20,
        "base_seed": 3,
        "sweep": {"axis": "beta", "values": values},
    }


ZERO_REGRET_STATIC = {"variant": "static", "x0": [0.0]}


def t_sweep_doc(algorithm):
    return {**beta_sweep_doc([0.05]), "algorithm": algorithm, "sweep": {"axis": "T", "values": [10, 20, 40]}}


def test_a_sweep_that_cannot_be_fitted_keeps_its_points(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, t_sweep_doc(ZERO_REGRET_STATIC)), "--out", str(out)]) == 1
    assert "log-log fit" in capsys.readouterr().err
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [["T", "10.0"], ["T", "20.0"], ["T", "40.0"]]
    assert {line.split(",")[12] for line in lines[1:]} == {"0.0"}  # mean_regret
    assert not (out / "exponent_fit.csv").exists()


@pytest.mark.parametrize("command", ["run", "sweep", "bounds --check"])
def test_overrides_give_the_outputs_of_a_document_that_declares_them(command, tmp_path, capsys):
    command, *check = command.split()
    doc = {**beta_sweep_doc([0.05, 0.1, 0.2]), "horizon": 200}
    if command != "sweep":
        del doc["sweep"]
    declared = write_config(tmp_path, {**doc, "base_seed": 11, "replications": 4}, "declared.json")
    overridden = [write_config(tmp_path, doc, "overridden.json"), "--seed", "11", "--replications", "4"]
    outputs = []
    for config in ([declared], overridden):
        out = tmp_path / "out"  # one directory, so "wrote ..." lines match too
        code = main([command, *check, "--config", *config, "--out", str(out)])
        csvs = {path.name: path.read_bytes() for path in out.glob("*.csv")} if out.exists() else {}
        outputs.append((code, capsys.readouterr().out, csvs))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
    assert len(outputs[0][2]) == (0 if check else 2)
    if check:
        assert "monte-carlo mean = " in outputs[0][1]


def unbuildable_last_point_sweeps():
    beta_axis = beta_sweep_doc([0.05, 0.1, 0.6])
    # auto tuning gives beta* = 0.635 at 64 episodes, past k1/k2**2 = 0.5
    delta_axis = {
        **beta_axis,
        "objectives": [{"kind": "quadratic-bowl", "theta": [-0.5], "b": 1.0}, SECOND_OBJECTIVE],
        "schedule": {"episodes": 2},
        "noise": {"kind": "gaussian", "sigma2": 0.01},
        "algorithm": {"variant": "fixed-step", "tuning": "auto", "x0": [0.0]},
        "horizon": 100_000,
        "sweep": {"axis": "delta_T", "values": [1, 2, 64]},
    }
    return [(beta_axis, "sweep value 0.6:"), (delta_axis, "sweep value 64:")]


@pytest.mark.parametrize("doc, names", unbuildable_last_point_sweeps(), ids=["beta", "delta_T"])
def test_sweep_resolves_every_point_before_simulating(doc, names, tmp_path, capsys, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before every point resolved")

    monkeypatch.setattr(runner, "regret_samples", no_simulation)
    monkeypatch.setattr(runner, "regret_lanes", no_simulation)
    assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert names in err and "contraction factor" in err


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["bounds", "--config", str(CONFIGS / "adversarial_packed_early.json")], 1),
        (["sweep", "--config", str(CONFIGS / "stationary_sweep.json")], 3),
        (["sweep", "--config", str(CONFIGS / "window_sweep.json")], 4),
    ],
    ids=["bounds", "stationary-sweep", "window-sweep"],
)
def test_each_experiment_builds_its_schedule_once(argv, builds, tmp_path, monkeypatch):
    calls = []
    build_schedule = ExperimentConfig.build_schedule

    def counted(self):
        calls.append(self)
        return build_schedule(self)

    def unit_regret(experiments):
        return [(np.ones(e.replications), {}) for e in experiments]

    monkeypatch.setattr(ExperimentConfig, "build_schedule", counted)
    monkeypatch.setattr(runner, "regret_lanes", unit_regret)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == builds


# The CLI fuzz test: mutations of the shipped configs, each run by the
# command that takes it.  The configs are first cut to 2 replications and
# short horizons.  A mutation whose experiments ask for more than
# MAX_REP_STEPS replication-steps must exit 1; one that would simulate
# more than FUZZ_BUDGET replication-steps but stays under the cap is
# skipped, so each example runs in milliseconds.  Every outcome must be a
# documented exit code with at most one stderr line.
FUZZ_BUDGET = 50_000
SHIPPED_SWEEPS = ("stationary_sweep.json", "window_sweep.json")
FUZZ_SECONDS = 20
HUGE_INTEGERS = [2**64, 10**400, -(10**400), MAX_REPLICATIONS + 1]
ODD_VALUES = [
    None,
    True,
    "text",
    "line\nbreak",
    [],
    {},
    [1.0, "x"],
    {"kind": 1},
    0,
    -1,
    0.5,
    float("nan"),
    float("inf"),
    -float("inf"),
    1e308,
    -1e308,
    *HUGE_INTEGERS,
]


def _cut(doc: dict) -> dict:
    doc = {**doc, "replications": min(doc["replications"], 2), "horizon": min(doc["horizon"], 1000)}
    if doc.get("sweep", {}).get("axis") == "T":
        doc["sweep"] = {"axis": "T", "values": [50, 100, 200]}
    return doc


def _paths(node, path=()):
    """Every path below ``node``: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*path, key)
        yield from _paths(child, (*path, key))


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from(sorted(path.name for path in CONFIGS.glob("*.json"))))
    doc = _cut(json.loads((CONFIGS / name).read_text()))
    if draw(st.integers(0, 3)) == 0:  # a long run: at the cap with 2 replications, or over it
        long = draw(st.integers(MAX_REP_STEPS // 2, 2 * MAX_REP_STEPS))
        if _t_values(doc):
            doc["sweep"]["values"][-1] = long
        else:
            doc["horizon"] = long
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = copy.deepcopy(doc)
        parent, key = doc, path[-1]
        for step in path[:-1]:
            parent = parent[step]
        mutation = draw(st.sampled_from(["delete", "odd value", "nest"]))
        if mutation == "delete":
            del parent[key]
        elif mutation == "odd value":
            parent[key] = draw(st.sampled_from(ODD_VALUES))
        else:  # deep nesting: the old value inside up to 200 lists
            for _ in range(draw(st.integers(1, 200))):
                parent[key] = [parent[key]]
    return name, doc


def _size(value, most) -> int:
    """``value`` if it is an integer in [1, most], else 0."""
    ok = isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= most
    return value if ok else 0


def _t_values(doc: dict) -> list:
    """The values of a T-axis sweep, the horizons its experiments run; [] for any other document."""
    sweep = doc.get("sweep")
    if isinstance(sweep, dict) and sweep.get("axis") == "T" and isinstance(sweep.get("values"), list):
        return sweep["values"]
    return []


def _fuzz_work(doc: dict) -> int:
    """Replication-steps ``doc`` could simulate: 0 unless its horizons and
    replications are integers in range."""
    horizons = [doc.get("horizon"), *_t_values(doc)]
    longest = max(_size(h, 10**300) for h in horizons)
    return longest * _size(doc.get("replications"), MAX_REPLICATIONS) * len(horizons)


def _over_cap(doc: dict) -> bool:
    """Whether an experiment of ``doc`` asks for more than MAX_REP_STEPS
    replication-steps, its horizon and replications integers in range."""
    replications = _size(doc.get("replications"), MAX_REPLICATIONS)
    horizons = _t_values(doc) or [doc.get("horizon")]
    return any(_size(h, math.inf) * replications > MAX_REP_STEPS for h in horizons)


@settings(max_examples=150, deadline=None)
@given(case=mutated_configs(), command=st.sampled_from(["run", "verify", "bounds", "bounds --check"]))
def test_mutated_shipped_configs_exit_with_one_line(case, command):
    name, doc = case
    over_cap = _over_cap(doc)
    assume(over_cap or _fuzz_work(doc) <= FUZZ_BUDGET)
    if name in SHIPPED_SWEEPS:
        command = "sweep"
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / name
        path.write_text(json.dumps(doc))
        command, *flags = command.split()
        argv = [command, "--config", str(path), "--out", f"{scratch}/out", *flags]
        err = io.StringIO()

        def too_slow(signum, frame):
            raise TimeoutError(f"{argv[0]} on a mutated {name} ran over {FUZZ_SECONDS} s: {json.dumps(doc)[:500]}")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(FUZZ_SECONDS)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("default")
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse usage errors
                        code = exc.code
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    # a warning the CLI lets through prints its own lines on stderr
    lines = err.getvalue().splitlines() + [
        line for w in caught for line in warnings.formatwarning(w.message, w.category, w.filename, w.lineno).splitlines()
    ]
    assert code in (0, 1, 2, 3), (argv, doc)
    assert code == 1 or not over_cap, (argv, doc)
    assert "Traceback" not in err.getvalue()
    assert len(lines) <= 1, (argv[0], lines, doc)
