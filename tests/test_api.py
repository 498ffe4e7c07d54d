import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kwbandit

# The scalar step ops that duplicated the engine; each rule now has one
# implementation, ``trajectory.simulate_lanes``.
REMOVED = (
    "AlgorithmState",
    "GradientEstimate",
    "estimate_gradient",
    "initial_state",
    "run_trajectory",
    "sample_reward",
    "sliding_window_action",
    "sliding_window_advance",
    "step_fixed",
    "step_vanilla",
    # library code that no command, documented path or benchmark reached
    "adversarial_corpus",
    # second ways in: ``bounds --check`` takes its estimate as ``run`` does,
    # from ``regret_samples`` and ``MonteCarloEstimate.from_samples``, and a
    # chunk's streams as a list are ``list(rng.StreamChunk(...))``
    "monte_carlo_regret",
    "replication_streams",
    # scalar schedules, one Python call per step; the engine tabulates a
    # block at a time with ``decaying_schedule``
    "vanilla_perturbation",
    "vanilla_step_size",
)
REMOVED_ATTRIBUTES = (
    ("schedule", "adversarial_corpus"),
    ("EnvironmentSchedule", "packed"),
    ("FixedStepConfig", "coupled"),
    ("Domain", "midpoint"),
    ("MonteCarloEstimate", "upper_confidence"),
    ("RegretTrace", "episode_regret_totals"),
    # auto tuning and the summary echo read alpha from the config document
    ("FixedStepConfig", "alpha"),
    # the schedule and the box count episodes and dimensions
    ("ExperimentConfig", "dimension"),
    ("ExperimentConfig", "num_episodes"),
    # a config is one flat record of the document, with no serializer
    ("config", "ObjectiveEntry"),
    ("config", "ScheduleSpec"),
    ("config", "AlgorithmSpec"),
    ("ExperimentConfig", "to_dict"),
    ("SweepSpec", "to_dict"),
    # the drivers return the rows they write
    ("runner", "ExperimentResult"),
    ("runner", "SweepResult"),
)
# Public names no production path calls: the bound evaluators that the
# per-episode diagnostics are to wire in.
UNCALLED = (
    "expected_distance_bound",
    "fixed_step_normalized_bound",
    "sliding_window_episode_bound",
    "sliding_window_normalized_bound",
)
ROOT = Path(__file__).parents[1]
# What ``import kwbandit`` leaves for first use: the config parser and the
# JSON module it reads documents with, the CSV drivers and their trace writer,
# the bound evaluators, the condition grids, the exponent fit and the CLI.
DEFERRED = ("json", *(f"kwbandit.{name}" for name in ("bounds", "cli", "conditions", "config", "runner", "scaling", "tracewriter")))
FRESH_IMPORT = """
import sys
import kwbandit
deferred, removed = sys.argv[1].split(","), sys.argv[2].split(",")
print(sorted(set(deferred) & set(sys.modules)))
print(sorted(set(kwbandit.__all__) - set(dir(kwbandit))))
import pkgutil
submodules = [module.name for module in pkgutil.iter_modules(kwbandit.__path__)]
print(sorted(name for name in submodules if getattr(getattr(kwbandit, name, None), "__name__", None) != "kwbandit." + name))
print(sorted(name for name in kwbandit.__all__ if not hasattr(kwbandit, name)))
print(sorted(name for name in removed if hasattr(kwbandit, name)))
print(sorted(submodules))
"""


def test_all_is_unique_sorted_and_resolves():
    names = kwbandit.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    for name in names:
        getattr(kwbandit, name)


def test_import_defers_the_drivers_and_resolves_every_name_on_first_use():
    # a fresh interpreter: in this one, other tests have loaded every module
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = [sys.executable, "-c", FRESH_IMPORT, ",".join(DEFERRED), ",".join(REMOVED)]
    child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, check=True)
    loaded, missing_from_dir, unresolved_modules, unresolved_names, still_there, modules = child.stdout.splitlines()
    assert loaded == "[]"
    assert missing_from_dir == "[]"
    assert unresolved_modules == "[]"
    assert unresolved_names == "[]"
    assert still_there == "[]"
    assert modules == str(sorted(path.stem for path in (ROOT / "src" / "kwbandit").glob("[!_]*.py")))


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert name not in kwbandit.__all__
    with pytest.raises(AttributeError):
        getattr(kwbandit, name)


@pytest.mark.parametrize("owner, name", REMOVED_ATTRIBUTES, ids=[".".join(pair) for pair in REMOVED_ATTRIBUTES])
def test_removed_attributes_are_gone(owner, name):
    assert not hasattr(getattr(kwbandit, owner), name)


@pytest.mark.parametrize("name", ["algorithm", "schedule"])
def test_a_parsed_config_holds_no_nested_record(name):
    # ``algorithm`` had no default, so it was never a class attribute
    cfg = kwbandit.parse_config((ROOT / "configs" / "adversarial_packed_early.json").read_text())
    assert not hasattr(cfg, name)


@pytest.mark.parametrize("name", ["replications", "base_seed"])
def test_an_estimate_echoes_no_inputs(name):
    # a field with no default is not a class attribute, so check an instance
    assert not hasattr(kwbandit.MonteCarloEstimate.from_samples(np.array([1.0, 2.0])), name)


def test_run_sweep_takes_no_testing_hook():
    assert "value_source" not in inspect.signature(kwbandit.run_sweep).parameters


def test_distance_recursion_check_takes_no_seed_path():
    # its streams are keyed (base_seed, r); no caller passed a path
    assert "seed_path" not in inspect.signature(kwbandit.distance_recursion_check).parameters


@pytest.mark.parametrize("driver", [kwbandit.run_experiment, kwbandit.run_sweep], ids=lambda f: f.__name__)
def test_drivers_take_no_overrides(driver):
    # the CLI applies --seed and --replications to the config, for every command
    assert {"seed", "replications"}.isdisjoint(inspect.signature(driver).parameters)


def _referenced_names(path: Path) -> set[str]:
    """Every name ``path`` reads, as a plain name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_production_caller():
    # a public name that only tests reach is dead weight: production is the
    # package itself, its re-exports aside, and the benchmark's child
    sources = [p for p in (ROOT / "src" / "kwbandit").glob("*.py") if p.name != "__init__.py"]
    referenced = set().union(*map(_referenced_names, sources + [ROOT / "perfbench" / "child.py"]))
    uncalled = [name for name in kwbandit.__all__ if name not in referenced]
    assert uncalled == list(UNCALLED)


def test_gradient_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("kwbandit.gradient")


def test_reference_imports_nothing_from_kwbandit():
    # the oracle stays independent of the engine it checks
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported
    assert not [name for name in imported if name.split(".")[0] == "kwbandit"]


def test_benchmark_child_uses_only_names_kwbandit_provides():
    # perfbench/child.py drives the scan and library workloads through
    # ``kb.<name>`` and a few ``from kwbandit.<module> import`` lines; an
    # engine refactor must keep each of them resolving
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "kwbandit"
    }
    assert aliases == {"kb", "kwbandit"}
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "kb"
    }
    assert used
    assert [name for name in sorted(used) if not hasattr(kwbandit, name)] == []
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kwbandit.")
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_every_benchmark_tracer_target_resolves():
    # perfbench/tracer.py leaves out a target it cannot find, and reads 0 for
    # every counter built on it, so a renamed engine function must fail here
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    targets = next(
        node.value.elts
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    )
    paths = [(call.args[0].value, call.args[1].value) for call in targets]
    assert paths
    for module, path in paths:
        owner_name, _, attr = path.rpartition(".")
        owner = importlib.import_module(module)
        if owner_name:
            # the tracer wraps a method where its class defines it
            found = vars(getattr(owner, owner_name)).get(attr)
        else:
            found = getattr(owner, attr, None)
        assert inspect.isfunction(found), f"{module}.{path}"
