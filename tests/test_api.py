import ast
import importlib
import inspect
from pathlib import Path

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


def test_all_is_unique_sorted_and_resolves():
    names = kwbandit.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    for name in names:
        getattr(kwbandit, name)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert name not in kwbandit.__all__
    with pytest.raises(AttributeError):
        getattr(kwbandit, name)


@pytest.mark.parametrize("owner, name", REMOVED_ATTRIBUTES, ids=[".".join(pair) for pair in REMOVED_ATTRIBUTES])
def test_removed_attributes_are_gone(owner, name):
    assert not hasattr(getattr(kwbandit, owner), name)


def test_run_sweep_takes_no_testing_hook():
    assert "value_source" not in inspect.signature(kwbandit.run_sweep).parameters


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
