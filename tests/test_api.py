import ast
import importlib
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
)


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
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "child.py").read_text())
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
