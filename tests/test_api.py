import ast
import importlib
from pathlib import Path

import pytest

import kwbandit

# The scalar step ops that duplicated the engine; each rule now has one
# implementation, ``trajectory.simulate_batch``.
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
