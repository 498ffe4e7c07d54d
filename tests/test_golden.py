"""Golden sha256 digests of the CSV artifacts.

Output bytes are a pure function of (config document, seed), so any change
to the engine, the step rules, the tuning or the CSV layout that alters a
single byte shows up here.  The same artifacts show that the comma-join
writer needs no quoting.  Every case runs at 3 replications, and the
sweep documents at reduced horizons, so the whole file takes a few seconds.
"""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from kwbandit.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _load(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text(encoding="utf-8"))


def _sliding_window_run() -> dict:
    doc = _load("window_sweep.json")
    del doc["sweep"]
    doc["horizon"] = 4000
    return doc


def _stationary_sweep() -> dict:
    doc = _load("stationary_sweep.json")
    doc["horizon"] = 100
    doc["sweep"]["values"] = [100, 1000, 4000]
    return doc


def _window_sweep() -> dict:
    doc = _load("window_sweep.json")
    doc["horizon"] = 4096
    return doc


def _beta_sweep() -> dict:
    """Explicit fixed-step points at one horizon: lanes of different rates."""
    doc = _load("stationary_sweep.json")
    doc["algorithm"] = {"variant": "fixed-step", "beta": 0.1, "c": 0.5, "x0": [-0.5]}
    doc["horizon"] = 2000
    doc["sweep"] = {"axis": "beta", "values": [0.05, 0.1, 0.2]}
    return doc


def _window_length_sweep() -> dict:
    """Explicit sliding-window points at one horizon: lanes of different windows."""
    doc = _load("window_sweep.json")
    doc["algorithm"] = {"variant": "sliding-window", "window": 100, "x0": [0.0], "c": 0.5}
    doc["horizon"] = 4096
    doc["sweep"] = {"axis": "L", "values": [50, 100, 200]}
    return doc


# case -> (command, document, {artifact: sha256})
CASES = {
    "smoke": (
        "run",
        lambda: _load("smoke.json"),
        {
            "trace.csv": "03ed7fe2d55839ce286f451ee1dc1f26d5dc7ccdd5c49e7ca5097ffd12dd61be",
            "summary.csv": "76080997cdff00f839c5bb0d25480b9b71b65e10797d9aa936519c4d5c622b73",
        },
    ),
    "quartic_conditions": (
        "run",
        lambda: _load("quartic_conditions.json"),
        {
            "trace.csv": "51a75cc487f154ae202f09354d5d152f1f8354257d3e6cc6c3b49ca6bca7aff4",
            "summary.csv": "7728588359b25db001a40f71206c15539daa72593915503ba3329a66b7b40232",
        },
    ),
    "adversarial_packed_early": (
        "run",
        lambda: _load("adversarial_packed_early.json"),
        {
            "trace.csv": "0ab87b0a43541749bf0a0bf9711163eb4acda545f697e48bc4425b51163c39f0",
            "summary.csv": "70677966c701c53d78c26a921ff0e639b679ce5078855a429cb95bdd4f98e2c5",
        },
    ),
    "sliding_window": (
        "run",
        _sliding_window_run,
        {
            "trace.csv": "8d02b72ad05a26adc99d44d54f3bcc4f1c18adb142021f4f25d7f741dd95ab30",
            "summary.csv": "2aba61a71a99887fcf88084b21ee9d99b1bed6d1cbece926198f726c9d91d774",
        },
    ),
    "stationary_sweep": (
        "sweep",
        _stationary_sweep,
        {
            "sweep_summary.csv": "af90b4c53dc9035a95c5df94d7a2f9d4e495b6d99510df5739fa03218365e4b1",
            "exponent_fit.csv": "45bf84460f361e5ecffb88180572de390d6d4fa6f61e936f04951205c06206ca",
        },
    ),
    "window_sweep": (
        "sweep",
        _window_sweep,
        {
            "sweep_summary.csv": "6f2afa5543739ed0b62d144b9818d74ca28150439364cf8f2e5b88859fa2cdff",
            "exponent_fit.csv": "4d620634dd12fd0f477f37584c97020ba647846123dcf0455d509356bb74045a",
        },
    ),
    "beta_sweep": (
        "sweep",
        _beta_sweep,
        {
            "sweep_summary.csv": "00122e9b7500392cd073a329a3846148d5383d1be74e37c2b835be4d2f3ec6f8",
            "exponent_fit.csv": "772be71d19ce0f0068a49a1f2ceb6dece14d5d9b7257e14410d2c1d74817f3a8",
        },
    ),
    "window_length_sweep": (
        "sweep",
        _window_length_sweep,
        {
            "sweep_summary.csv": "edcf66efa3112124eaf0b7f749872a8905fa632979a9f132a4bc486ab6793765",
            "exponent_fit.csv": "7105f25143c2dbb2a85dc787b1acb96722fd5d3070447803ee1b52b294768816",
        },
    ),
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The output directory of a case, which runs once per module."""
    outs = {}

    def run(case: str) -> Path:
        if case not in outs:
            command, document, _ = CASES[case]
            work = tmp_path_factory.mktemp(case)
            config = work / "config.json"
            config.write_text(json.dumps(document()), encoding="utf-8")
            assert main([command, "--config", str(config), "--replications", "3", "--out", str(work / "out")]) == 0
            outs[case] = work / "out"
        return outs[case]

    return run


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_digests(case, artifacts):
    out, expected = artifacts(case), CASES[case][2]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected}
    assert digests == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_cells_need_no_quoting(case, artifacts):
    # the writer joins cells with commas; that is RFC 4180 only while no
    # cell holds a comma, a quote or a line break
    for name in CASES[case][2]:
        text = (artifacts(case) / name).read_bytes().decode("utf-8")
        rows = list(csv.reader(io.StringIO(text)))
        assert "".join(",".join(row) + "\n" for row in rows) == text
        rewritten = io.StringIO()
        csv.writer(rewritten, lineterminator="\n").writerows(rows)
        assert rewritten.getvalue() == text
