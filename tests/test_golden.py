"""Golden sha256 digests of the CSV artifacts and of what the CLI prints.

Output bytes are a pure function of (config document, seed), so any change
to the engine, the step rules, the tuning or the CSV layout that alters a
single byte shows up here.  Every case runs from its own directory with
``--out out``, so its standard output is as fixed as its files.  The same
artifacts show that the comma-join writer needs no quoting.  Every case runs
at 3 replications, except the ``ONE_ROW`` cases, whose one replication runs
the engine's one-row step loop; the sweep documents run at reduced
horizons, so the whole file takes a few seconds.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kwbandit.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


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


def _quartic_window_3d() -> dict:
    """A sliding window on alternating quartic bowls in a 3-D box."""
    return {
        "domain": {"lower": [-2.0] * 3, "upper": [2.0] * 3},
        "objectives": [
            {"kind": "quartic-perturbed-bowl", "theta": [0.5, -0.5, 0.25], "b": 1.0, "q": 0.05},
            {"kind": "quartic-perturbed-bowl", "theta": [-0.5, 0.25, 0.5], "b": 1.0, "q": 0.05},
        ],
        "schedule": {"episodes": 4},
        "noise": {"kind": "gaussian", "sigma2": 1.0},
        "algorithm": {"variant": "sliding-window", "window": 40, "c": 0.5, "x0": [1.0, -1.0, 0.0]},
        "horizon": 2000,
        "replications": 3,
        "base_seed": 11,
    }


def _tuned_fixed_step_2d() -> dict:
    """Auto tuning on a box whose diameter BLAS's ddot rounds differently
    from a left-to-right sum on a kernel that fuses multiply-adds."""
    return {
        "domain": {"lower": [-2.84, -1.89], "upper": [1.28, 0.23]},
        "objectives": [
            {"kind": "quadratic-bowl", "theta": [-0.5, -0.5], "b": 1.0},
            {"kind": "quadratic-bowl", "theta": [0.5, -1.0], "b": 1.0},
        ],
        "schedule": {"episodes": 2},
        "noise": {"kind": "gaussian", "sigma2": 1.0},
        "algorithm": {"variant": "fixed-step", "tuning": "auto", "x0": [1.0, 0.0]},
        "horizon": 1000,
        "replications": 3,
        "base_seed": 5,
    }


def _held_run(variant: dict) -> dict:
    """Five alternating episodes over 10,000 steps: at 3 replications the
    oracle's or the static rule's trace spans three 4,096-step blocks, and
    every episode change falls inside a block."""
    doc = _load("window_sweep.json")
    del doc["sweep"]
    doc["algorithm"] = variant
    doc["schedule"] = {"episodes": 5}
    doc["horizon"] = 10_000
    return doc


def _vanilla_2d_run() -> dict:
    """The decaying rule in 2-D over 10,000 steps, with seven episodes whose
    changes fall inside its 4,096-step blocks."""
    return {
        "domain": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
        "objectives": [
            {"kind": "quartic-perturbed-bowl", "theta": [0.5, -0.25], "b": 1.0, "q": 0.05},
            {"kind": "quartic-perturbed-bowl", "theta": [-0.75, 0.5], "b": 1.0, "q": 0.05},
        ],
        "schedule": {"episodes": 7},
        "noise": {"kind": "uniform-bounded", "sigma2": 0.3},
        "algorithm": {"variant": "vanilla", "x0": [1.0, -1.0]},
        "horizon": 10_000,
        "replications": 3,
        "base_seed": 17,
    }


def _vanilla_1d_run() -> dict:
    """The decaying rule in 1-D over 10,000 steps from near the wall, with
    five episodes whose changes fall inside its 4,096-step blocks."""
    return _held_run({"variant": "vanilla", "x0": [1.5]})


def _fixed_step_8d() -> dict:
    """A fixed step in an 8-D box, where every squared length adds eight
    squares left to right."""
    return {
        "domain": {"lower": [-2.0] * 8, "upper": [2.0] * 8},
        "objectives": [
            {"kind": "quadratic-bowl", "theta": [0.5, -0.5, 0.25, -0.25, 0.75, -0.75, 0.1, -0.1], "b": 1.0},
            {"kind": "quadratic-bowl", "theta": [-0.5, 0.5, -0.25, 0.25, -0.75, 0.75, -0.1, 0.1], "b": 1.0},
        ],
        "schedule": {"episodes": 3},
        "noise": {"kind": "gaussian", "sigma2": 1.0},
        "algorithm": {"variant": "fixed-step", "beta": 0.1, "c": 0.5, "x0": [1.0, -1.0] * 4},
        "horizon": 1000,
        "replications": 3,
        "base_seed": 23,
    }


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
    "quartic_window_3d": (
        "run",
        _quartic_window_3d,
        {
            "trace.csv": "642cd6cfccf2b58e7ffaf67074163fe3006f687e4e163f65c7966f427c47ee63",
            "summary.csv": "7c552760eeb20f5272ae192c5696fef59a892b57b467770b9c7e9bd2af1496ca",
        },
    ),
    "tuned_fixed_step_2d": (
        "run",
        _tuned_fixed_step_2d,
        {
            "trace.csv": "3b90cadddb819db9aac2b481eeafcf290d00fe09bfbb83fc5cbd133847a79b23",
            "summary.csv": "b927909d0346a3557796a996eae88f1b50cd7dc01f9cfa9529c7fec5c76f13a7",
        },
    ),
    "oracle_episodes": (
        "run",
        lambda: _held_run({"variant": "oracle"}),
        {
            "trace.csv": "19fe805e9878f0bd10d1c790d71768c6e3e3dff96a310d7ee2fa0f2a1f583900",
            "summary.csv": "c501b8504962dda932be73d9705850025c5ac39fc15d3288940613c8978a2177",
        },
    ),
    "static_episodes": (
        "run",
        lambda: _held_run({"variant": "static", "x0": [1.0]}),
        {
            "trace.csv": "90ccff903be356435050c20fab345b5223527babd87fc37db4895e97eacd0d5e",
            "summary.csv": "6641c0f345226d53f607002246d6ebbdf6bf47b62d901b25e1fb340fd61b35cc",
        },
    ),
    "vanilla_2d": (
        "run",
        _vanilla_2d_run,
        {
            "trace.csv": "ff8ef2789d8433f7aa8fa1fbf82cf6d99a32ffa42bcd3674073d720e94cf89c2",
            "summary.csv": "b710d5064b9eaf77bfa526ea2fddc8242db6cb3e969661b4ec076b0c0616ad42",
        },
    ),
    "vanilla_1d": (
        "run",
        _vanilla_1d_run,
        {
            "trace.csv": "2f21b1985fd159ab7e17ce9a146f5e8a100865afe379c674c0722005d622444a",
            "summary.csv": "c47c3a4c3ca388b07b5917bba5c60e0655d957f252794b285293292053f7aacb",
        },
    ),
    "vanilla_2d_one_row": (
        "run",
        _vanilla_2d_run,
        {
            "trace.csv": "ff8ef2789d8433f7aa8fa1fbf82cf6d99a32ffa42bcd3674073d720e94cf89c2",
            "summary.csv": "03b85d848fe34c887a431d3170c7526203cadc33372bbd24aa6d8b2a3510e64f",
        },
    ),
    "quartic_window_3d_one_row": (
        "run",
        _quartic_window_3d,
        {
            "trace.csv": "642cd6cfccf2b58e7ffaf67074163fe3006f687e4e163f65c7966f427c47ee63",
            "summary.csv": "8035dd871986d0d74ff9a615d66f603577740b77da183facd5e8f39a34ae9e16",
        },
    ),
    "fixed_step_8d_one_row": (
        "run",
        _fixed_step_8d,
        {
            "trace.csv": "d9f0e1540747b7d575f600f4fae0dbc8cd5fb35989e89fe3459ebe96d105e68d",
            "summary.csv": "122d2fb85d632ab7bde351634219e679d5d28c1424cd86faddc5a9e85ef9a8e7",
        },
    ),
    # what ``verify`` prints at its default grid of 16 points per axis; it
    # writes no artifact
    "quartic_conditions_verify": ("verify", lambda: _load("quartic_conditions.json"), {}),
    "fixed_step_8d": (
        "run",
        _fixed_step_8d,
        {
            "trace.csv": "d9f0e1540747b7d575f600f4fae0dbc8cd5fb35989e89fe3459ebe96d105e68d",
            "summary.csv": "4449a794251987d07660c99037f0e78ae7377a7dc3288a166751abb07a2de579",
        },
    ),
}

# cases run at one replication
ONE_ROW = {"fixed_step_8d_one_row", "quartic_window_3d_one_row", "vanilla_2d_one_row"}

# case -> sha256 of what the CLI printed, run from the case's directory
STDOUT = {
    "adversarial_packed_early": "9e1ee246e21b0d09945353e4ad89e02078d8fd4ee60eed5dc3e90812fd57058f",
    "beta_sweep": "a19fc304ecb233289573e4eca73e04b5ad434c0111e5b7b4c6144b1661d51343",
    "fixed_step_8d": "d9098e965ce604ff02b1661f20ab2eafda21776838cb54f4f0be560669823de9",
    "fixed_step_8d_one_row": "cfe18128fd26368d880603968ac4fa20478ffe4b9bfa1ffdf5337418769392a2",
    "oracle_episodes": "600ba5515eb3b323ae4c9444122bf262e0f1a67ded2e6a3aaa2ab1180aba6d77",
    "quartic_conditions": "58abfbfb7f92135fbc80d76b4e2e4e3b4d4256385315c6fa95a265583b3a37e6",
    "quartic_conditions_verify": "6b3f414e0099aad2186ed400a45763c8f82055e3f798f4c681ba9aa8ba54ca36",
    "quartic_window_3d": "a2c7b5944c39e1534686b97756b2c12b47dc766a939bdcaf0261e2502e592867",
    "quartic_window_3d_one_row": "f28df6815fa644cc651de7f8547ceb6d7537d831f83915ee81f01603eabb9d2d",
    "sliding_window": "9eeb8039de4d982c4237a7485be1536aef1ca4ac0729ecbee756edcae0e864b5",
    "smoke": "b16d648f229f795da013ebb6adc17a72592cd9b41f7eae6990c4b755f2e0218a",
    "static_episodes": "ed01dcae1c99621b16928a8ce44c9ae342c27655bd3db3f4ec611542218d6811",
    "stationary_sweep": "febf26fca46607fe919b11e816a32e3367ea424a410057271e2c27e596d566d9",
    "tuned_fixed_step_2d": "142822171e21d4e09bf8f93da95a5d9e14a3a957c4d595507aded8ba239c9411",
    "vanilla_1d": "e72fae510d69b96bea380312ee8176459218daf499b4bde5be3de4b86d0a1c3c",
    "vanilla_2d": "016dc3ee3020eb8a38d74b74a32fdd822dfc543a9b3f7d5d50caf3bd8adabda5",
    "vanilla_2d_one_row": "51b1bc734757e2e5209df5854a26c60fa1c1f0631b9ae670053140382d68f493",
    "window_length_sweep": "a7369e198ac5529e154e92c21e2f634bb9d121402f2680acb504fb2b1903a79f",
    "window_sweep": "64f52e76f72be6c00462423b92bc0595c64d389570973001fa5b2bb8fe29874e",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The output directory of a case, which runs once per module; what the
    CLI printed is the file ``stdout`` beside it."""
    outs = {}

    def run(case: str) -> Path:
        if case not in outs:
            command, document, _ = CASES[case]
            work = tmp_path_factory.mktemp(case)
            (work / "config.json").write_text(json.dumps(document()), encoding="utf-8")
            printed = io.StringIO()
            replications = "1" if case in ONE_ROW else "3"
            with contextlib.chdir(work), contextlib.redirect_stdout(printed):
                code = main([command, "--config", "config.json", "--replications", replications, "--out", "out"])
            assert code == 0
            (work / "stdout").write_bytes(printed.getvalue().encode("utf-8"))
            outs[case] = work / "out"
        return outs[case]

    return run


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_digests(case, artifacts):
    out, expected = artifacts(case), CASES[case][2]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected}
    assert digests == expected


@pytest.mark.parametrize("case", sorted(STDOUT))
def test_stdout_digests(case, artifacts):
    printed = (artifacts(case).parent / "stdout").read_bytes()
    assert hashlib.sha256(printed).hexdigest() == STDOUT[case], printed.decode("utf-8")


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


def test_bytes_do_not_depend_on_the_blas_kernel(artifacts, tmp_path):
    """``run`` in a child process on OpenBLAS's Prescott kernel, which fuses
    no multiply-add, writes the bytes of the in-process run.  Without
    OpenBLAS the variable does nothing."""
    expected = artifacts("tuned_fixed_step_2d")
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=src)
    args = ["run", "--config", str(expected.parent / "config.json"), "--replications", "3", "--out", str(tmp_path)]
    entry = "import sys; from kwbandit.cli import main; sys.exit(main())"
    subprocess.run([sys.executable, "-c", entry, *args], env=env, check=True, capture_output=True, timeout=120)
    for name in ("summary.csv", "trace.csv"):
        assert (tmp_path / name).read_bytes() == (expected / name).read_bytes()
