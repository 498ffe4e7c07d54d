import json
from pathlib import Path

import pytest

from kwbandit.cli import main


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


def test_removed_threads_flag_is_a_usage_error(smoke, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", smoke, "--out", str(tmp_path / "out"), "--threads", "2"])
    assert exc.value.code == 2


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


def test_verify_rejects_a_grid_over_the_point_budget(capsys):
    config = Path(__file__).resolve().parents[1] / "configs" / "quartic_conditions.json"
    assert main(["verify", "--config", str(config), "--grid", "1001"]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "1001" in err and "1002001" in err


def test_bounds_check_fails_for_undominated_run(tmp_path, capsys):
    # a declared steady-distance constant k5 far below the rule's real one
    # shrinks the windowed bound under the measured regret, so --check must
    # exit 3
    cfg = write_config(tmp_path, window_doc(k5=0.01))
    assert main(["bounds", "--config", cfg, "--check"]) == 3
    assert "FAIL" in capsys.readouterr().out


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
    assert "check:" not in captured.out


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


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("override", [["--seed", "-1"], ["--replications", "0"]], ids=["seed", "replications"])
@pytest.mark.parametrize("command", [["run"], ["sweep"], ["bounds", "--check"]], ids=["run", "sweep", "bounds"])
def test_bad_override_is_a_validation_error(command, override, smoke, sweep_config, tmp_path, capsys):
    config = sweep_config if command == ["sweep"] else smoke
    assert main([*command, "--config", config, *override, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "override." in err
