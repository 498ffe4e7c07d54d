import copy
import json

import pytest
from hypothesis import given, settings

from documents import documents
from kwbandit import ConfigValidationError, QuadraticBowl, QuarticPerturbedBowl, parse_config, parse_sweep
from kwbandit.config import MAX_REP_STEPS, ExperimentConfig, _Checker, _parse_objective
from kwbandit.runner import resolve_experiment


def smoke_doc(**overrides):
    doc = {
        "domain": {"lower": [-2.0], "upper": [2.0]},
        "objectives": [{"kind": "quadratic-bowl", "theta": [0.0], "b": 1.0}],
        "noise": {"kind": "none"},
        "algorithm": {"variant": "fixed-step", "beta": 0.1, "c": 0.1, "x0": [1.0]},
        "horizon": 100,
        "replications": 1,
        "base_seed": 7,
    }
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_minimal_stationary_config_valid(self):
        cfg = parse_config(json.dumps(smoke_doc()))
        assert cfg.horizon == 100
        assert cfg.variant == "fixed-step"
        env = cfg.build_schedule()
        assert env.num_episodes == 1

    def test_one_episode_schedule_is_the_stationary_one(self):
        stationary = parse_config(json.dumps(smoke_doc())).build_schedule()
        assert parse_config(json.dumps(smoke_doc(schedule={"episodes": 1}))).build_schedule() == stationary

    def test_theta_outside_domain_names_the_field(self):
        doc = smoke_doc(objectives=[{"kind": "quadratic-bowl", "theta": [5.0], "b": 1.0}])
        with pytest.raises(ConfigValidationError) as err:
            parse_config(json.dumps(doc))
        assert "objectives[0]: theta [5.0] lies outside the domain box" in err.value.errors

    def test_auto_without_schedule_cites_prerequisite(self):
        doc = smoke_doc(algorithm={"variant": "fixed-step", "tuning": "auto", "x0": [1.0]})
        with pytest.raises(ConfigValidationError) as err:
            parse_config(json.dumps(doc))
        assert any("auto tuning" in e and "schedule" in e for e in err.value.errors)

    def test_unknown_keys_rejected_not_ignored(self):
        for key in ("extra_field", "output"):
            with pytest.raises(ConfigValidationError) as err:
                parse_config(json.dumps(smoke_doc(**{key: "declared"})))
            assert any(f"unknown key {key!r}" in e for e in err.value.errors)

    def test_unknown_nested_key_rejected(self):
        doc = smoke_doc(noise={"kind": "none", "fat_tails": True})
        with pytest.raises(ConfigValidationError) as err:
            parse_config(json.dumps(doc))
        assert any("noise: unknown key 'fat_tails'" in e for e in err.value.errors)

    def test_all_errors_collected(self):
        doc = smoke_doc(
            objectives=[{"kind": "quadratic-bowl", "theta": [9.0], "b": -1.0}],
            horizon=0,
            base_seed=-1,
        )
        with pytest.raises(ConfigValidationError) as err:
            parse_config(json.dumps(doc))
        assert len(err.value.errors) >= 3

    def test_x0_defaults_to_midpoint(self):
        doc = smoke_doc(algorithm={"variant": "fixed-step", "beta": 0.1, "c": 0.1})
        cfg = parse_config(json.dumps(doc))
        assert cfg.x0 == (0.0,)

    def test_x0_outside_domain_rejected(self):
        doc = smoke_doc(algorithm={"variant": "fixed-step", "beta": 0.1, "c": 0.1, "x0": [3.0]})
        with pytest.raises(ConfigValidationError) as err:
            parse_config(json.dumps(doc))
        assert any("algorithm.x0" in e for e in err.value.errors)

    @pytest.mark.parametrize(
        "bowl, doc",
        [
            (QuadraticBowl, {"kind": "quadratic-bowl", "theta": [0.0], "b": 1.0}),
            (QuarticPerturbedBowl, {"kind": "quartic-perturbed-bowl", "theta": [0.0], "b": 1.0, "q": 0.05}),
        ],
        ids=["quadratic-bowl", "quartic-perturbed-bowl"],
    )
    def test_objective_keys_are_the_bowl_fields(self, bowl, doc):
        # build_objectives passes the parsed keys straight to the bowl, so a
        # coefficient added on one side alone must fail here
        kind, kwargs = _parse_objective(doc, 0, _Checker())
        assert kind == doc["kind"]
        assert set(kwargs) == set(bowl._fields) - {"domain"}

    def test_explicit_change_times_need_matching_objectives(self):
        doc = smoke_doc(schedule={"change_times": [1, 40, 80]})
        with pytest.raises(ConfigValidationError) as err:
            parse_config(json.dumps(doc))
        assert any("one per episode" in e for e in err.value.errors)

    def test_consecutive_equal_objectives_rejected_at_assembly(self):
        doc = smoke_doc(
            schedule={"change_times": [1, 40]},
            objectives=[
                {"kind": "quadratic-bowl", "theta": [0.0], "b": 1.0},
                {"kind": "quadratic-bowl", "theta": [0.0], "b": 1.0},
            ],
        )
        with pytest.raises(ConfigValidationError) as err:
            resolve_experiment(parse_config(json.dumps(doc)))
        assert any("identical" in e for e in err.value.errors)

    def test_parsing_builds_no_schedule(self, monkeypatch):
        def no_build(self):
            raise AssertionError("parsing built a schedule")

        monkeypatch.setattr(ExperimentConfig, "build_schedule", no_build)
        parse_config(json.dumps(smoke_doc()))
        parse_sweep(json.dumps({**smoke_doc(), "sweep": {"axis": "T", "values": [100, 200, 400]}}))

    def test_auto_rejects_explicit_beta(self):
        doc = smoke_doc(
            schedule={"episodes": 1},
            algorithm={"variant": "fixed-step", "tuning": "auto", "beta": 0.1, "x0": [1.0]},
        )
        with pytest.raises(ConfigValidationError) as err:
            parse_config(json.dumps(doc))
        assert any("auto tuning" in e for e in err.value.errors)

    def test_oracle_takes_no_extras(self):
        doc = smoke_doc(algorithm={"variant": "oracle", "x0": [0.0]})
        with pytest.raises(ConfigValidationError) as err:
            parse_config(json.dumps(doc))
        assert any("unknown key 'x0'" in e for e in err.value.errors)
        cfg = parse_config(json.dumps(smoke_doc(algorithm={"variant": "oracle"})))
        assert cfg.x0 is None

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigValidationError, match="well-formed"):
            parse_config("{not json")

    @pytest.mark.parametrize("parse", [parse_config, parse_sweep], ids=["config", "sweep"])
    def test_deeply_nested_document_is_one_validation_error(self, parse):
        # deep enough to exhaust the JSON decoder's recursion limit
        with pytest.raises(ConfigValidationError) as err:
            parse("[" * 100_000)
        assert err.value.errors == ["config is nested too deeply to parse"]

    def test_sliding_window_fields(self):
        doc = smoke_doc(algorithm={"variant": "sliding-window", "window": 8, "c": 0.5, "x0": [0.0]})
        cfg = parse_config(json.dumps(doc))
        assert cfg.window == 8
        doc["algorithm"]["refresh"] = "restart"
        with pytest.raises(ConfigValidationError) as err:
            parse_config(json.dumps(doc))
        assert any("algorithm: unknown key 'refresh'" in e for e in err.value.errors)


class TestParseSweep:
    def sweep_doc(self, **overrides):
        doc = smoke_doc(
            schedule={"episodes": 1},
            algorithm={"variant": "fixed-step", "tuning": "auto", "x0": [1.0]},
            noise={"kind": "gaussian", "sigma2": 1.0},
            replications=2,
        )
        doc["sweep"] = {"axis": "T", "values": [100, 1000, 10000]}
        doc.update(overrides)
        return doc

    def test_parse_and_apply(self):
        sweep = parse_sweep(json.dumps(self.sweep_doc()))
        assert sweep.axis == "T"
        assert sweep.values == (100.0, 1000.0, 10000.0)
        assert sweep.config_for(1000).horizon == 1000

    def test_needs_three_values(self):
        doc = self.sweep_doc()
        doc["sweep"]["values"] = [100, 1000]
        with pytest.raises(ConfigValidationError, match="3"):
            parse_sweep(json.dumps(doc))

    def test_values_sorted_positive(self):
        doc = self.sweep_doc()
        doc["sweep"]["values"] = [1000, 100, 10000]
        with pytest.raises(ConfigValidationError, match="increasing"):
            parse_sweep(json.dumps(doc))

    def test_delta_axis_requires_episode_schedule(self):
        doc = self.sweep_doc()
        doc["sweep"] = {"axis": "delta_T", "values": [1, 2, 4]}
        doc["schedule"] = {"change_times": [1]}
        with pytest.raises(ConfigValidationError, match="episodes"):
            parse_sweep(json.dumps(doc))

    def test_delta_axis_applies_to_schedule(self):
        doc = self.sweep_doc()
        doc["sweep"] = {"axis": "delta_T", "values": [1, 2, 4]}
        doc["objectives"] = [
            {"kind": "quadratic-bowl", "theta": [-0.5], "b": 1.0},
            {"kind": "quadratic-bowl", "theta": [0.5], "b": 1.0},
        ]
        sweep = parse_sweep(json.dumps(doc))
        assert sweep.config_for(4).build_schedule().num_episodes == 4

    def test_beta_axis_requires_explicit_fixed_step(self):
        doc = self.sweep_doc()
        doc["sweep"] = {"axis": "beta", "values": [0.05, 0.1, 0.2]}
        with pytest.raises(ConfigValidationError, match="explicitly tuned fixed-step"):
            parse_sweep(json.dumps(doc))

    @pytest.mark.parametrize(
        "axis, algorithm, values, section, key",
        [
            ("T", {"variant": "fixed-step", "tuning": "auto", "x0": [1.0]}, [100, 200, 400], None, "horizon"),
            ("delta_T", {"variant": "fixed-step", "tuning": "auto", "x0": [1.0]}, [1, 2, 4], "schedule", "episodes"),
            ("beta", {"variant": "fixed-step", "beta": 0.1, "c": 0.1, "x0": [1.0]}, [0.05, 0.1, 0.2], "algorithm", "beta"),
            ("L", {"variant": "sliding-window", "window": 8, "c": 0.5, "x0": [1.0]}, [4, 8, 16], "algorithm", "window"),
        ],
        ids=["T", "delta_T", "beta", "L"],
    )
    def test_config_for_is_the_document_with_the_value_written_in(self, axis, algorithm, values, section, key):
        base = smoke_doc(
            schedule={"episodes": 2},
            objectives=[
                {"kind": "quadratic-bowl", "theta": [-0.5], "b": 1.0},
                {"kind": "quartic-perturbed-bowl", "theta": [0.5], "b": 1.0, "q": 0.05, "k5": 2.0},
            ],
            algorithm=algorithm,
        )
        sweep = parse_sweep(json.dumps({**base, "sweep": {"axis": axis, "values": values}}))
        for value in values:
            doc = copy.deepcopy(base)
            (doc[section] if section else doc)[key] = value
            assert sweep.config_for(value) == parse_config(json.dumps(doc))


@settings(max_examples=50, deadline=None)
@given(doc=documents())
def test_documents_the_rule_functions_accept_parse_and_assemble(doc):
    """A document drawn section by section through the rule functions
    parses, and assembles unless a rule checked only at assembly fails:
    a contraction factor >= 1 (an explicit beta or an auto-tuned beta*)
    or the replication-step cap."""
    cfg = parse_config(doc)
    try:
        resolve_experiment(cfg)
    except ConfigValidationError as exc:
        assert "contraction factor" in str(exc) or f"cap of {MAX_REP_STEPS}" in str(exc), str(exc)
