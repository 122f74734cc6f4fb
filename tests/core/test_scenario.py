"""Unit tests for the chaos scenario subsystem (:mod:`repro.core.scenario`)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import ClusterConfig, Controller
from repro.core.byzantine import ByzantineWorker
from repro.core.metrics import Trace
from repro.core.scenario import (
    ACTIONS,
    SCENARIO_LIBRARY,
    ScenarioDirector,
    ScenarioEvent,
    ScenarioSpec,
    available_scenarios,
    config_for_scenario,
    load_scenario,
)
from repro.exceptions import ConfigurationError


def build_deployment(**overrides):
    defaults = dict(
        deployment="ssmw",
        num_workers=5,
        num_byzantine_workers=1,
        num_attacking_workers=1,
        worker_attack="reversed",
        gradient_gar="multi-krum",
        model="logistic",
        dataset_size=120,
        batch_size=8,
        num_iterations=4,
        seed=3,
    )
    defaults.update(overrides)
    return Controller(ClusterConfig(**defaults)).build()


def spec_of(events, name="test-spec"):
    return ScenarioSpec(name=name, events=[ScenarioEvent.from_dict(e) for e in events])


class TestScenarioEvent:
    def test_roundtrip_omits_none_fields(self):
        event = ScenarioEvent(round=3, action="heal")
        assert event.to_dict() == {"round": 3, "action": "heal"}
        assert ScenarioEvent.from_dict(event.to_dict()) == event

    def test_negative_round_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioEvent(round=-1, action="heal")

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioEvent(round=0, action="meteor_strike")

    @pytest.mark.parametrize("action", ["crash", "recover", "straggler", "clear_straggler"])
    def test_targeted_actions_require_target(self, action):
        with pytest.raises(ConfigurationError):
            ScenarioEvent(round=0, action=action, value=2.0)

    @pytest.mark.parametrize("action", ["straggler", "drop_rate", "partition", "byzantine_count"])
    def test_valued_actions_require_value(self, action):
        with pytest.raises(ConfigurationError):
            ScenarioEvent(round=0, action=action, target="worker-0")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioEvent.from_dict({"round": 0, "action": "heal", "severity": 11})

    def test_all_actions_documented(self):
        assert ACTIONS == {
            "crash",
            "recover",
            "straggler",
            "clear_straggler",
            "drop_rate",
            "partition",
            "heal",
            "attack_start",
            "attack_stop",
            "byzantine_count",
            "evict",
            "readmit",
        }


class TestScenarioSpec:
    def test_events_sorted_by_round(self):
        spec = spec_of(
            [
                {"round": 5, "action": "heal"},
                {"round": 1, "action": "crash", "target": "worker-0"},
            ]
        )
        assert [e.round for e in spec.events] == [1, 5]
        assert spec.last_round == 5
        assert [e.action for e in spec.events_at(1)] == ["crash"]
        assert spec.events_at(2) == []

    def test_json_roundtrip(self):
        spec = SCENARIO_LIBRARY["crash_quorum_edge"]
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict({"name": "x", "timeline": []})

    def test_file_roundtrip(self, tmp_path):
        spec = SCENARIO_LIBRARY["straggler_storm"]
        path = tmp_path / "storm.json"
        spec.save(path)
        assert ScenarioSpec.load(path) == spec


class TestLibrary:
    def test_bundled_names(self):
        assert available_scenarios() == [
            "attack_onset_mid_training",
            "calm_baseline",
            "churn_at_f_bound",
            "crash_quorum_edge",
            "detection_evicts_attackers",
            "partition_heal",
            "straggler_storm",
        ]

    def test_every_bundled_config_is_valid_and_buildable(self):
        for name in available_scenarios():
            config = config_for_scenario(name)
            assert config.scenario == name
            deployment = Controller(config).build()
            assert deployment.director is not None
            assert deployment.trace is not None
            assert deployment.trace.scenario == name

    def test_load_scenario_returns_a_copy(self):
        spec = load_scenario("calm_baseline")
        spec.config["num_workers"] = 99
        assert SCENARIO_LIBRARY["calm_baseline"].config["num_workers"] == 6

    def test_load_scenario_unknown_ref(self):
        with pytest.raises(ConfigurationError):
            load_scenario("does-not-exist")

    def test_load_scenario_from_file(self, tmp_path):
        path = tmp_path / "custom.json"
        SCENARIO_LIBRARY["calm_baseline"].save(path)
        assert load_scenario(str(path)).name == "calm_baseline"

    def test_scenario_config_wins_over_overrides(self):
        config = config_for_scenario("crash_quorum_edge", num_workers=50, seed=123)
        # num_workers/seed are pinned by the scenario's config section ...
        assert config.num_workers == 7
        assert config.seed == 7
        # ... but fields the scenario does not pin pass through.
        config = config_for_scenario("crash_quorum_edge", executor="threaded")
        assert config.executor == "threaded"


class TestDirectorValidation:
    def test_unknown_target_rejected(self):
        deployment = build_deployment()
        with pytest.raises(ConfigurationError):
            ScenarioDirector(spec_of([{"round": 0, "action": "crash", "target": "worker-99"}]), deployment)

    def test_bad_straggler_factor_rejected(self):
        deployment = build_deployment()
        with pytest.raises(ConfigurationError):
            ScenarioDirector(
                spec_of([{"round": 0, "action": "straggler", "target": "worker-0", "value": 0.5}]),
                deployment,
            )

    def test_bad_drop_rate_rejected(self):
        deployment = build_deployment()
        with pytest.raises(ConfigurationError):
            ScenarioDirector(spec_of([{"round": 0, "action": "drop_rate", "value": 1.5}]), deployment)

    def test_byzantine_count_out_of_range_rejected(self):
        deployment = build_deployment()  # one declared Byzantine worker
        with pytest.raises(ConfigurationError):
            ScenarioDirector(spec_of([{"round": 0, "action": "byzantine_count", "value": 2}]), deployment)

    def test_attack_toggle_on_honest_node_rejected(self):
        deployment = build_deployment()
        with pytest.raises(ConfigurationError):
            ScenarioDirector(
                spec_of([{"round": 0, "action": "attack_stop", "target": "worker-0"}]), deployment
            )

    def test_attack_toggle_without_byzantine_nodes_rejected(self):
        deployment = build_deployment(num_byzantine_workers=0, num_attacking_workers=0)
        with pytest.raises(ConfigurationError):
            ScenarioDirector(spec_of([{"round": 0, "action": "attack_stop"}]), deployment)

    def test_unknown_attack_name_rejected(self):
        deployment = build_deployment()
        with pytest.raises(ConfigurationError):
            ScenarioDirector(
                spec_of([{"round": 0, "action": "attack_start", "value": "zero-day"}]), deployment
            )

    def test_partition_with_unknown_node_rejected(self):
        deployment = build_deployment()
        with pytest.raises(ConfigurationError):
            ScenarioDirector(
                spec_of([{"round": 0, "action": "partition", "value": [["ghost-1"]]}]), deployment
            )

    @pytest.mark.parametrize("value", [0.3, {"island": ["worker-0"]}, [[["worker-0"]]]])
    def test_malformed_partition_value_rejected(self, value):
        deployment = build_deployment()
        with pytest.raises(ConfigurationError):
            ScenarioDirector(
                spec_of([{"round": 0, "action": "partition", "value": value}]), deployment
            )


class TestTimelineConsistency:
    """Regressions for validation gaps the fuzzing harness depends on.

    The generator self-validates every emitted timeline, so any spec the
    validator wrongly accepts would surface as a confusing mid-campaign
    failure rather than a typed :class:`ConfigurationError` at build time.
    """

    def test_crash_of_already_crashed_node_rejected(self):
        deployment = build_deployment()
        with pytest.raises(ConfigurationError, match="already crashed"):
            ScenarioDirector(
                spec_of(
                    [
                        {"round": 1, "action": "crash", "target": "worker-0"},
                        {"round": 3, "action": "crash", "target": "worker-0"},
                    ]
                ),
                deployment,
            )

    def test_recover_of_never_crashed_node_rejected(self):
        deployment = build_deployment()
        with pytest.raises(ConfigurationError, match="not crashed"):
            ScenarioDirector(
                spec_of([{"round": 2, "action": "recover", "target": "worker-1"}]),
                deployment,
            )

    def test_crash_recover_crash_cycle_is_valid(self):
        deployment = build_deployment()
        director = ScenarioDirector(
            spec_of(
                [
                    {"round": 0, "action": "crash", "target": "worker-0"},
                    {"round": 1, "action": "recover", "target": "worker-0"},
                    {"round": 2, "action": "crash", "target": "worker-0"},
                ]
            ),
            deployment,
        )
        assert director is not None

    def test_bool_round_rejected(self):
        # bool is an int subclass; it must not slip through the round check.
        with pytest.raises(ConfigurationError, match="non-negative int"):
            ScenarioEvent(round=True, action="heal")

    def test_bool_byzantine_count_rejected(self):
        deployment = build_deployment()
        with pytest.raises(ConfigurationError, match="byzantine_count"):
            ScenarioDirector(
                spec_of([{"round": 0, "action": "byzantine_count", "value": True}]),
                deployment,
            )

    def test_node_in_two_partition_islands_rejected(self):
        deployment = build_deployment()
        with pytest.raises(ConfigurationError, match="two partition islands"):
            ScenarioDirector(
                spec_of(
                    [
                        {
                            "round": 0,
                            "action": "partition",
                            "value": [["worker-0", "worker-1"], ["worker-1"]],
                        }
                    ]
                ),
                deployment,
            )

    def test_empty_partition_island_rejected(self):
        deployment = build_deployment()
        with pytest.raises(ConfigurationError, match="non-empty"):
            ScenarioDirector(
                spec_of([{"round": 0, "action": "partition", "value": [[]]}]),
                deployment,
            )

    def test_validation_errors_name_the_scenario(self):
        deployment = build_deployment()
        with pytest.raises(ConfigurationError, match="'bad-spec'"):
            ScenarioDirector(
                spec_of(
                    [{"round": 0, "action": "crash", "target": "ghost-7"}],
                    name="bad-spec",
                ),
                deployment,
            )


class TestDirectorApply:
    def test_failure_actions_drive_the_injector(self):
        deployment = build_deployment()
        failures = deployment.transport.failures
        director = ScenarioDirector(
            spec_of(
                [
                    {"round": 0, "action": "crash", "target": "worker-0"},
                    {"round": 0, "action": "straggler", "target": "worker-1", "value": 9.0},
                    {"round": 0, "action": "drop_rate", "value": 0.25},
                    {"round": 0, "action": "partition", "value": [["worker-2"]]},
                    {"round": 1, "action": "recover", "target": "worker-0"},
                    {"round": 1, "action": "clear_straggler", "target": "worker-1"},
                    {"round": 1, "action": "drop_rate", "value": 0.0},
                    {"round": 1, "action": "heal"},
                ]
            ),
            deployment,
        )
        applied = director.apply(0)
        assert len(applied) == 4
        assert failures.is_crashed("worker-0")
        assert failures.latency_factor("worker-1") == 9.0
        assert failures.drop_probability == 0.25
        assert failures.is_unreachable("server-0", "worker-2")
        assert not failures.is_unreachable("server-0", "worker-1")

        director.apply(1)
        assert not failures.is_crashed("worker-0")
        assert failures.latency_factor("worker-1") == 1.0
        assert failures.drop_probability == 0.0
        assert not failures.is_unreachable("server-0", "worker-2")
        assert len(director.applied) == 8

    def test_rounds_without_events_are_noops(self):
        deployment = build_deployment()
        director = ScenarioDirector(spec_of([{"round": 5, "action": "heal"}]), deployment)
        assert director.apply(0) == []
        assert director.applied == []

    def test_attack_toggling(self):
        deployment = build_deployment()
        [byzantine] = [w for w in deployment.workers if isinstance(w, ByzantineWorker)]
        original_attack = byzantine.attack
        director = ScenarioDirector(
            spec_of(
                [
                    {"round": 0, "action": "attack_stop"},
                    {"round": 1, "action": "attack_start", "value": "random"},
                ]
            ),
            deployment,
        )
        director.apply(0)
        assert byzantine.attack_active is False
        director.apply(1)
        assert byzantine.attack_active is True
        assert byzantine.attack is not original_attack
        assert byzantine.attack.name == "random"

    def test_same_round_per_target_attack_starts_get_distinct_rngs(self):
        deployment = build_deployment(
            num_workers=7, num_byzantine_workers=2, num_attacking_workers=2, gradient_gar="median"
        )
        byzantine = [w for w in deployment.workers if isinstance(w, ByzantineWorker)]
        director = ScenarioDirector(
            spec_of(
                [
                    {"round": 0, "action": "attack_start", "target": byzantine[0].node_id, "value": "random"},
                    {"round": 0, "action": "attack_start", "target": byzantine[1].node_id, "value": "random"},
                ]
            ),
            deployment,
        )
        director.apply(0)
        honest = np.zeros(8)
        first = byzantine[0].attack(honest)
        second = byzantine[1].attack(honest)
        assert not np.allclose(first, second)

    def test_attack_start_without_value_keeps_attack(self):
        deployment = build_deployment()
        [byzantine] = [w for w in deployment.workers if isinstance(w, ByzantineWorker)]
        original_attack = byzantine.attack
        director = ScenarioDirector(spec_of([{"round": 0, "action": "attack_start"}]), deployment)
        director.apply(0)
        assert byzantine.attack is original_attack
        assert byzantine.attack_active is True

    def test_byzantine_count_activates_a_prefix(self):
        deployment = build_deployment(
            num_workers=7, num_byzantine_workers=3, num_attacking_workers=3, gradient_gar="median"
        )
        byzantine = [w for w in deployment.workers if isinstance(w, ByzantineWorker)]
        director = ScenarioDirector(
            spec_of(
                [
                    {"round": 0, "action": "byzantine_count", "value": 1},
                    {"round": 1, "action": "byzantine_count", "value": 0},
                ]
            ),
            deployment,
        )
        director.apply(0)
        assert [w.attack_active for w in byzantine] == [True, False, False]
        director.apply(1)
        assert [w.attack_active for w in byzantine] == [False, False, False]

    def test_inactive_byzantine_worker_serves_honest_gradients(self):
        deployment = build_deployment(num_workers=5, num_byzantine_workers=1, num_attacking_workers=1)
        server = deployment.servers[0]
        director = ScenarioDirector(spec_of([{"round": 0, "action": "attack_stop"}]), deployment)

        attacked = server.get_gradients(0, 5)
        director.apply(0)
        honest = server.get_gradients(1, 5)
        # The reversed attack negates the honest gradient: with the attack
        # stopped the Byzantine worker's reply flips direction.
        import numpy as np

        assert np.linalg.norm(sum(honest)) != pytest.approx(np.linalg.norm(sum(attacked)))


class TestDeploymentWiring:
    def test_begin_round_applies_events_and_leaves_the_trace_to_the_session(self):
        config = config_for_scenario("crash_quorum_edge")
        deployment = Controller(config).build()
        assert deployment.begin_round(0) == []
        events = deployment.begin_round(2)
        assert events == [{"round": 2, "action": "crash", "target": "worker-0"}]
        assert deployment.transport.failures.is_crashed("worker-0")
        # No round completed: the session writes an entry only from a result.
        assert deployment.trace.rounds == []

    def test_begin_round_is_noop_without_scenario(self):
        deployment = build_deployment()
        assert deployment.begin_round(0) == []
        assert deployment.trace is None

    def test_result_carries_trace_and_exports_it(self):
        result = Controller(config_for_scenario("calm_baseline")).run()
        assert isinstance(result.trace, Trace)
        data = result.to_dict()
        assert data["trace"]["scenario"] == "calm_baseline"
        assert len(data["trace"]["rounds"]) == result.config.num_iterations

    def test_scenarioless_result_has_no_trace(self):
        deployment = build_deployment()
        controller = Controller(deployment.config)
        result = controller.run(deployment)
        assert result.trace is None
        assert result.to_dict()["trace"] is None

    def test_unknown_scenario_fails_at_build(self):
        config = ClusterConfig(model="logistic", dataset_size=60, scenario="nope")
        with pytest.raises(ConfigurationError):
            Controller(config).build()

    def test_scenario_field_survives_config_roundtrip(self):
        config = config_for_scenario("calm_baseline")
        restored = ClusterConfig.from_dict(json.loads(config.to_json()))
        assert restored.scenario == "calm_baseline"
