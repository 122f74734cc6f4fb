"""End-to-end detection behaviour through the Session engine.

Covers the wiring the unit layers cannot see: config validation, the
evict/crash/recover/readmit lifecycle driven by scenario events, the
asynchronous quorum shrink showing up in recorded rounds, and bit-identical
detection traces across the serial, threaded and process backends.
"""

from __future__ import annotations

import pytest

from repro.core import Controller, config_for_scenario
from repro.core.cluster import ClusterConfig
from repro.core.scenario import ScenarioSpec
from repro.core.session import Session
from repro.exceptions import ConfigurationError

pytestmark = pytest.mark.detection


def detection_config(**overrides) -> ClusterConfig:
    base = dict(
        deployment="ssmw",
        num_workers=6,
        num_byzantine_workers=2,
        num_attacking_workers=2,
        worker_attack="reversed",
        gradient_gar="average",
        detector="distance",
        model="logistic",
        dataset="mnist",
        dataset_size=240,
        batch_size=8,
        num_iterations=10,
        accuracy_every=10,
        seed=11,
    )
    base.update(overrides)
    return ClusterConfig(**base)


class TestConfigValidation:
    def test_unknown_detector_fails_at_config_time(self):
        with pytest.raises(ConfigurationError, match="unknown detector"):
            detection_config(detector="psychic")

    @pytest.mark.parametrize("deployment", ["vanilla", "msmw", "decentralized"])
    def test_detection_is_rejected_where_it_cannot_run(self, deployment):
        # Every deployment aggregates through the default phase now; what
        # replicated servers still lack is a replica-local reputation book.
        reason = "fault-oblivious baseline" if deployment == "vanilla" else "replica-local ReputationBook"
        with pytest.raises(ConfigurationError, match=reason):
            detection_config(
                deployment=deployment,
                num_servers=3 if deployment in ("msmw", "decentralized") else 1,
                num_byzantine_servers=0,
                num_attacking_workers=0,
                num_byzantine_workers=0 if deployment == "vanilla" else 2,
                worker_attack="reversed" if deployment != "vanilla" else "",
            )

    def test_detector_off_builds_no_manager(self):
        config = detection_config(detector="")
        deployment = Controller(config).build()
        try:
            assert deployment.detection is None
        finally:
            deployment.close()


class TestOnlineEviction:
    def test_reversed_attackers_are_evicted_and_training_survives(self):
        with Session(config=detection_config()) as session:
            rounds = list(session)
            result = session.result()
        detection = session.deployment.detection
        # The attacking workers are the roster's tail by convention.
        assert set(detection.membership.excluded("evicted")) == {"worker-4", "worker-5"}
        evictions = [
            e for r in rounds for e in r.detection["events"] if e["action"] == "evict"
        ]
        assert sorted(e["target"] for e in evictions) == ["worker-4", "worker-5"]
        assert all(e["round"] <= 5 for e in evictions)
        # With both attackers gone a plain average converges fine.
        assert result.final_accuracy is not None and result.final_accuracy > 0.5

    def test_async_quorum_shrinks_by_one_per_eviction(self):
        # n=8 keeps the scoring centre robust (both attackers in a quorum of
        # 6 is still < q/2); 24 rounds give each attacker its 3 *observed*
        # strikes even though an async quorum only samples the fastest
        # repliers each round.
        config = detection_config(
            asynchronous=True, num_workers=8, num_iterations=24
        )
        with Session(config=config) as session:
            results = [session.step() for _ in range(config.num_iterations)]
        detection = session.deployment.detection
        assert set(detection.membership.excluded("evicted")) == {"worker-6", "worker-7"}
        eviction_rounds = sorted(
            e["round"] for r in results for e in r.detection["events"] if e["action"] == "evict"
        )
        # n=8, f=2: the quorum starts at n - f = 6 and shrinks by exactly one
        # per eviction (each decision takes effect the following round) — the
        # crash slack f stays untouched throughout.
        for result in results:
            expected = 6 - sum(1 for r in eviction_rounds if r < result.iteration)
            assert result.quorum == expected, f"round {result.iteration}"
        assert results[-1].quorum == 4


class TestScenarioLifecycle:
    def lifecycle_spec(self) -> ScenarioSpec:
        """Forced evict, then crash/recover of the *evicted* worker, then a
        forced readmit: membership and process liveness are orthogonal."""
        return ScenarioSpec.from_dict(dict(
            name="detection-lifecycle",
            description="evict / crash / recover / readmit one honest worker",
            config={
                "deployment": "ssmw",
                "num_workers": 5,
                "num_byzantine_workers": 1,
                "num_attacking_workers": 0,
                "worker_attack": "reversed",
                "gradient_gar": "average",
                "detector": "distance",
                "num_iterations": 8,
                "accuracy_every": 8,
                "seed": 13,
            },
            events=[
                {"round": 1, "action": "evict", "target": "worker-1"},
                {"round": 2, "action": "crash", "target": "worker-1"},
                {"round": 4, "action": "recover", "target": "worker-1"},
                {"round": 6, "action": "readmit", "target": "worker-1"},
            ],
        ))

    def test_recover_does_not_readmit_and_suspicion_decays_idle(self, tmp_path):
        path = tmp_path / "lifecycle.json"
        self.lifecycle_spec().save(path)
        result = Controller(config_for_scenario(str(path))).run()
        assert result.trace is not None
        rounds = result.trace.rounds

        # Scenario events apply at round start: evicted from round 1's pull
        # onwards, and the round-4 process recovery must NOT sneak the worker
        # back in — only the forced readmit at round 6 does.
        for entry in rounds:
            sources = set(entry["gradient_sources"])
            if 1 <= entry["round"] <= 5:
                assert "worker-1" not in sources, f"round {entry['round']}"
            else:
                assert "worker-1" in sources, f"round {entry['round']}"

        # The eviction pins the score at the bar; while evicted it only ever
        # decays at the idle rate — re-entry waits for the readmit bar.
        suspicion = [entry["detection"]["suspicion"]["worker-1"] for entry in rounds]
        evict_event = rounds[1]["detection"]["events"][0]
        assert evict_event["score"] >= 8.0  # pinned at the eviction bar
        evicted_span = suspicion[1:6]
        assert evicted_span[0] == pytest.approx(8.0 * 0.9)  # one idle decay in
        for before, after in zip(evicted_span, evicted_span[1:]):
            assert after == pytest.approx(before * 0.9, rel=1e-4)
        assert suspicion[6] <= 0.5  # forced readmit drops into the band


class TestDeadIsNotEvicted:
    """Detector + resilience on one deployment: a liveness ``dead``
    declaration takes the worker out of the pull set but is not an eviction —
    a crash is not a lie, so it spends none of the Byzantine budget."""

    def test_honest_crash_keeps_the_rule_sized_for_the_declared_f(self, monkeypatch):
        """11 workers, f=2, both little-is-enough attackers alive, honest
        worker-0 crashes at round 1.  Before the fix the declaration was
        routed through ``force_evict``: ``effective_f`` fell to 1 and
        Multi-Krum ran sized for one Byzantine row over rows holding two."""
        from repro.aggregators.base import GAR

        sized = []
        aggregate_matrix = GAR.aggregate_matrix

        def recording(gar, matrix):
            sized.append((gar.n, gar.f, len(matrix)))
            return aggregate_matrix(gar, matrix)

        monkeypatch.setattr(GAR, "aggregate_matrix", recording)
        config = detection_config(
            num_workers=11,
            worker_attack="little-is-enough",
            gradient_gar="multi-krum",
            detector="mad",
            asynchronous=True,
            resilience={"hedge": True},
            num_iterations=8,
            seed=1,
        )
        with Session(config=config) as session:
            session.on_round_start(
                lambda s, iteration, events: iteration == 1
                and s.deployment.transport.failures.crash("worker-0")
            )
            results = list(session)
            deployment = session.deployment
        declared = next(r.iteration for r in results if "worker-0" in r.health["dead"])
        assert declared < results[-1].iteration
        for result in results[declared + 1 :]:
            assert "worker-0" not in result.detection["active"]
            assert not any(e["action"] == "evict" for e in result.detection["events"])
            assert {"worker-9", "worker-10"} <= set(result.detection["active"])
            # One row fewer, the same budget: the attackers are still there.
            assert sized[result.iteration] == (8, 2, 8)
        assert not any(e["action"] == "evict" for r in results for e in r.detection["events"])
        assert deployment.membership.excluded("dead") == ("worker-0",)
        assert deployment.membership.excluded("evicted") == ()
        assert deployment.membership.effective_f() == 2


class TestCrossBackendDeterminism:
    """Detection state is part of the canonical trace: every backend must
    reproduce the same suspicion scores, membership and events, byte for
    byte (the golden suite pins the same property against the checked-in
    file; this test localises a failure to the detection payload)."""

    @pytest.fixture(scope="class")
    def serial_detection(self):
        return self._detection_sections("serial")

    @staticmethod
    def _detection_sections(executor: str):
        config = config_for_scenario("detection_evicts_attackers", executor=executor)
        result = Controller(config).run()
        assert result.trace is not None
        return [
            (entry["round"], entry.get("detection"))
            for entry in result.trace.rounds
        ]

    def test_serial_run_records_detection(self, serial_detection):
        assert any(payload is not None for _, payload in serial_detection)

    @pytest.mark.backend("threaded")
    def test_threaded_matches_serial(self, serial_detection):
        assert self._detection_sections("threaded") == serial_detection

    @pytest.mark.backend("process")
    @pytest.mark.slow
    def test_process_matches_serial(self, serial_detection, require_process_backend):
        require_process_backend()
        assert self._detection_sections("process") == serial_detection
