"""Tests for metric collection and the Table 2 alignment measurement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import AlignmentProbe, IterationRecord, MetricsLog, parameter_alignment


class TestIterationRecord:
    def test_total_time(self):
        record = IterationRecord(0, compute_time=1.0, communication_time=2.0, aggregation_time=0.5)
        assert record.total_time == pytest.approx(3.5)


class TestMetricsLog:
    def build_log(self):
        log = MetricsLog(deployment="ssmw")
        for i in range(4):
            log.add(
                IterationRecord(
                    i,
                    compute_time=1.0,
                    communication_time=2.0,
                    aggregation_time=1.0,
                    accuracy=0.25 * (i + 1) if i % 2 == 0 else None,
                )
            )
        return log

    def test_length_and_total_time(self):
        log = self.build_log()
        assert len(log) == 4
        assert log.total_time == pytest.approx(16.0)

    def test_throughput(self):
        assert self.build_log().throughput() == pytest.approx(4 / 16.0)

    def test_throughput_empty_log(self):
        assert MetricsLog().throughput() == 0.0

    def test_accuracies_and_final(self):
        log = self.build_log()
        assert log.accuracies == [(0, 0.25), (2, 0.75)]
        assert log.final_accuracy == pytest.approx(0.75)

    def test_final_accuracy_none_when_never_measured(self):
        log = MetricsLog()
        log.add(IterationRecord(0))
        assert log.final_accuracy is None

    def test_breakdown_averages_components(self):
        breakdown = self.build_log().breakdown()
        assert breakdown["computation"] == pytest.approx(1.0)
        assert breakdown["communication"] == pytest.approx(2.0)
        assert breakdown["aggregation"] == pytest.approx(1.0)

    def test_breakdown_empty(self):
        assert MetricsLog().breakdown()["computation"] == 0.0

    def test_accuracy_over_time_is_cumulative(self):
        pairs = self.build_log().accuracy_over_time()
        times = [t for t, _ in pairs]
        assert times == sorted(times)
        assert times[0] == pytest.approx(4.0)
        assert times[-1] == pytest.approx(12.0)


class TestParameterAlignment:
    def test_requires_two_vectors(self):
        with pytest.raises(ValueError):
            parameter_alignment([np.zeros(4)])

    def test_identical_difference_directions_give_cos_one(self):
        base = np.zeros(8)
        a = base + np.ones(8)
        b = base + 2 * np.ones(8)
        result = parameter_alignment([base, a, b])
        assert result["cos_phi"] == pytest.approx(1.0)

    def test_two_vectors_fall_back_to_cos_one(self):
        result = parameter_alignment([np.zeros(4), np.ones(4)])
        assert result["cos_phi"] == pytest.approx(1.0)
        assert "max_diff1" in result

    def test_manual_three_replica_example(self):
        """Hand-computed: top differences are (3,-1) and (-3,0); |cos| ~ 0.9487."""
        v0 = np.array([0.0, 0.0])
        v1 = np.array([3.0, 0.0])
        v2 = np.array([0.0, 1.0])
        result = parameter_alignment([v0, v1, v2])
        assert result["max_diff1"] == pytest.approx(np.sqrt(10))
        assert result["max_diff2"] == pytest.approx(3.0)
        assert result["cos_phi"] == pytest.approx(9.0 / (3.0 * np.sqrt(10)), abs=1e-9)

    def test_reports_top_norms_in_descending_order(self):
        vectors = [np.zeros(4), np.ones(4), 3 * np.ones(4)]
        result = parameter_alignment(vectors)
        assert result["max_diff1"] >= result["max_diff2"]

    def test_cos_phi_in_unit_interval(self):
        rng = np.random.default_rng(0)
        vectors = [rng.normal(size=16) for _ in range(5)]
        result = parameter_alignment(vectors)
        assert 0.0 <= result["cos_phi"] <= 1.0


class TestAlignmentProbe:
    def test_samples_only_on_schedule(self):
        probe = AlignmentProbe(every=5)
        vectors = [np.zeros(4), np.ones(4)]
        assert probe.maybe_sample(3, vectors) is None
        assert probe.maybe_sample(5, vectors) is not None
        assert len(probe.samples) == 1
        assert probe.samples[0]["step"] == 5.0

    def test_respects_warmup(self):
        probe = AlignmentProbe(every=2, warmup=10)
        vectors = [np.zeros(4), np.ones(4)]
        assert probe.maybe_sample(4, vectors) is None
        assert probe.maybe_sample(12, vectors) is not None


def round_result(iteration, **fields):
    """A completed round as the Session yields it (defaults: a calm round)."""
    from repro.core.session import RoundResult

    data = dict(
        iteration=iteration,
        events=(),
        quorum=2,
        gradient_sources=("worker-0", "worker-1"),
        update_norm=0.25,
        accuracy=None,
        loss=None,
        record=IterationRecord(iteration),
    )
    data.update(fields)
    return RoundResult(**data)


class TestTraceRecord:
    """``Trace.record``: the trace's one writer, one entry per completed round."""

    def _trace(self):
        from repro.core.metrics import Trace

        return Trace(scenario="t", deployment="ssmw", seed=1)

    def test_entry_is_the_result_renamed(self):
        trace = self._trace()
        events = ({"round": 0, "action": "heal"},)
        trace.record(round_result(0, events=events, accuracy=0.5, loss=0.9))
        assert trace.rounds == [
            {
                "round": 0,
                "events": [{"round": 0, "action": "heal"}],
                "quorum": 2,
                "gradient_sources": ["worker-0", "worker-1"],
                "update_norm": 0.25,
                "accuracy": 0.5,
                "loss": 0.9,
            }
        ]

    def test_flagged_round_carries_the_flag(self):
        trace = self._trace()
        trace.record(round_result(0, diverged=True))
        assert trace.rounds[0]["diverged"] is True
        assert trace.diverged

    def test_key_absent_on_healthy_rounds(self):
        trace = self._trace()
        trace.record(round_result(0))
        trace.record(round_result(1, diverged=True))
        assert "diverged" not in trace.rounds[0]
        assert trace.rounds[1]["diverged"] is True

    def test_flag_survives_json_roundtrip(self):
        import json

        trace = self._trace()
        trace.record(round_result(0, diverged=True))
        data = json.loads(trace.to_json())
        assert data["rounds"][0]["diverged"] is True

    def test_healthy_trace_not_diverged(self):
        trace = self._trace()
        trace.record(round_result(0))
        assert not trace.diverged

    def test_detection_payload_is_copied_verbatim(self):
        payload = {
            "suspicion": {"worker-0": 0.0, "worker-1": 1.25},
            "active": ["worker-0"],
            "events": [{"round": 0, "action": "evict", "target": "worker-1", "score": 1.25}],
        }
        trace = self._trace()
        trace.record(round_result(0, detection=payload))
        trace.record(round_result(1))
        assert trace.rounds[0]["detection"] == payload
        assert "detection" not in trace.rounds[1]

    def test_health_entry_drops_the_accrual_scores(self):
        from repro.core.health import SUSPECT, LivenessDetector
        from repro.detection.membership import Membership

        detector = LivenessDetector(
            Membership(["w0", "w1", "w2"], declared_f=0, gar_name="median")
        )
        detector.observe_refused("w0")
        payload = detector.finish_round(0)
        assert detector.finish_round(1) is None  # idle: nothing to record
        trace = self._trace()
        trace.record(round_result(0, health=payload))
        trace.record(round_result(1))
        health = trace.rounds[0]["health"]
        assert health["statuses"]["w0"] == SUSPECT
        assert set(health) == {"statuses", "dead", "events"}
        assert "scores" in payload  # the streamed result keeps them
        assert "health" not in trace.rounds[1]

    def test_canonical_json_is_stable(self):
        trace = self._trace()
        trace.record(round_result(0, events=({"round": 0, "action": "heal"},), accuracy=0.5))
        assert trace.to_json() == trace.to_json()
        assert trace.to_json().endswith("\n")
        assert len(trace.fingerprint()) == 16

    def test_save_load_roundtrip(self, tmp_path):
        from repro.core.metrics import Trace

        trace = self._trace()
        trace.record(round_result(0, loss=0.9, diverged=True))
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded == trace
        assert loaded.to_json() == trace.to_json()
