"""Tests for the streaming Session API and the RoundStrategy registry.

The contracts locked here are the load-bearing ones of the API redesign:

* streaming semantics — one round per step, per-round records with quorum
  sources and update norms;
* pause/resume produces a trace byte-identical to an uninterrupted run, on
  every execution backend;
* ``run(until=...)`` and early-stop predicates stop at the exact round;
* callback ordering relative to ``Deployment.begin_round`` (events are
  applied before any user callback fires, and the trace holds exactly the
  rounds completed so far);
* the ``@register_application`` registry accepts third-party strategies, and
  ``train`` / ``Session`` over a prebuilt deployment reproduce the golden
  traces;
* ``should_evaluate`` always evaluates the final iteration, so no run ends
  with a stale accuracy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Controller
from repro.core.cluster import ClusterConfig
from repro.core.metrics import Trace
from repro.core.scenario import config_for_scenario
from repro.core.session import (
    APPLICATION_REGISTRY,
    RoundResult,
    RoundStrategy,
    Session,
    available_applications,
    register_application,
    resolve_application,
    train,
)
from repro.exceptions import ConfigurationError

BACKEND_PARAMS = [
    pytest.param("serial", marks=pytest.mark.backend("serial")),
    pytest.param("threaded", marks=pytest.mark.backend("threaded")),
    pytest.param("process", marks=[pytest.mark.backend("process"), pytest.mark.slow]),
]


def small_fields(**overrides) -> dict:
    fields = dict(
        deployment="ssmw",
        num_workers=5,
        num_byzantine_workers=1,
        num_attacking_workers=1,
        worker_attack="reversed",
        gradient_gar="multi-krum",
        model="logistic",
        dataset="mnist",
        dataset_size=150,
        batch_size=8,
        num_iterations=6,
        accuracy_every=2,
        learning_rate=0.1,
        seed=11,
    )
    fields.update(overrides)
    return fields


def small_config(**overrides) -> ClusterConfig:
    return ClusterConfig(**small_fields(**overrides))


class TestStreaming:
    def test_yields_one_result_per_round(self):
        with Session(config=small_config()) as session:
            results = list(session)
        assert [r.iteration for r in results] == list(range(6))
        assert session.finished and not session.paused
        assert len(session.deployment.metrics) == 6

    def test_round_results_carry_quorum_and_update_norm(self):
        with Session(config=small_config()) as session:
            result = next(iter(session))
        assert isinstance(result, RoundResult)
        assert result.quorum == 5
        assert len(result.gradient_sources) == 5
        assert all(s.startswith("worker-") for s in result.gradient_sources)
        assert result.update_norm is not None and result.update_norm > 0.0
        assert result.record is session.deployment.metrics.records[0]
        assert result.to_dict()["iteration"] == 0

    def test_accuracy_appears_on_schedule(self):
        with Session(config=small_config()) as session:
            results = list(session)
        measured = [r.iteration for r in results if r.accuracy is not None]
        assert measured == [0, 2, 4, 5]

    def test_exhausted_session_stops_iterating(self):
        with Session(config=small_config(num_iterations=2)) as session:
            assert len(list(session)) == 2
            assert list(session) == []
            assert session.step() is None

    def test_streaming_matches_controller_run(self):
        streamed = Session(config=small_config())
        with streamed:
            list(streamed)
        batch = Controller(small_config()).run()
        streamed_result = streamed.result()
        assert streamed_result.accuracy_history == batch.accuracy_history
        assert streamed_result.final_accuracy == batch.final_accuracy

    def test_session_requires_deployment_or_config(self):
        with pytest.raises(ConfigurationError):
            Session()

    def test_session_rejects_mismatched_config_and_deployment(self):
        deployment = Controller(small_config()).build()
        with pytest.raises(ConfigurationError):
            Session(deployment, config=small_config())
        deployment.close()

    def test_repr_tracks_progress(self):
        with Session(config=small_config(num_iterations=2)) as session:
            assert "round=0/2" in repr(session)
            session.run()
            assert "finished" in repr(session)


class TestPauseResume:
    @pytest.mark.parametrize("executor", BACKEND_PARAMS)
    def test_trace_identical_to_uninterrupted_run(self, executor, require_process_backend):
        """Pause mid-run, resume: byte-identical trace on every backend."""
        if executor == "process":
            require_process_backend()
        scenario = "churn_at_f_bound"
        uninterrupted = Controller(config_for_scenario(scenario, executor=executor)).run()

        session = Session(config=config_for_scenario(scenario, executor=executor))
        with session:
            for result in session:
                if result.iteration == 3:
                    session.pause()
            assert session.paused and session.next_round == 4
            assert list(session) == []  # paused sessions yield nothing
            session.resume()
            rest = list(session)
        assert [r.iteration for r in rest] == [4, 5, 6, 7]
        assert session.trace.to_json() == uninterrupted.trace.to_json()

    def test_run_respects_pause_from_callback(self):
        session = Session(config=small_config())
        session.on_round(lambda r: session.pause() if r.iteration == 1 else None)
        with session:
            session.run()
            assert session.next_round == 2 and not session.finished
            session.run()  # run() resumes automatically
        assert session.finished and session.next_round == 6


class TestUntilAndEarlyStop:
    def test_until_stops_at_exact_round(self):
        with Session(config=small_config()) as session:
            session.run(until=3)
            assert session.next_round == 3 and not session.finished
            session.run(until=3)  # idempotent: already there
            assert session.next_round == 3
            session.run()
        assert session.finished and session.next_round == 6

    def test_until_beyond_the_horizon_just_finishes(self):
        with Session(config=small_config(num_iterations=3)) as session:
            result = session.run(until=99)
        assert session.finished and len(result.metrics) == 3

    def test_until_predicate_stops_after_matching_round(self):
        with Session(config=small_config()) as session:
            session.run(until=lambda r: r.iteration == 2)
        assert session.next_round == 3 and session.stopped_early

    def test_stopped_early_clears_on_later_natural_completion(self):
        with Session(config=small_config()) as session:
            session.run(until=lambda r: r.iteration == 2)
            assert session.stopped_early and not session.finished
            session.run()
        assert session.finished and not session.stopped_early

    def test_early_stop_predicate_stops_at_exact_round(self):
        session = Session(config=small_config(), early_stop=lambda r: r.iteration == 3)
        with session:
            results = list(session)
        assert [r.iteration for r in results] == [0, 1, 2, 3]
        assert session.finished and session.stopped_early

    def test_invalid_until_rejected(self):
        with Session(config=small_config(num_iterations=1)) as session:
            with pytest.raises(ConfigurationError):
                session.run(until=-1)
            with pytest.raises(ConfigurationError):
                session.run(until=True)
            with pytest.raises(ConfigurationError):
                session.run(until="soon")


class TestCallbacks:
    def test_round_start_fires_after_director_applied_events(self):
        """Callback ordering vs Deployment.begin_round is locked.

        ``churn_at_f_bound`` crashes worker-0 at round 2: by the time the
        round-start callback fires, the director must already have applied
        the crash, while the trace still holds only the completed rounds.
        """
        observed = {}
        session = Session(config=config_for_scenario("churn_at_f_bound"))

        def on_start(s, iteration, events):
            if iteration == 2:
                observed["events"] = [e["action"] for e in events]
                observed["crashed"] = s.deployment.transport.failures.is_crashed("worker-0")
                observed["trace_rounds"] = [e["round"] for e in s.deployment.trace.rounds]

        session.on_round_start(on_start)
        with session:
            session.run()
        assert observed["events"] == ["crash"]
        assert observed["crashed"] is True
        # Rounds 0 and 1 completed; round 2 gets its entry once it completes.
        assert observed["trace_rounds"] == [0, 1]

    def test_round_callbacks_fire_in_registration_order_after_each_round(self):
        calls = []
        session = Session(config=small_config(num_iterations=2))
        session.on_round(lambda r: calls.append(("first", r.iteration)))
        session.on_round(lambda r: calls.append(("second", r.iteration)))
        session.on_round_start(lambda s, i, e: calls.append(("start", i)))
        with session:
            session.run()
        assert calls == [
            ("start", 0), ("first", 0), ("second", 0),
            ("start", 1), ("first", 1), ("second", 1),
        ]


class TestTraceRecordsCompletedRounds:
    def test_a_round_that_raises_leaves_no_entry(self):
        """``crash_quorum_edge`` past its margin: a third crash at round 3
        leaves 4 live workers for a 5-reply quorum, and the round times out.
        The trace must read exactly as it did after round 2 — no half-open
        entry claiming the round ran."""
        from repro.core.scenario import ScenarioSpec, load_scenario
        from repro.exceptions import TimeoutError as QuorumTimeout

        data = load_scenario("crash_quorum_edge").to_dict()
        data["events"].append({"round": 3, "action": "crash", "target": "worker-2"})
        spec = ScenarioSpec.from_dict(data)
        deployment = Controller(ClusterConfig.from_dict(spec.config)).build()
        deployment.attach_scenario(spec)
        with Session(deployment) as session:
            session.run(until=3)
            before = session.trace.to_json()
            with pytest.raises(QuorumTimeout):
                session.step()
            assert session.trace.to_json() == before
            assert [entry["round"] for entry in session.trace.rounds] == [0, 1, 2]
            assert session.next_round == 3


class TestMidRunArtifacts:
    def test_checkpoint_mid_run_roundtrips(self, tmp_path):
        path = tmp_path / "mid.npz"
        with Session(config=small_config()) as session:
            session.run(until=3)
            session.checkpoint(path)
            mid_state = session.reporting_server.flat_parameters().copy()
            session.run()

        with Session(config=small_config()) as fresh:
            restored = fresh.reporting_server.load_checkpoint(path)
        assert restored == 3
        assert np.allclose(fresh.reporting_server.flat_parameters(), mid_state)

    def test_export_trace_mid_run(self, tmp_path):
        path = tmp_path / "partial.json"
        with Session(config=config_for_scenario("calm_baseline")) as session:
            session.run(until=3)
            session.export_trace(path)
        stored = Trace.load(path)
        assert [entry["round"] for entry in stored.rounds] == [0, 1, 2]

    def test_export_trace_without_scenario_raises(self, tmp_path):
        with Session(config=small_config(num_iterations=1)) as session:
            with pytest.raises(ConfigurationError):
                session.export_trace(tmp_path / "no.json")


class TestFinalIterationEvaluation:
    """``should_evaluate`` must always evaluate the last iteration.

    A run whose ``num_iterations`` is not a multiple of ``accuracy_every``
    would otherwise end with a stale accuracy; the bundled golden traces
    (8 rounds, ``accuracy_every=4``) already encode the corrected schedule —
    round 7 carries an accuracy — so this is locked without re-blessing.
    """

    @pytest.mark.parametrize("deployment,extra", [
        ("ssmw", {}),
        ("vanilla", {"num_byzantine_workers": 0, "num_attacking_workers": 0}),
    ])
    def test_final_round_always_evaluated(self, deployment, extra):
        config = small_config(deployment=deployment, num_iterations=5, accuracy_every=3, **extra)
        result = Controller(config).run()
        assert [i for i, _ in result.accuracy_history] == [0, 3, 4]
        assert result.metrics.records[-1].accuracy is not None

    def test_multiple_of_interval_not_double_evaluated(self):
        result = Controller(small_config(num_iterations=4, accuracy_every=2)).run()
        assert [i for i, _ in result.accuracy_history] == [0, 2, 3]


class TestTrain:
    def test_train_with_scenario_wires_trace(self):
        result = train(scenario="calm_baseline", until=1)
        assert result.trace is not None and result.trace.scenario == "calm_baseline"
        assert len(result.trace) == 1

    def test_train_attaches_callback_and_early_stop(self):
        seen = []
        result = train(
            deployment="ssmw",
            num_workers=5,
            num_byzantine_workers=1,
            num_attacking_workers=1,
            gradient_gar="multi-krum",
            model="logistic",
            dataset_size=150,
            batch_size=8,
            num_iterations=4,
            accuracy_every=2,
            seed=11,
            on_round=lambda r: seen.append(r.iteration),
            early_stop=lambda r: r.iteration == 1,
        )
        assert seen == [0, 1] and len(result.metrics) == 2

    def test_train_uses_an_explicit_strategy(self):
        applied = []

        class CountingStrategy(RoundStrategy):
            def apply(self, ctx, update):
                applied.append(ctx.iteration)
                super().apply(ctx, update)

        result = train(
            deployment="vanilla",
            num_workers=4,
            model="logistic",
            dataset_size=120,
            batch_size=8,
            num_iterations=3,
            accuracy_every=2,
            seed=2,
            strategy=CountingStrategy(),
        )
        assert applied == [0, 1, 2] and result.final_accuracy is not None

    def test_train_one_call(self):
        result = train(
            deployment="vanilla",
            num_workers=4,
            model="logistic",
            dataset_size=120,
            batch_size=8,
            num_iterations=3,
            accuracy_every=2,
            seed=2,
        )
        assert len(result.metrics) == 3

    def test_train_returns_training_result(self):
        result = train(**small_fields(num_iterations=3))
        assert len(result.metrics) == 3 and result.final_accuracy is not None
        assert [i for i, _ in result.accuracy_history] == [0, 2]

    def test_train_rejects_an_invalid_attack_before_running(self):
        with pytest.raises(ConfigurationError):
            train(**small_fields(num_attacking_workers=2))

    def test_train_with_scenario_reproduces_golden(self):
        from pathlib import Path

        golden = (
            Path(__file__).parent.parent / "integration" / "golden" / "calm_baseline.json"
        ).read_text(encoding="utf-8")
        result = train(scenario="calm_baseline")
        assert result.trace.to_json() == golden


class TestRegistry:
    def test_bundled_applications_registered(self):
        assert set(available_applications()) == {
            "vanilla", "aggregathor", "crash-tolerant", "ssmw", "msmw", "decentralized",
        }

    def test_resolve_unknown_application_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_application("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            @register_application("ssmw")
            class Clashing(RoundStrategy):
                pass

    def test_non_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            register_application("not-a-strategy")(object)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_application("")

    def test_third_party_strategy_trains_end_to_end(self):
        """A plugged-in strategy is a first-class deployment name."""

        @register_application("double-step")
        class DoubleStepStrategy(RoundStrategy):
            """SSMW round that applies the aggregated update twice."""

            def apply(self, ctx, update):
                ctx.server.update_model(update)
                ctx.server.update_model(update)

        try:
            result = train(
                deployment="double-step",
                num_workers=5,
                num_byzantine_workers=1,
                num_attacking_workers=1,
                gradient_gar="multi-krum",
                model="logistic",
                dataset_size=150,
                batch_size=8,
                num_iterations=3,
                accuracy_every=2,
                seed=11,
            )
            assert len(result.metrics) == 3
            # Two optimizer steps per round.
            assert result.to_dict()["iterations"] == 3
            assert "double-step" in available_applications()
            # replace=True swaps the implementation without erroring.
            register_application("double-step", replace=True)(DoubleStepStrategy)
        finally:
            APPLICATION_REGISTRY.pop("double-step", None)

    def test_unregistered_deployment_name_still_rejected_by_config(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(deployment="never-registered")


class TestPrebuiltDeployment:
    def test_session_over_a_built_deployment_reproduces_golden(self):
        from pathlib import Path

        golden = (
            Path(__file__).parent.parent / "integration" / "golden" / "calm_baseline.json"
        ).read_text(encoding="utf-8")
        deployment = Controller(config_for_scenario("calm_baseline")).build()
        with deployment:
            Session(deployment).run()
        assert len(deployment.metrics) == deployment.config.num_iterations
        assert deployment.trace.to_json() == golden

    def test_session_over_a_built_deployment_runs_without_warning(self, recwarn):
        deployment = Controller(small_config(num_iterations=2)).build()
        with deployment:
            Session(deployment).run()
        assert len(deployment.metrics) == 2
        assert not [w for w in recwarn.list if issubclass(w.category, DeprecationWarning)]

    def test_aggregathor_handicap_applied_once_across_sessions(self):
        config = small_config(
            deployment="aggregathor",
            num_byzantine_workers=0,
            num_attacking_workers=0,
            num_iterations=2,
        )
        deployment = Controller(config).build()
        baseline = deployment.servers[0].optimizer.lr
        with Session(deployment) as first:
            first.run()
            # A second session over the same deployment must not compound it.
            Session(deployment).run(until=1)
        assert deployment.servers[0].optimizer.lr == pytest.approx(baseline * 0.8)


class TestDivergenceDetection:
    """The divergence flag: loud counterpart to silently poisoned completion."""

    def _traced_session(self, **overrides):
        from repro.core.scenario import ScenarioSpec

        deployment = Controller(small_config(**overrides)).build()
        deployment.attach_scenario(ScenarioSpec(name="divergence-test"))
        return Session(deployment)

    def test_healthy_run_carries_no_flag(self):
        with self._traced_session() as session:
            results = list(session)
        assert not session.diverged
        assert not session.deployment.trace.diverged
        assert all(not r.diverged for r in results)
        # Golden compatibility: healthy rounds must not even carry the key.
        assert all("diverged" not in e for e in session.deployment.trace.rounds)

    def test_poisoned_vanilla_run_is_flagged_from_the_pristine_baseline(self):
        # vanilla averages with f = 0: one reversed attacker poisons every
        # round, so the loss only ever ascends.  The baseline is captured from
        # the pristine model *before* the first update — the poisoned run
        # cannot define its own reference point, and the first evaluation
        # already trips the factor.
        with self._traced_session(
            deployment="vanilla", gradient_gar="average", learning_rate=0.2
        ) as session:
            results = list(session)
        assert session.diverged
        assert session.deployment.trace.diverged
        evaluated = [r for r in results if r.loss is not None]
        assert evaluated and all(r.diverged for r in evaluated)

    def test_norm_blowup_and_nonfinite_loss_flag(self):
        from types import SimpleNamespace

        from repro.core.session import DIVERGENCE_NORM_BOUND

        with self._traced_session(num_iterations=1) as session:
            record = lambda loss: SimpleNamespace(loss=loss)
            server = lambda norm: SimpleNamespace(last_update_norm=norm)
            assert session._detect_divergence(record(None), server(float("inf")))
            assert session._detect_divergence(record(None), server(DIVERGENCE_NORM_BOUND * 2))
            assert session._detect_divergence(record(float("nan")), server(1.0))
            assert not session._detect_divergence(record(None), server(1.0))

    def test_loss_threshold_uses_floor_and_factor(self):
        from types import SimpleNamespace

        from repro.core.session import DIVERGENCE_LOSS_FACTOR, DIVERGENCE_LOSS_FLOOR

        with self._traced_session(num_iterations=1) as session:
            session._baseline_loss = 1.0
            record = lambda loss: SimpleNamespace(loss=loss)
            server = SimpleNamespace(last_update_norm=1.0)
            # Factor alone (25 x 1.0) is below the floor: not diverged yet.
            assert not session._detect_divergence(record(DIVERGENCE_LOSS_FACTOR), server)
            assert session._detect_divergence(record(DIVERGENCE_LOSS_FLOOR + 1), server)
            # With a large baseline the factor dominates the floor.
            session._diverged = False
            session._baseline_loss = 10.0
            assert not session._detect_divergence(record(DIVERGENCE_LOSS_FLOOR + 1), server)
            assert session._detect_divergence(
                record(DIVERGENCE_LOSS_FACTOR * 10.0 + 1), server
            )

    def test_flag_is_sticky_on_the_session(self):
        from types import SimpleNamespace

        with self._traced_session(num_iterations=1) as session:
            record = SimpleNamespace(loss=None)
            assert session._detect_divergence(record, SimpleNamespace(last_update_norm=float("inf")))
            assert session.diverged
            # A later healthy round does not clear the run-level flag.
            assert not session._detect_divergence(record, SimpleNamespace(last_update_norm=1.0))
            assert session.diverged


class TestAggregateSizesTheRule:
    """``RoundStrategy.aggregate`` runs the GAR sized for the rows it pulled."""

    @pytest.mark.resilience
    def test_liveness_shrunk_pull_set_gets_a_rule_of_its_size(self, monkeypatch):
        """Regression: with one peer declared dead, 7 rows reached the
        Multi-Krum built for n=8 (m=6) — with f=2, a Byzantine row was
        averaged in on every such round."""
        from repro.aggregators.base import GAR
        from repro.core.worker import Worker

        aggregated = []
        aggregate_matrix = GAR.aggregate_matrix

        def recording(gar, matrix):
            aggregated.append((gar.n, gar.f, gar.m, len(matrix)))
            return aggregate_matrix(gar, matrix)

        monkeypatch.setattr(GAR, "aggregate_matrix", recording)
        config = small_config(
            num_workers=8,
            num_byzantine_workers=2,
            num_attacking_workers=2,
            num_iterations=3,
            resilience={"hedge": True},
        )
        with Session(config=config) as session:
            deployment = session.deployment
            session.step()
            honest = next(w.node_id for w in deployment.workers if type(w) is Worker)
            deployment.health.request_dead(honest)
            session.step()
            result = session.step()
        assert deployment.membership.cause(honest) == "dead"
        assert honest not in result.gradient_sources
        assert aggregated[0] == (8, 2, 6, 8)
        assert aggregated[2] == (7, 2, 5, 7)
        # The deployment's own rule is never mutated.
        assert (deployment.gradient_gar.n, deployment.gradient_gar.m) == (8, 6)
