"""Tests for the execution engines and the fastest-q collection semantics.

Covers the determinism contract of :mod:`repro.core.executor` (serial and
threaded engines produce identical results for a fixed seed) and the
``get_gradients(t, q)`` quorum semantics under stragglers and crashes.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import ClusterConfig, Controller
from repro.core.executor import (
    EXECUTOR_REGISTRY,
    Executor,
    SerialExecutor,
    ThreadedExecutor,
    available_executors,
    create_executor,
)
from repro.exceptions import CommunicationError, ConfigurationError, TimeoutError
from repro.network.failures import FailureInjector
from repro.network.transport import LinkModel, Transport


def build_transport(num_nodes=9, seed=0, executor=None, dimension=16):
    transport = Transport(
        link=LinkModel(base_latency=1e-3, jitter=2e-4),
        failures=FailureInjector(seed=seed),
        seed=seed,
        executor=executor,
    )
    for index in range(num_nodes):
        node_id = f"node-{index}"
        transport.register_node(node_id, object())
        transport.register_handler(
            node_id, "gradient", lambda ctx, i=index: np.full(dimension, float(i))
        )
    return transport


class TestExecutorEngines:
    def test_registry_contains_all_engines(self):
        from repro.core.executor import ProcessExecutor

        assert available_executors() == ["process", "serial", "threaded"]
        assert EXECUTOR_REGISTRY["serial"] is SerialExecutor
        assert EXECUTOR_REGISTRY["threaded"] is ThreadedExecutor
        assert EXECUTOR_REGISTRY["process"] is ProcessExecutor

    def test_create_executor_by_name(self):
        from repro.core.executor import ProcessExecutor

        assert isinstance(create_executor("serial"), SerialExecutor)
        threaded = create_executor("threaded", max_workers=4)
        assert isinstance(threaded, ThreadedExecutor)
        assert threaded.max_workers == 4
        threaded.shutdown()
        # The socket backend keeps a wave in flight itself, so the process
        # engine holds no pool: a worker sizing is accepted and ignored.
        process = create_executor("process", max_workers=3)
        assert isinstance(process, ProcessExecutor)
        process.shutdown()

    def test_create_executor_unknown_name(self):
        with pytest.raises(ValueError):
            create_executor("fibers")

    def test_serial_runs_in_submission_order(self):
        order = []

        def make(i):
            def task():
                order.append(i)
                return i * 10

            return task

        executor = SerialExecutor()
        completions = list(executor.map_unordered([make(i) for i in range(5)]))
        assert order == [0, 1, 2, 3, 4]
        assert completions == [(i, i * 10) for i in range(5)]

    def test_run_all_returns_submission_order(self):
        with ThreadedExecutor(max_workers=4) as executor:
            results = executor.run_all([lambda i=i: i * i for i in range(8)])
        assert results == [i * i for i in range(8)]

    def test_threaded_tasks_overlap(self):
        """Four 50 ms sleeps through the pool take far less than 200 ms."""
        with ThreadedExecutor(max_workers=4) as executor:
            start = time.perf_counter()
            executor.run_all([lambda: time.sleep(0.05) for _ in range(4)])
            elapsed = time.perf_counter() - start
        assert elapsed < 0.15

    def test_threaded_caller_runs_part_of_the_wave(self):
        """The calling thread claims tasks itself instead of parking."""
        caller = threading.current_thread().name

        def task():
            time.sleep(0.01)
            return threading.current_thread().name

        with ThreadedExecutor(max_workers=3) as executor:
            names = executor.run_all([task for _ in range(6)])
        assert caller in names
        assert set(names) - {caller}  # and the helpers took the rest

    def test_threaded_runs_at_most_max_workers_at_once(self):
        lock = threading.Lock()
        gauge = {"now": 0, "peak": 0}

        def task():
            with lock:
                gauge["now"] += 1
                gauge["peak"] = max(gauge["peak"], gauge["now"])
            time.sleep(0.005)
            with lock:
                gauge["now"] -= 1

        with ThreadedExecutor(max_workers=3) as executor:
            for _ in range(3):
                executor.run_all([task for _ in range(12)])
        assert 1 < gauge["peak"] <= 3

    def test_threaded_close_after_first_yield_joins_the_helpers(self):
        running = []

        def slow():
            running.append(1)
            time.sleep(0.03)
            running.pop()

        with ThreadedExecutor(max_workers=4) as executor:
            completions = executor.map_unordered([slow for _ in range(12)])
            next(completions)
            completions.close()
            assert running == []  # every started task finished, none is left
            time.sleep(0.05)
            assert running == []  # and nothing new started after the close
            assert executor.run_all([lambda i=i: i for i in range(5)]) == list(range(5))

    def test_threaded_single_worker_runs_everything_on_the_caller(self):
        with ThreadedExecutor(max_workers=1) as executor:
            names = executor.run_all([lambda: threading.current_thread().name] * 4)
            assert executor._pool is None
        assert names == [threading.current_thread().name] * 4

    def test_threaded_propagates_exceptions(self):
        def boom():
            raise RuntimeError("task failed")

        with ThreadedExecutor(max_workers=2) as executor:
            with pytest.raises(RuntimeError, match="task failed"):
                executor.run_all([boom])

    def test_threaded_drains_inflight_tasks_on_error(self):
        """After a task error propagates, no background task is still running."""
        finished = []

        def slow(i):
            def task():
                time.sleep(0.05)
                finished.append(i)
                return i

            return task

        def boom():
            raise RuntimeError("fail fast")

        with ThreadedExecutor(max_workers=4) as executor:
            with pytest.raises(RuntimeError, match="fail fast"):
                executor.run_all([boom, slow(1), slow(2), slow(3)])
            snapshot = sorted(finished)
            time.sleep(0.1)
            # Whatever had started was drained before the exception surfaced;
            # nothing keeps mutating shared state afterwards.
            assert sorted(finished) == snapshot

    def test_threaded_pool_reusable_after_shutdown(self):
        executor = ThreadedExecutor(max_workers=2)
        assert executor.run_all([lambda: 1]) == [1]
        executor.shutdown()
        assert executor.run_all([lambda: 2]) == [2]
        executor.shutdown()

    def test_invalid_max_workers(self):
        with pytest.raises(ValueError):
            ThreadedExecutor(max_workers=0)


@pytest.mark.parametrize("executor_name", ["serial", "threaded"])
class TestFastestQuorumSemantics:
    def test_returns_exactly_q_results(self, executor_name):
        transport = build_transport(executor=create_executor(executor_name))
        peers = [f"node-{i}" for i in range(1, 9)]
        for quorum in (1, 4, 8):
            replies, elapsed = transport.pull_many("node-0", peers, "gradient", quorum=quorum)
            assert len(replies) == quorum
            latencies = [r.latency for r in replies]
            assert latencies == sorted(latencies)
            assert elapsed == max(latencies)
            assert elapsed < sum(latencies) or quorum == 1
        transport.executor.shutdown()

    def test_excludes_stragglers_from_small_quorums(self, executor_name):
        transport = build_transport(seed=5, executor=create_executor(executor_name))
        transport.failures.set_straggler("node-7", 50.0)
        transport.failures.set_straggler("node-8", 80.0)
        peers = [f"node-{i}" for i in range(1, 9)]
        for iteration in range(5):
            replies, _ = transport.pull_many(
                "node-0", peers, "gradient", quorum=5, iteration=iteration
            )
            assert all(r.source not in ("node-7", "node-8") for r in replies)
        transport.executor.shutdown()

    def test_excludes_crashed_workers(self, executor_name):
        transport = build_transport(executor=create_executor(executor_name))
        transport.failures.crash("node-3")
        transport.failures.crash("node-4")
        peers = [f"node-{i}" for i in range(1, 9)]
        replies, _ = transport.pull_many("node-0", peers, "gradient", quorum=6)
        assert len(replies) == 6
        assert all(r.source not in ("node-3", "node-4") for r in replies)
        transport.executor.shutdown()

    def test_timeout_when_crashes_break_the_quorum(self, executor_name):
        transport = build_transport(executor=create_executor(executor_name))
        for index in range(1, 5):
            transport.failures.crash(f"node-{index}")
        peers = [f"node-{i}" for i in range(1, 9)]
        with pytest.raises(TimeoutError):
            transport.pull_many("node-0", peers, "gradient", quorum=5)
        transport.executor.shutdown()


class TestSerialThreadedEquivalence:
    def test_pull_many_replies_identical(self):
        """Same seed, same replies (payloads, latencies, order) on both engines."""
        peers = [f"node-{i}" for i in range(1, 9)]
        outcomes = []
        for name in ("serial", "threaded"):
            transport = build_transport(seed=11, executor=create_executor(name))
            transport.failures.set_straggler("node-2", 10.0)
            rounds = []
            for iteration in range(4):
                replies, elapsed = transport.pull_many(
                    "node-0", peers, "gradient", quorum=6, iteration=iteration
                )
                rounds.append(
                    (elapsed, [(r.source, r.latency, tuple(r.payload)) for r in replies])
                )
            outcomes.append(rounds)
            transport.executor.shutdown()
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("deployment", ["ssmw", "msmw"])
    def test_training_results_identical(self, deployment):
        """End to end: fixed seed => bit-identical aggregates and accuracy."""

        def run(executor_name):
            config = ClusterConfig(
                deployment=deployment,
                num_workers=7,
                num_byzantine_workers=1,
                num_attacking_workers=1,
                worker_attack="reversed",
                num_servers=1 if deployment == "ssmw" else 3,
                num_byzantine_servers=0,
                asynchronous=True,
                gradient_gar="multi-krum",
                model_gar="median",
                model="logistic",
                dataset="mnist",
                dataset_size=200,
                batch_size=8,
                num_iterations=6,
                accuracy_every=2,
                executor=executor_name,
                seed=13,
            )
            return Controller(config).run()

        serial = run("serial")
        threaded = run("threaded")
        assert serial.final_accuracy == threaded.final_accuracy
        assert serial.accuracy_history == threaded.accuracy_history
        assert serial.metrics.total_time == threaded.metrics.total_time
        assert serial.messages_sent == threaded.messages_sent
        assert serial.bytes_sent == threaded.bytes_sent

    def test_final_model_states_identical(self):
        def final_state(executor_name):
            config = ClusterConfig(
                deployment="ssmw",
                num_workers=6,
                num_byzantine_workers=1,
                asynchronous=True,
                gradient_gar="median",
                model="logistic",
                dataset="mnist",
                dataset_size=120,
                batch_size=8,
                num_iterations=5,
                executor=executor_name,
                seed=21,
            )
            controller = Controller(config)
            deployment = controller.build()
            controller.run(deployment)
            return deployment.primary.flat_parameters()

        assert np.array_equal(final_state("serial"), final_state("threaded"))


class TestScenarioDeterminism:
    """Same seed + same ScenarioSpec => bit-identical traces on both engines.

    This extends the determinism contract from static clusters to clusters
    whose failure state is rewritten mid-training by a ScenarioDirector:
    crashes, stragglers, loss, partitions and attack churn injected at round
    boundaries must not introduce any engine-dependent behaviour.
    """

    CHAOS_EVENTS = [
        {"round": 0, "action": "byzantine_count", "value": 0},
        {"round": 1, "action": "straggler", "target": "worker-1", "value": 30.0},
        {"round": 2, "action": "crash", "target": "worker-0"},
        {"round": 2, "action": "drop_rate", "value": 0.02},
        {"round": 3, "action": "partition", "value": [["worker-5"]]},
        {"round": 4, "action": "heal"},
        {"round": 4, "action": "byzantine_count", "value": 1},
        {"round": 5, "action": "recover", "target": "worker-0"},
        {"round": 5, "action": "clear_straggler", "target": "worker-1"},
        {"round": 6, "action": "drop_rate", "value": 0.0},
        {"round": 6, "action": "attack_start", "value": "random"},
    ]

    def write_spec(self, tmp_path):
        from repro.core.scenario import ScenarioSpec

        spec = ScenarioSpec.from_dict(
            {
                "name": "chaos-determinism",
                "config": {
                    "deployment": "ssmw",
                    "asynchronous": True,
                    "num_workers": 7,
                    "num_byzantine_workers": 2,
                    "num_attacking_workers": 1,
                    "worker_attack": "reversed",
                    "gradient_gar": "median",
                    "model": "logistic",
                    "dataset_size": 150,
                    "batch_size": 8,
                    "num_iterations": 7,
                    "accuracy_every": 3,
                    "seed": 29,
                },
                "events": self.CHAOS_EVENTS,
            }
        )
        path = tmp_path / "chaos.json"
        spec.save(path)
        return path

    def run_traced(self, path, executor_name):
        from repro.core.scenario import config_for_scenario

        config = config_for_scenario(str(path), executor=executor_name)
        result = Controller(config).run()
        return result

    def test_traces_bit_identical_across_engines(self, tmp_path):
        path = self.write_spec(tmp_path)
        serial = self.run_traced(path, "serial")
        threaded = self.run_traced(path, "threaded")
        assert serial.trace.to_json() == threaded.trace.to_json()
        assert serial.trace.fingerprint() == threaded.trace.fingerprint()
        # The trace equality is not vacuous: events were applied and every
        # round recorded a quorum outcome.
        recorded = [e for entry in serial.trace.rounds for e in entry["events"]]
        assert len(recorded) == len(self.CHAOS_EVENTS)
        assert all(entry["quorum"] == 5 for entry in serial.trace.rounds)

    def test_training_outcomes_identical_under_chaos(self, tmp_path):
        path = self.write_spec(tmp_path)
        serial = self.run_traced(path, "serial")
        threaded = self.run_traced(path, "threaded")
        assert serial.final_accuracy == threaded.final_accuracy
        assert serial.accuracy_history == threaded.accuracy_history
        assert serial.metrics.total_time == threaded.metrics.total_time
        assert serial.messages_sent == threaded.messages_sent

    def test_repeated_runs_reproduce_the_trace(self, tmp_path):
        path = self.write_spec(tmp_path)
        first = self.run_traced(path, "serial")
        second = self.run_traced(path, "serial")
        assert first.trace.to_json() == second.trace.to_json()


class TestConfigWiring:
    def test_default_executor_is_serial(self):
        config = ClusterConfig(model="logistic", dataset_size=60, num_workers=3)
        deployment = Controller(config).build()
        assert isinstance(deployment.executor, SerialExecutor)
        assert deployment.transport.executor is deployment.executor
        assert deployment.servers[0].executor is deployment.executor

    def test_threaded_executor_honours_worker_count(self):
        config = ClusterConfig(
            model="logistic",
            dataset_size=60,
            num_workers=3,
            executor="threaded",
            executor_workers=3,
        )
        deployment = Controller(config).build()
        assert isinstance(deployment.executor, ThreadedExecutor)
        assert deployment.executor.max_workers == 3
        deployment.executor.shutdown()

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(model="logistic", executor="asyncio")

    def test_negative_executor_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(model="logistic", executor_workers=-1)

    def test_transport_rejects_non_executor(self):
        with pytest.raises(CommunicationError):
            Transport(executor=object())

    def test_use_executor_swaps_engine(self):
        transport = Transport()
        assert isinstance(transport.executor, SerialExecutor)
        threaded = ThreadedExecutor(max_workers=2)
        transport.use_executor(threaded)
        assert transport.executor is threaded
        with pytest.raises(CommunicationError):
            transport.use_executor("threaded")
        threaded.shutdown()


class TestAbstractExecutor:
    def test_map_unordered_is_abstract(self):
        with pytest.raises(NotImplementedError):
            list(Executor().map_unordered([lambda: None]))
