"""Transport conformance suite: in-process and socket backends, one contract.

Every test in :class:`TestTransportConformance` runs twice through a single
parameterized fixture — once against the default in-process backend and once
against :class:`~repro.network.rpc.SocketBackend` with real probe
subprocesses.  Both flavours register the *same* handler callables
(:func:`~repro.network.rpc.build_probe_handlers`), so any observable
difference — reply values, quorum semantics, exception types — is a backend
bug, not a fixture artefact.

The socket flavour skips gracefully (reason included) where the sandbox
forbids subprocesses or sockets; :class:`TestAvailabilityContract` pins that
the probe always produces an actionable reason.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.executor import SerialExecutor, ThreadedExecutor
from repro.exceptions import CommunicationError, NodeCrashedError, TimeoutError
from repro.network.rpc import (
    SocketBackend,
    build_probe_handlers,
    process_backend_available,
)
from repro.network.transport import LinkModel, Transport

PROBE_NODES = [f"probe-{i}" for i in range(5)]


def _build_transport(flavor: str, executor=None) -> Transport:
    backend = None
    if flavor == "socket":
        available, reason = process_backend_available()
        if not available:
            pytest.skip(f"process backend unavailable: {reason}")
        backend = SocketBackend(probe_nodes=PROBE_NODES)
    transport = Transport(
        link=LinkModel(base_latency=1e-4, jitter=1e-5),
        seed=3,
        executor=executor or ThreadedExecutor(max_workers=8),
        backend=backend,
    )
    for node_id in PROBE_NODES:
        transport.register_node(node_id, object())
        for kind, handler in build_probe_handlers(node_id).items():
            transport.register_handler(node_id, kind, handler)
    if backend is not None:
        backend.start()
    return transport


@pytest.fixture(
    scope="module",
    params=[
        pytest.param("inprocess", marks=pytest.mark.backend("serial")),
        pytest.param("socket", marks=pytest.mark.backend("process")),
    ],
)
def conformant_transport(request):
    """One shared transport per backend flavour (subprocesses are expensive)."""
    transport = _build_transport(request.param)
    yield transport
    transport.close()


@pytest.fixture(autouse=True)
def _pristine_failures(request):
    """Shared-fixture hygiene: every test starts with a clean failure state."""
    yield
    if "conformant_transport" in request.fixturenames:
        try:
            transport = request.getfixturevalue("conformant_transport")
        except pytest.FixtureLookupError:  # pragma: no cover - defensive
            return
        transport.failures.reset()


class TestTransportConformance:
    @pytest.mark.parametrize("size", [0, 1, 257, 150_000])
    def test_echo_round_trips_tensors_bit_exact(self, conformant_transport, size):
        """Framing conformance: 0-byte through >1 MiB tensors survive a pull."""
        payload = np.linspace(-1.0, 1.0, size)
        [reply], _ = conformant_transport.pull_many(
            "tester", ["probe-0"], "echo", quorum=1, payload=payload
        )
        assert isinstance(reply.payload, np.ndarray)
        assert np.array_equal(reply.payload, payload)

    def test_structured_payloads_round_trip(self, conformant_transport):
        payload = {"vectors": [np.arange(3, dtype=np.float64)], "tag": "x", "n": 2}
        [reply], _ = conformant_transport.pull_many(
            "tester", ["probe-1"], "echo", quorum=1, payload=payload
        )
        assert reply.payload["tag"] == "x"
        assert reply.payload["n"] == 2
        assert np.array_equal(reply.payload["vectors"][0], payload["vectors"][0])

    def test_handlers_execute_where_the_node_lives(self, conformant_transport):
        [reply], _ = conformant_transport.pull_many("tester", ["probe-2"], "whoami", quorum=1)
        assert reply.payload == "probe-2"
        [scaled], _ = conformant_transport.pull_many(
            "tester", ["probe-3"], "scale", quorum=1, payload=np.asarray([1.0, -2.0])
        )
        assert np.array_equal(scaled.payload, np.asarray([2.0, -4.0]))

    def test_concurrent_pulls_service_every_peer(self, conformant_transport, fifo_finish):
        payload = np.asarray([1.5])
        replies, elapsed = conformant_transport.pull_many(
            "tester", PROBE_NODES, "scale", quorum=len(PROBE_NODES), payload=payload
        )
        assert sorted(r.source for r in replies) == PROBE_NODES
        for reply in replies:
            assert np.array_equal(reply.payload, np.asarray([3.0]))
        # Replies are ordered by simulated arrival, and cross the requester's
        # link in that order, after the payload every probe was shipped.
        latencies = [r.latency for r in replies]
        assert latencies == sorted(latencies)
        shipped = len(PROBE_NODES) * conformant_transport.vector_nbytes(payload.size)
        assert elapsed == fifo_finish(replies, conformant_transport.price.bandwidth, shipped)

    def test_quorum_of_q_returns_on_qth_reply(self, conformant_transport, fifo_finish):
        """A straggler beyond the quorum never shows up nor delays the call."""
        conformant_transport.failures.set_straggler("probe-4", 1000.0)
        quorum = len(PROBE_NODES) - 1
        replies, elapsed = conformant_transport.pull_many(
            "tester", PROBE_NODES, "echo", quorum=quorum, payload=np.asarray([1.0])
        )
        assert len(replies) == quorum
        assert "probe-4" not in {r.source for r in replies}
        shipped = len(PROBE_NODES) * conformant_transport.vector_nbytes(1)
        assert elapsed == fifo_finish(replies, conformant_transport.price.bandwidth, shipped)

    def test_silent_replies_never_count_towards_the_quorum(self, conformant_transport):
        with pytest.raises(TimeoutError, match="0 usable"):
            conformant_transport.pull_many(
                "tester", PROBE_NODES, "silent", quorum=1
            )

    def test_remote_handler_errors_keep_their_exception_type(self, conformant_transport):
        with pytest.raises(CommunicationError, match="exploded"):
            conformant_transport.pull_many("tester", ["probe-0"], "fail", quorum=1)

    def test_unknown_kind_raises_identically(self, conformant_transport):
        with pytest.raises(CommunicationError, match="serves no 'nonsense'"):
            conformant_transport.pull_many("tester", ["probe-0"], "nonsense", quorum=1)

    def test_unencodable_result_is_a_clear_error_never_a_fake_crash(
        self, conformant_transport
    ):
        """A handler result outside the wire vocabulary is a programming
        error: in-process it flows through by reference; over the socket it
        must surface as a clear CommunicationError — not masquerade as the
        peer crashing (which pull_many would silently count as 'lost')."""
        if conformant_transport.backend.name == "inprocess":
            [reply], _ = conformant_transport.pull_many(
                "tester", ["probe-0"], "unencodable", quorum=1
            )
            assert reply.payload == {"oops": {1, 2, 3}}
        else:
            with pytest.raises(CommunicationError, match="not wire-encodable") as exc:
                conformant_transport.pull_many("tester", ["probe-0"], "unencodable", quorum=1)
            assert not isinstance(exc.value, NodeCrashedError)

    def test_crashed_peer_is_refused(self, conformant_transport):
        conformant_transport.failures.crash("probe-1")
        with pytest.raises(TimeoutError, match=r"0 usable .* never replied: probe-1\]"):
            conformant_transport.pull_many("tester", ["probe-1"], "echo", quorum=1)

    def test_crashed_peers_are_skipped_in_fan_outs(self, conformant_transport):
        conformant_transport.failures.crash("probe-2")
        replies, _ = conformant_transport.pull_many(
            "tester", PROBE_NODES, "whoami", quorum=len(PROBE_NODES) - 1
        )
        assert "probe-2" not in {r.source for r in replies}

    def test_partitioned_peer_is_unreachable(self, conformant_transport):
        conformant_transport.failures.set_partition([["probe-3"]])
        # The connection is never attempted across the cut: no reply at all.
        with pytest.raises(TimeoutError, match=r"0 usable .* never replied: probe-3\]"):
            conformant_transport.pull_many(
                "tester", ["probe-3"], "echo", quorum=1, payload=np.ones(2)
            )


@pytest.mark.backend("process")
@pytest.mark.slow
class TestSocketBackendCrashSemantics:
    """Socket-only conformance: a peer dying *mid-reply* must surface exactly
    like the in-process crash path (NodeCrashedError, which a fan-out counts
    as one lost pull), and a fan-out holding exactly ``n - f`` live peers
    must still meet its quorum."""

    @pytest.fixture
    def socket_transport(self):
        transport = _build_transport("socket")
        yield transport
        transport.close()

    def test_sigkill_mid_reply_is_a_lost_pull(self, socket_transport):
        backend = socket_transport.backend
        victim = "probe-0"
        outcome = {}

        def slow_pull():
            try:
                socket_transport.pull_many("tester", [victim], "nap", quorum=1, payload=2.0)
                outcome["error"] = None
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                outcome["error"] = exc

        thread = threading.Thread(target=slow_pull)
        thread.start()
        time.sleep(0.4)  # let the request reach the host and start napping
        backend.apply_control(victim, "crash")  # snapshot attempt + SIGKILL
        thread.join(timeout=30)
        assert not thread.is_alive()
        # The backend raised NodeCrashedError mid-reply: the pull is lost.
        assert isinstance(outcome["error"], TimeoutError)
        assert f"lost mid-reply: {victim} |" in str(outcome["error"])

    def test_straggling_peer_killed_mid_reply_counts_once_at_n_minus_f(self, socket_transport):
        """The satellite regression, over real sockets: a peer that straggles
        and is then dropped (SIGKILLed) reduces the usable count by exactly
        one, so the remaining n - f replies still meet the quorum."""
        backend = socket_transport.backend
        victim = "probe-4"
        socket_transport.failures.set_straggler(victim, 50.0)
        quorum = len(PROBE_NODES) - 1  # exactly n - f usable peers, f = 1

        def kill_soon():
            time.sleep(0.4)
            backend.apply_control(victim, "crash")

        killer = threading.Thread(target=kill_soon)
        killer.start()
        try:
            replies, _ = socket_transport.pull_many(
                "tester", PROBE_NODES, "nap", quorum=quorum, payload=1.2
            )
        finally:
            killer.join()
        assert len(replies) == quorum
        assert victim not in {r.source for r in replies}

    @pytest.mark.parametrize("quorum", [len(PROBE_NODES), 3])
    def test_the_whole_wave_is_in_flight_without_a_pool(self, quorum):
        """Under the serial engine a wave of five half-second naps still
        takes about one nap: every request is out before any reply is read,
        and no thread is blocked per peer."""
        transport = _build_transport("socket", executor=SerialExecutor())
        try:
            started = time.monotonic()
            replies, _ = transport.pull_many(
                "tester", PROBE_NODES, "nap", quorum=quorum, iteration=7, payload=0.5
            )
            took = time.monotonic() - started
        finally:
            transport.close()
        assert len(replies) == quorum
        assert all(np.array_equal(reply.payload, [7.0]) for reply in replies)
        assert took < 2 * 0.5, f"the wave took {took:.2f}s: its naps ran one after another"

    def test_recovered_host_serves_again_with_a_fresh_pid(self, socket_transport):
        backend = socket_transport.backend
        victim = "probe-1"
        pid_before = backend.pid(victim)
        assert pid_before is not None
        backend.apply_control(victim, "crash")
        assert backend.pid(victim) is None
        backend.apply_control(victim, "recover")
        pid_after = backend.pid(victim)
        assert pid_after is not None and pid_after != pid_before
        [reply], _ = socket_transport.pull_many("tester", [victim], "whoami", quorum=1)
        assert reply.payload == victim


class TestAvailabilityContract:
    def test_probe_reports_a_reason_when_unavailable(self):
        """The graceful-skip contract: either the backend is available, or the
        probe names why — the exact string the suites put in their skips."""
        available, reason = process_backend_available()
        if available:
            assert reason == ""
        else:
            assert reason.strip(), "unavailable without a reason is undebuggable"
