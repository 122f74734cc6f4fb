"""The zygote: one pre-imported template process forks every node host.

What only holds because hosts are forks of one template, and what forking
must not break:

* a deployment starts one interpreter, not nine, and it is every host's parent;
* the zygote dying is not a host dying (hosts keep serving, the next spawn
  starts a new zygote), and the *coordinator* dying — SIGKILL, no ``close()``
  — takes zygote and hosts with it (they used to serve on forever);
* ten crash -> recover cycles leave the training trajectory where the serial
  backend has it and no zombie behind;
* a host forked after the template's BLAS thread pool has run still
  multiplies matrices, bit for bit.

Linux-only like the backend itself; skips with the probe's reason elsewhere.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core.cluster import ClusterConfig
from repro.core.session import Session
from repro.network import rpc
from repro.network.message import RequestContext
from repro.network.rpc import SocketBackend

pytestmark = [pytest.mark.slow, pytest.mark.backend("process")]

SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def _needs_process_backend(require_process_backend):
    require_process_backend()


def _gone(pid: int) -> bool:
    """No such process, not even as a zombie."""
    return not Path(f"/proc/{pid}").exists()


def _dead(pid: int) -> bool:
    """Gone, or a zombie: an orphan stays one until init gets round to it."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="ascii")
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _wait_dead(pids, seconds: float) -> list:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and not all(_dead(pid) for pid in pids):
        time.sleep(0.02)
    return [pid for pid in pids if not _dead(pid)]


def _parent_of(pid: int) -> int:
    stat = Path(f"/proc/{pid}/stat").read_text(encoding="ascii")
    return int(stat.rsplit(")", 1)[1].split()[1])


def _whoami(backend: SocketBackend, node_id: str) -> str:
    return backend.invoke(node_id, "whoami", RequestContext("tester", 0, None))


@pytest.fixture
def probes():
    nodes = [f"probe-{index}" for index in range(12)]
    backend = SocketBackend(probe_nodes=nodes)
    try:
        yield backend, nodes
    finally:
        backend.close()


class TestOneTemplate:
    def test_a_deployment_execs_one_interpreter_and_parents_every_host(
        self, probes, monkeypatch
    ):
        backend, nodes = probes
        launched = []
        popen = subprocess.Popen

        def counting(argv, *args, **kwargs):
            launched.append(tuple(argv))
            return popen(argv, *args, **kwargs)

        monkeypatch.setattr(rpc.subprocess, "Popen", counting)
        backend.start()
        assert launched == [rpc.ZYGOTE_ARGV]
        zygote = backend._zygote.pid
        pids = [backend.pid(node_id) for node_id in nodes]
        assert len(set(pids)) == len(nodes) and zygote not in pids
        assert [_parent_of(pid) for pid in pids] == [zygote] * len(nodes)
        # Twelve ready lines raced down one pipe and each reached its host.
        assert [_whoami(backend, node_id) for node_id in nodes] == nodes

    def test_zygote_forks_with_no_thread_no_socket_no_node(self, probes):
        backend, _ = probes
        backend.start()
        zygote = backend._zygote.pid
        targets = [os.readlink(fd) for fd in Path(f"/proc/{zygote}/fd").iterdir()]
        assert not [target for target in targets if target.startswith("socket:")]
        assert len(targets) == 3  # request pipe, report pipe, zygote.stderr
        # One Python thread; OpenBLAS's pool (if the box has cores for one) is
        # torn down and rebuilt around every fork by its own atfork handler.
        assert len(os.listdir(f"/proc/{zygote}/task")) <= (os.cpu_count() or 1)

    def test_recovered_host_appends_to_the_previous_stderr(self, probes):
        backend, nodes = probes
        backend.start()
        victim = backend._hosts[nodes[0]]
        victim.stderr_path.write_text("last words of incarnation one\n")
        backend.apply_control(nodes[0], "crash")
        backend.apply_control(nodes[0], "recover")
        assert _whoami(backend, nodes[0]) == nodes[0]
        assert "incarnation one" in rpc._tail(victim.stderr_path)


class TestZygoteDeath:
    def test_killed_zygote_is_replaced_by_the_next_spawn_not_mourned_as_a_host(self, probes):
        backend, nodes = probes
        backend.start()
        first = backend._zygote.pid
        os.kill(first, signal.SIGKILL)
        backend._zygote.wait()
        # Its hosts are orphans now, and still serving.
        assert all(backend.is_running(node_id) for node_id in nodes)
        assert _whoami(backend, nodes[3]) == nodes[3]
        # An unscripted host death on top: revive needs a zygote, and gets one.
        victim = backend.pid(nodes[0])
        os.kill(victim, signal.SIGKILL)
        assert _wait_dead([victim], 2.0) == []
        assert backend.revive(nodes[0])
        second = backend._zygote.pid
        assert second != first and _parent_of(backend.pid(nodes[0])) == second
        assert _whoami(backend, nodes[0]) == nodes[0]
        survivors = [backend.pid(node_id) for node_id in nodes]
        backend.close()
        assert _wait_dead(survivors, 2.0) == [] and _gone(second)

    def test_sigkilled_coordinator_takes_zygote_and_hosts_with_it(self, tmp_path):
        """The orphan bug: hosts used to outlive a coordinator that never
        reached ``close()`` and serve on forever — and its work directory
        stayed in ``$TMPDIR`` after they were gone."""
        script = (
            "import sys, time\n"
            "from repro.network.rpc import SocketBackend\n"
            "backend = SocketBackend(probe_nodes=['probe-0', 'probe-1'])\n"
            "backend.start()\n"
            "print(backend._zygote.pid, backend.pid('probe-0'), backend.pid('probe-1'), flush=True)\n"
            "time.sleep(60)\n"
        )
        coordinator = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            # Its workdir goes under tmp_path, where the test can look for it.
            env={**os.environ, "PYTHONPATH": SRC, "TMPDIR": str(tmp_path)},
        )
        workdir = rpc.WORKDIR_PREFIX + "*"
        try:
            pids = [int(word) for word in coordinator.stdout.readline().split()]
            assert len(pids) == 3 and not any(_gone(pid) for pid in pids)
            assert len(list(tmp_path.glob(workdir))) == 1
            coordinator.kill()
            coordinator.wait()
            assert _wait_dead(pids, 2.0) == [], "hosts or zygote outlived the coordinator"
            # The zygote removes it before its killpg: gone once the zygote is.
            assert list(tmp_path.glob(workdir)) == [], "the work directory outlived the coordinator"
        finally:
            coordinator.kill()
            coordinator.wait()
            coordinator.stdout.close()


class TestCrashRecoverCyclesTrainIdentically:
    CYCLES = 10

    def _run(self, tmp_path, executor: str):
        events = []
        for cycle in range(self.CYCLES):
            events.append({"round": 2 * cycle + 1, "action": "crash", "target": "worker-0"})
            events.append({"round": 2 * cycle + 2, "action": "recover", "target": "worker-0"})
        scenario = tmp_path / "ten_cycles.json"
        scenario.write_text(
            json.dumps({"name": "ten_cycles", "description": "", "config": {}, "events": events})
        )
        config = ClusterConfig(
            deployment="ssmw",
            num_workers=5,
            num_byzantine_workers=1,
            asynchronous=True,
            gradient_gar="median",
            model="logistic",
            dataset="mnist",
            dataset_size=200,
            batch_size=8,
            learning_rate=0.2,
            num_iterations=2 * self.CYCLES + 2,
            accuracy_every=2 * self.CYCLES + 2,
            seed=11,
            executor=executor,
            scenario=str(scenario),
        )
        norms, pids = [], set()
        with Session(config=config) as session:
            while not session.finished:
                norms.append(session.step().update_norm)
                if executor == "process":
                    pids.add(session.deployment.backend.pid("worker-0"))
            pids.update(getattr(session.deployment, "pids", dict)().values())
        return norms, pids - {None}

    def test_update_norms_equal_serial_and_no_zombie_is_left(self, tmp_path):
        serial, _ = self._run(tmp_path, "serial")
        process, pids = self._run(tmp_path, "process")
        assert process == serial
        assert len(pids) >= self.CYCLES + 5  # a fresh pid per recover, plus the fleet
        assert [pid for pid in pids if not _gone(pid)] == []


class TestForkAfterBlasThreadPool:
    def test_forked_host_multiplies_bit_identically(self, tmp_path, monkeypatch):
        """The template has *used* its BLAS pool (worker threads exist, locks
        have been taken) when it forks; the host's product must equal the
        template's, and must come back at all."""
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        verdict = tmp_path / "gemm.txt"
        script = (
            "import hashlib, os, numpy as np, repro.network.rpc as rpc\n"
            "rng = np.random.default_rng(0)\n"
            "a, b = rng.standard_normal((384, 512)), rng.standard_normal((512, 320))\n"
            "digest = lambda: hashlib.sha256((a @ b).tobytes()).hexdigest()\n"
            "before, threads = digest(), len(os.listdir('/proc/self/task'))\n"
            "serve = rpc._host_main\n"
            "def host(node_id, stderr_path, probe):\n"
            f"    open({str(verdict)!r}, 'w').write(f'{{before}} {{digest()}} {{threads}}')\n"
            "    serve(node_id, stderr_path, probe)\n"
            "rpc._host_main = host\n"
            "rpc.zygote_main()\n"
        )
        monkeypatch.setattr(rpc, "ZYGOTE_ARGV", (sys.executable, "-c", script))
        backend = SocketBackend(probe_nodes=["probe-0"], spawn_timeout=20.0)
        try:
            backend.start()
            assert _whoami(backend, "probe-0") == "probe-0"
        finally:
            backend.close()
        before, after, threads = verdict.read_text().split()
        assert after == before
        if (os.cpu_count() or 1) > 1:
            assert int(threads) > 1, "the template's BLAS pool never started"
