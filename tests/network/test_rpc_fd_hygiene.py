"""File-descriptor hygiene of the socket backend's host lifecycle.

Two families of regressions:

* ``_await_ready`` failure paths — a host that dies before its ready line,
  never prints one, or prints a malformed one must be *reaped* (killed if
  still alive, zombie collected) with our end of its stdout pipe closed.
  The malformed-line path used to leak a live subprocess plus its pipe; the
  other two leaked the pipe fd.  Repeated failed recovers would otherwise
  exhaust descriptors over a long chaos run.
* crash/recover cycling — a full snapshot/SIGKILL/respawn/restore cycle must
  return the coordinator to exactly the descriptor count it started from
  (old client sockets closed, old stdout pipe closed, new ones accounted).

Counting uses ``/proc/self/fd``, so these tests are Linux-only (they skip
elsewhere, alongside the usual process-backend availability skip).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import CommunicationError
from repro.network.rpc import (
    SocketBackend,
    _NodeHost,
    process_backend_available,
)

pytestmark = pytest.mark.backend("process")

FD_DIR = Path("/proc/self/fd")


def _require_environment() -> None:
    available, reason = process_backend_available()
    if not available:
        pytest.skip(f"process backend unavailable: {reason}")
    if not FD_DIR.is_dir():
        pytest.skip("/proc/self/fd not available on this platform")


def _open_fds() -> int:
    return len(os.listdir(FD_DIR))


@pytest.fixture
def backend(tmp_path):
    """An unstarted backend: just the object whose _await_ready we exercise."""
    _require_environment()
    instance = SocketBackend(probe_nodes=["probe-0"], spawn_timeout=1.0)
    yield instance
    instance.close()


def _fake_host(tmp_path: Path, script: str) -> _NodeHost:
    """A _NodeHost whose 'host process' runs an arbitrary inline script."""
    host = _NodeHost("probe-0", tmp_path / "stderr.log")
    host.stderr_path.write_text("", encoding="utf-8")
    host.process = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    return host


class TestAwaitReadyFailurePaths:
    def _assert_reaped(self, host: _NodeHost, fds_before: int) -> None:
        process = host.process
        assert process.poll() is not None, "host process left running"
        assert process.stdout.closed, "stdout pipe left open"
        assert _open_fds() == fds_before, "descriptors leaked"

    def test_host_that_exits_early_is_reaped(self, backend, tmp_path):
        fds_before = _open_fds()
        host = _fake_host(tmp_path, "import sys; sys.exit(3)")
        with pytest.raises(CommunicationError, match="exited with 3"):
            backend._await_ready(host)
        self._assert_reaped(host, fds_before)

    def test_host_that_never_reports_is_killed_and_reaped(self, backend, tmp_path):
        fds_before = _open_fds()
        host = _fake_host(tmp_path, "import time; time.sleep(60)")
        with pytest.raises(CommunicationError, match="not ready within"):
            backend._await_ready(host)
        self._assert_reaped(host, fds_before)

    def test_malformed_ready_line_kills_the_live_host(self, backend, tmp_path):
        """The worst historical leak: the host is alive and healthy, just
        speaking garbage — it must not be left running with an open pipe."""
        fds_before = _open_fds()
        host = _fake_host(
            tmp_path,
            "print('NOT-THE-PROTOCOL', flush=True); import time; time.sleep(60)",
        )
        with pytest.raises(CommunicationError, match="malformed ready line"):
            backend._await_ready(host)
        self._assert_reaped(host, fds_before)


@pytest.mark.slow
class TestCrashRecoverCycles:
    def test_fd_count_is_stable_across_cycles(self):
        """Five crash/recover cycles (each exercising snapshot, SIGKILL,
        respawn and a fresh pooled connection) end at exactly the descriptor
        count of the first warmed-up cycle."""
        _require_environment()
        backend = SocketBackend(probe_nodes=["probe-0", "probe-1"])
        try:
            backend.start()

            def cycle() -> None:
                backend.apply_control("probe-0", "crash")
                backend.apply_control("probe-0", "recover")
                # Dial a pooled connection so each cycle reaches the same
                # steady state (client sockets included in the count).
                assert backend._live_client("probe-0").call({"op": "ping"}) == "pong"

            cycle()  # warm-up: first pooled connection etc.
            fds_reference = _open_fds()
            for _ in range(4):
                cycle()
                assert _open_fds() == fds_reference, "crash/recover leaked fds"
        finally:
            backend.close()

    def test_close_releases_every_descriptor(self):
        _require_environment()
        fds_before = _open_fds()
        backend = SocketBackend(probe_nodes=["probe-0"])
        backend.start()
        assert backend._live_client("probe-0").call({"op": "ping"}) == "pong"
        backend.close()
        assert _open_fds() == fds_before, "close() left descriptors open"
