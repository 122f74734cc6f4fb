"""File-descriptor hygiene of the socket backend's host lifecycle.

Two families of regressions:

* ``_await_ready`` failure paths — a zygote that dies before any ready line,
  a forked host that never reports, or one that reports garbage must leave
  *no process* (the host killed and reaped, the zygote too when it is the one
  at fault) and no descriptor: the malformed-line path used to leak a live
  host plus its pipe.  Repeated failed recovers would otherwise exhaust
  descriptors over a long chaos run.
* crash/recover cycling — a full snapshot/SIGKILL/re-fork/restore cycle must
  return the coordinator to exactly the descriptor count it started from
  (old client sockets closed, old pidfd closed, new ones accounted).

Counting uses ``/proc/self/fd``, so these tests are Linux-only (they skip
elsewhere, alongside the usual process-backend availability skip).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.exceptions import CommunicationError
from repro.network import rpc
from repro.network.rpc import SocketBackend, process_backend_available

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


def _gone(pid: int) -> bool:
    return not Path(f"/proc/{pid}").exists()


class TestAwaitReadyFailurePaths:
    """``start()`` against a zygote whose hosts (or which itself) misbehave."""

    def _start_fails(self, monkeypatch, script: str, match: str, spawn_timeout: float = 5.0):
        _require_environment()
        fds_before = _open_fds()
        monkeypatch.setattr(rpc, "ZYGOTE_ARGV", (sys.executable, "-c", script))
        backend = SocketBackend(probe_nodes=["probe-0"], spawn_timeout=spawn_timeout)
        backend.prefork()
        zygote = backend._zygote.pid
        with pytest.raises(CommunicationError, match=match) as raised:
            backend.start()
        # start() cleaned up after itself: nothing left to close().
        assert _gone(zygote), "zygote left running"
        assert _open_fds() == fds_before, "descriptors leaked"
        return str(raised.value)

    def _wedged_host(self, tmp_path, body: str) -> str:
        """The real zygote, forking hosts whose body is ``body`` then a long sleep."""
        return (
            "import os, time, repro.network.rpc as rpc\n"
            "def host(node_id, stderr_path, probe):\n"
            f"    open({str(tmp_path / 'host.pid')!r}, 'w').write(str(os.getpid()))\n"
            f"    {body}\n"
            "    time.sleep(60)\n"
            "rpc._host_main = host\n"
            "rpc.zygote_main()\n"
        )

    def _host_pid(self, tmp_path) -> int:
        return int((tmp_path / "host.pid").read_text())

    def test_zygote_that_exits_early_is_reaped(self, monkeypatch):
        message = self._start_fails(
            monkeypatch,
            "import sys; sys.stderr.write('template blew up'); sys.exit(3)",
            "zygote exited with 3",
        )
        assert "template blew up" in message  # its stderr tail, not just a code

    #: What a real host writes first: its pid, under port 0.
    FORKED = f"os.write(1, ('{rpc.READY_PREFIX} ' + node_id + ' 0 %d\\n' % os.getpid()).encode())"

    def test_host_that_exits_early_is_reaped(self, monkeypatch, tmp_path):
        dies = self.FORKED + "; open(stderr_path, 'a').write('host blew up'); os._exit(3)"
        message = self._start_fails(
            monkeypatch, self._wedged_host(tmp_path, dies), "exited before becoming ready"
        )
        assert "host blew up" in message
        assert _gone(self._host_pid(tmp_path)), "host process left a zombie"

    def test_host_that_never_reports_is_killed_and_reaped(self, monkeypatch, tmp_path):
        self._start_fails(
            monkeypatch, self._wedged_host(tmp_path, self.FORKED), "not ready within", spawn_timeout=3.0
        )
        assert _gone(self._host_pid(tmp_path)), "host process left running"

    def test_malformed_ready_line_kills_the_live_host(self, monkeypatch, tmp_path):
        """The worst historical leak: the host is alive and healthy, just
        speaking garbage — it must not be left running."""
        self._start_fails(
            monkeypatch,
            self._wedged_host(tmp_path, self.FORKED + "; os.write(1, b'NOT-THE-PROTOCOL\\n')"),
            "malformed ready line",
        )
        assert _gone(self._host_pid(tmp_path)), "host process left running"


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
