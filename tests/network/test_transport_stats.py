"""Thread-safety regression for the transport's :class:`Ledger`.

One ledger is shared by every node of a deployment.  Socket retries are
written from the executor threads a ``pull_many`` fan-out runs on, while the
driving thread writes its own pulls — so no write may be lost.  The stress
tests below reliably lose increments on an unlocked ``+=`` implementation (a
tiny ``sys.setswitchinterval`` forces the scheduler to preempt mid
read-modify-write) and pin the exact totals the locked version guarantees.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.network.ledger import Ledger

THREADS = 8
ITERATIONS = 40_000


@pytest.fixture
def frantic_scheduler():
    """Preempt threads every ~5us so lost updates surface deterministically.

    At this cadence the unlocked implementation loses thousands of
    ``per_kind_messages`` increments per run (the dict read-modify-write is
    the widest race window); the locked one never drops any.
    """
    previous = sys.getswitchinterval()
    sys.setswitchinterval(5e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _hammer(ledger: Ledger, thread_index: int) -> None:
    kind = f"kind-{thread_index % 2}"
    requester = f"node-{thread_index % 2}"
    for _ in range(ITERATIONS):
        ledger.served(kind, 10, 0.5, follow_up=False)
        ledger.issued(requester, 1, 1, follow_up=False, shipped=3)
        ledger.retried(7)


def test_concurrent_writes_lose_nothing(frantic_scheduler):
    ledger = Ledger()
    threads = [
        threading.Thread(target=_hammer, args=(ledger, index))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()

    total = THREADS * ITERATIONS
    stats = ledger.stats
    assert stats.messages_sent == total
    assert stats.pulls_issued == total
    assert stats.retries_issued == total
    assert stats.bytes_sent == total * 10
    assert stats.time_communicating == pytest.approx(total * 0.5)
    assert stats.per_kind_messages == {
        "kind-0": total // 2,
        "kind-1": total // 2,
    }
    # Each requester's charge: its own requests plus every retry of the round.
    for requester in ("node-0", "node-1"):
        charge = ledger.charge(requester)
        assert charge.messages == total // 2 + total
        assert charge.nbytes == 3 * (total // 2) + 7 * total


def test_open_round_is_atomic_against_writers(frantic_scheduler):
    """open_round() mid-storm never leaves a torn charge: afterwards the
    charge reflects only post-open writes, and every field moves together."""
    ledger = Ledger()
    stop = threading.Event()
    writes = []

    def writer():
        while not stop.is_set():
            ledger.closed("server", 2, 0.25, 8)
            writes.append(1)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 30
    while len(writes) < 100 and time.monotonic() < deadline:  # the storm is under way
        time.sleep(0)
    for _ in range(50):
        ledger.open_round()
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()

    assert len(writes) >= 100
    charge = ledger.charge("server")
    assert charge.nbytes == charge.messages * 4
    assert charge.elapsed == pytest.approx(charge.messages / 2 * 0.25)
