"""The communication ledger: each fact about a pull, written once.

A :class:`~repro.network.transport.Transport` (and, for retries, its socket
backend) writes every communication fact into its one :class:`Ledger`, at
the point it decides that fact:

* a wave of pulls issued (:meth:`Ledger.issued`);
* a reply served (:meth:`Ledger.served`);
* a quorum closed (:meth:`Ledger.closed`);
* a socket retry (:meth:`Ledger.retried`);
* a shard-coordination hop (:meth:`Ledger.coordinated`).

Every number reported about communication is a fold over those writes:

* :class:`TransportStats` holds the deployment-wide totals (``Transport.stats``).
* :class:`Charge` holds what one requester paid in the current round: the
  messages through its NIC, their bytes and the simulated time it waited.  The
  round accountant prices the reporting server's serialization from it.

This module decides what a message costs and who pays for it.  A request is
charged to its requester when it is issued, and only if it ships a payload
(the model state a gradient pull carries).  A reply is charged when its
quorum closes, and only if that quorum selected it.  Unsharded replies and
requests are model-sized messages, which the cost model prices
(:meth:`~repro.network.cost.CostModel.message_bytes`).  Slice replies and
coordination frames count at their framed sizes.  A retry re-sends a
model-sized request.  The socket layer that retries knows only the
destination, so every retry of the round is charged to whoever reads the
round's charge.

The ledger folds as it is written: it keeps totals and this round's charges,
never events, so its memory does not grow with the run.  Writes take one
lock, because socket retries are written from the executor threads a fan-out
runs on.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Dict, Optional


@dataclass
class TransportStats:
    """The paper's communication accounting: the ledger's running totals.

    ``Transport.stats`` hands out a copy, taken when it is read.
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    pulls_issued: int = 0
    time_communicating: float = 0.0
    #: Follow-up pulls issued after a first wave, the bytes their replies
    #: carried, and socket-level retry attempts.  All three stay 0 unless the
    #: run opted into ``ClusterConfig.resilience``.
    hedges_issued: int = 0
    hedged_bytes: int = 0
    retries_issued: int = 0
    per_kind_messages: Dict[str, int] = field(default_factory=dict)


@dataclass
class Charge:
    """What one requester paid in the current round."""

    messages: int = 0
    #: Model-sized messages among them, priced by the cost model.
    vectors: int = 0
    #: Framed bytes of the other messages.
    nbytes: int = 0
    #: Simulated time spent waiting on quorums and coordination hops.
    elapsed: float = 0.0


class Ledger:
    """One transport's communication record, folded as it is written."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals = TransportStats()
        self._charges: Dict[str, Charge] = defaultdict(Charge)
        self._round_retries = 0

    @property
    def stats(self) -> TransportStats:
        with self._lock:
            totals = self._totals
            return replace(totals, per_kind_messages=dict(totals.per_kind_messages))

    # ------------------------------------------------------------------ #
    # Writers: one per fact
    # ------------------------------------------------------------------ #
    def issued(self, requester: str, pulls: int, follow_up: bool, shipped: bool) -> None:
        """``pulls`` pulls of one wave issued; ``shipped``: each request carries a payload."""
        with self._lock:
            self._totals.pulls_issued += pulls
            if follow_up:
                self._totals.hedges_issued += pulls
            if shipped:
                charge = self._charges[requester]
                charge.messages += pulls
                charge.vectors += pulls

    def served(self, kind: str, nbytes: int, latency: float, follow_up: bool) -> None:
        """One reply served, recorded at ``nbytes``."""
        totals = self._totals
        with self._lock:
            totals.messages_sent += 1
            totals.bytes_sent += nbytes
            totals.time_communicating += latency
            totals.per_kind_messages[kind] = totals.per_kind_messages.get(kind, 0) + 1
            if follow_up:
                totals.hedged_bytes += nbytes

    def closed(
        self, requester: str, selected: int, elapsed: float, messages: int, nbytes: Optional[int]
    ) -> None:
        """A quorum of ``selected`` replies closed after ``elapsed`` simulated seconds.

        Each reply is ``messages`` messages of ``nbytes`` framed bytes in all,
        or one model-sized message when ``nbytes`` is ``None``.
        """
        with self._lock:
            charge = self._charges[requester]
            charge.messages += selected * messages
            if nbytes is None:
                charge.vectors += selected
            else:
                charge.nbytes += selected * nbytes
            charge.elapsed += elapsed

    def retried(self) -> None:
        """One socket-level retry attempt."""
        with self._lock:
            self._totals.retries_issued += 1
            self._round_retries += 1

    def coordinated(self, requester: str, frames: int, nbytes: int, latency: float) -> None:
        """One shard-coordination hop: ``frames`` parallel frames of ``nbytes``.

        Each frame is sent like a served reply; the hop is one quorum of them
        for ``requester``, closed after one frame's latency.
        """
        for _ in range(frames):
            self.served("shard-coordination", nbytes, latency, follow_up=False)
        self.closed(requester, frames, latency, 1, nbytes)

    # ------------------------------------------------------------------ #
    # The round
    # ------------------------------------------------------------------ #
    def open_round(self) -> None:
        """Start a round: every requester's charge starts again from zero."""
        with self._lock:
            self._charges.clear()
            self._round_retries = 0

    def charge(self, requester: str) -> Charge:
        """What ``requester`` paid since :meth:`open_round`, the round's retries included."""
        with self._lock:
            charge, retries = self._charges.get(requester, Charge()), self._round_retries
        return Charge(
            charge.messages + retries, charge.vectors + retries, charge.nbytes, charge.elapsed
        )
