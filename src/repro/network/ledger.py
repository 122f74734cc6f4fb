"""The communication ledger: each fact about a pull, written once.

A :class:`~repro.network.transport.Transport` (and, for retries, its socket
backend) writes every communication fact into its one :class:`Ledger`, at
the point it decides that fact:

* a wave of pulls issued, by kind and destination (:meth:`Ledger.issued`);
* a reply served (:meth:`Ledger.served`);
* a quorum closed (:meth:`Ledger.closed`);
* a socket retry (:meth:`Ledger.retried`);
* a shard-coordination hop (:meth:`Ledger.coordinated`).

Every number reported about communication is a fold over those writes:

* :class:`TransportStats` holds the deployment-wide totals (``Transport.stats``).
* :class:`Charge` holds what one requester paid in the current round: the
  messages through its NIC, their bytes and the simulated time it waited.  The
  round accountant prices the reporting server's serialization from it.
* :class:`Phase` is who pulled whom in the current round: waves of one kind
  that distinct requesters issue back to back form one phase, and a requester
  that pulls again starts the next.  Only a ledger asked to
  (:attr:`Ledger.phases`) keeps them: the analytic throughput model prices a
  replayed round from them (:func:`~repro.apps.throughput.round_traffic`).

This module decides who pays for a message; one rule decides what it costs.
Every vector message — a reply, the payload a gradient request ships, a shard
slice, a retried request — is priced by
:func:`~repro.network.serialization.message_nbytes`, the same count
:meth:`~repro.network.cost.CostModel.message_bytes` prices; coordination
frames count at their framed sizes.  A request is charged to its requester
when it is issued, and only if it ships a payload (the model state a gradient
pull carries).  A reply is charged when its quorum closes, and only if that
quorum selected it.  A retry re-sends a model-sized request, priced by the
transport (:meth:`~repro.network.transport.Transport.vector_nbytes`).  The socket
layer that retries knows only the destination, so every retry of the round
is charged to whoever reads the round's charge.  Each charge is one message
count and one byte total, which the round accountant reads as it is.

The ledger folds as it is written: it keeps totals, this round's charges and,
once asked, this round's phases, never a run's events, so its memory does not
grow with the run.  Writes take one lock, because socket retries are written
from the executor threads a fan-out runs on.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple


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
    #: Their bytes.
    nbytes: int = 0
    #: Simulated time spent waiting on quorums and coordination hops.
    elapsed: float = 0.0


@dataclass
class Phase:
    """Back-to-back waves of one kind, each from a distinct requester."""

    kind: str
    #: Whether each request ships a payload (a gradient request ships the model).
    shipped: bool
    #: ``(requester, peers)`` of each wave, in issue order.
    waves: List[Tuple[str, Tuple[str, ...]]] = field(default_factory=list)


class Ledger:
    """One transport's communication record, folded as it is written."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals = TransportStats()
        self._charges: Dict[str, Charge] = defaultdict(Charge)
        self._round_retries = self._round_retry_nbytes = 0
        #: This round's phases, or ``None`` (the default) to keep none: a
        #: caller that wants them sets a list, and :meth:`open_round` renews it.
        self.phases: Optional[List[Phase]] = None

    @property
    def stats(self) -> TransportStats:
        with self._lock:
            totals = self._totals
            return replace(totals, per_kind_messages=dict(totals.per_kind_messages))

    # ------------------------------------------------------------------ #
    # Writers: one per fact
    # ------------------------------------------------------------------ #
    def issued(self, requester: str, kind: str, peers: Sequence[str], follow_up: bool, shipped: Optional[int]) -> None:
        """One wave of ``kind`` pulls issued to ``peers``, each shipping a
        ``shipped``-byte payload, or none when ``shipped`` is ``None``."""
        pulls = len(peers)
        with self._lock:
            phases = self.phases
            if phases is not None:
                if not phases or phases[-1].kind != kind or requester in dict(phases[-1].waves):
                    phases.append(Phase(kind, shipped is not None))
                phases[-1].waves.append((requester, tuple(peers)))
            self._totals.pulls_issued += pulls
            if follow_up:
                self._totals.hedges_issued += pulls
            if shipped is not None:
                charge = self._charges[requester]
                charge.messages += pulls
                charge.nbytes += pulls * shipped

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

    def closed(self, requester: str, messages: int, elapsed: float, nbytes: int) -> None:
        """A quorum closed after ``elapsed`` simulated seconds; its selected
        replies were ``messages`` messages of ``nbytes`` bytes in all."""
        with self._lock:
            charge = self._charges[requester]
            charge.messages += messages
            charge.nbytes += nbytes
            charge.elapsed += elapsed

    def retried(self, nbytes: int) -> None:
        """One socket-level retry attempt, re-sending an ``nbytes``-byte request."""
        with self._lock:
            self._totals.retries_issued += 1
            self._round_retries += 1
            self._round_retry_nbytes += nbytes

    def coordinated(self, requester: str, frames: int, nbytes: int, latency: float) -> None:
        """One shard-coordination hop: ``frames`` parallel frames of ``nbytes``.

        Each frame is sent like a served reply; the hop is one quorum of them
        for ``requester``, closed after one frame's latency.
        """
        for _ in range(frames):
            self.served("shard-coordination", nbytes, latency, follow_up=False)
        self.closed(requester, frames, latency, frames * nbytes)

    # ------------------------------------------------------------------ #
    # The round
    # ------------------------------------------------------------------ #
    def open_round(self) -> None:
        """Start a round: every requester's charge and the round's phases start again."""
        with self._lock:
            self._charges.clear()
            if self.phases is not None:
                self.phases = []
            self._round_retries = self._round_retry_nbytes = 0

    def charge(self, requester: str) -> Charge:
        """What ``requester`` paid since :meth:`open_round`, the round's retries included."""
        with self._lock:
            charge = self._charges.get(requester, Charge())
            return Charge(
                charge.messages + self._round_retries,
                charge.nbytes + self._round_retry_nbytes,
                charge.elapsed,
            )
