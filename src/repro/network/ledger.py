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
  messages through its NIC, their bytes and the simulated time it waited, as
  the transport's :class:`~repro.network.cost.NetworkPrice` charged it.  The
  round accountant reads it, with :meth:`Ledger.round_nbytes`, the load of
  the shared fabric.
* :class:`Quorum` is one closed quorum pull as the rule priced it: the
  requests that shipped a payload across a link, and each selected reply
  that crossed one, with its arrival less its transfer.  Only a ledger asked
  to (:attr:`Ledger.quorums`) keeps them: the
  analytic throughput model re-prices a replayed round from them at another
  message size (:func:`~repro.apps.throughput.round_traffic`).

This module decides who pays for a message; one rule decides what it costs.
Every vector message — a reply, the payload a gradient request ships, a shard
slice, a retried request — is priced by
:func:`~repro.network.serialization.message_nbytes`, the count the
analytic model re-prices a round at; coordination frames count at their
framed sizes.  Only a message between two machines is charged: a
pull between two nodes on one machine crosses no link.  A request is charged
to its requester when it is issued, and only if it ships a payload (the model
state a gradient pull carries).  A reply is charged when its quorum closes,
and only if that quorum selected it.  A retry re-sends a model-sized request, priced by the
transport (:meth:`~repro.network.transport.Transport.vector_nbytes`).  The socket
layer that retries knows only the destination, so every retry of the round
is charged to whoever reads the round's charge.  Each charge is one message
count and one byte total, which the round accountant reads as it is.

The ledger folds as it is written: it keeps totals, this round's charges and,
once asked, this round's quorums, never a run's events, so its memory does not
grow with the run.  Writes take one lock, because socket retries are written
from the executor threads a fan-out runs on.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple


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


@dataclass(frozen=True)
class Quorum:
    """One closed quorum pull, as the network rule priced it: only the
    messages that crossed a link, between two machines."""

    requester: str
    kind: str
    #: Requests that shipped a payload to another machine, over all waves.
    requests: int
    #: Bytes of the payload each request shipped (0 when none did).
    shipped_nbytes: int
    #: ``(arrival without its transfer, straggler factor, nbytes)`` of each
    #: selected reply from another machine, in arrival order.
    replies: Tuple[Tuple[float, float, int], ...]


class Ledger:
    """One transport's communication record, folded as it is written."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals = TransportStats()
        self._charges: Dict[str, Charge] = defaultdict(Charge)
        self._round_retries = self._round_retry_nbytes = 0
        #: This round's closed quorums, or ``None`` (the default) to keep none:
        #: a caller that wants them sets a list, the transport appends each
        #: quorum as it closes, and :meth:`open_round` renews it.
        self.quorums: Optional[List[Quorum]] = None

    @property
    def stats(self) -> TransportStats:
        with self._lock:
            totals = self._totals
            return replace(totals, per_kind_messages=dict(totals.per_kind_messages))

    # ------------------------------------------------------------------ #
    # Writers: one per fact
    # ------------------------------------------------------------------ #
    def issued(self, requester: str, pulls: int, remote: int, follow_up: bool, shipped: int) -> None:
        """One wave of ``pulls`` pulls issued, ``remote`` of them to another
        machine, each shipping a ``shipped``-byte payload (0: none).  Only
        the remote requests that ship one are charged."""
        with self._lock:
            self._totals.pulls_issued += pulls
            if follow_up:
                self._totals.hedges_issued += pulls
            if shipped:
                charge = self._charges[requester]
                charge.messages += remote
                charge.nbytes += remote * shipped

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
        """A quorum closed, charged ``elapsed`` simulated seconds; its selected
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

    def coordinated(self, requester: str, frames: int, nbytes: int, latency: float, elapsed: float) -> None:
        """One shard-coordination hop: ``frames`` parallel frames of ``nbytes``.

        Each frame is sent like a served reply after ``latency``; the hop is
        one quorum of them for ``requester``, charged ``elapsed``.
        """
        for _ in range(frames):
            self.served("shard-coordination", nbytes, latency, follow_up=False)
        self.closed(requester, frames, elapsed, frames * nbytes)

    # ------------------------------------------------------------------ #
    # The round
    # ------------------------------------------------------------------ #
    def open_round(self) -> None:
        """Start a round: every requester's charge and the round's quorums start again."""
        with self._lock:
            self._charges.clear()
            if self.quorums is not None:
                self.quorums = []
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

    def round_nbytes(self) -> int:
        """Every byte charged since :meth:`open_round`, to any requester, each
        retry once: the round's load on the shared fabric."""
        with self._lock:
            return sum(charge.nbytes for charge in self._charges.values()) + self._round_retry_nbytes
