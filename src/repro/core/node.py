"""Base class shared by servers and workers.

A node is its ``__dict__`` plus the two things only the hosting process can
give it: the transport it is attached to and the lock its handlers serve
under.  :meth:`Node.snapshot_state` pickles the former, :meth:`Node.attach`
supplies the latter, and :meth:`Node.from_snapshot` composes them — which is
the single way a node crosses the process boundary: a node host is handed the
coordinator's node at spawn, and the crash-time snapshot at recover.
"""

from __future__ import annotations

import pickle
import threading
from typing import Dict

from repro.network.transport import Handler, Transport
from repro.nn.layers import Module
from repro.nn.parameters import FlatParameterView, attach_flat_view

#: Attributes never included in a state snapshot: the transport (and the
#: serve lock guarding it) hold OS resources — locks, sockets, pool threads —
#: owned by whichever process hosts the node.  :meth:`Node.attach` sets both.
_SNAPSHOT_EXCLUDE = ("transport", "_serve_lock")


class Node:
    """A participant in the cluster, attached to the shared transport.

    Every node has an identifier and — set by the ``Server`` / ``Worker``
    subclass — the ``model`` replica it owns.  What a round costs is the
    deployment's ``RoundAccountant``'s to say, not the node's.
    """

    model: Module

    def __init__(self, node_id: str, transport: Transport) -> None:
        self.node_id = node_id
        self.attach(transport)

    # ------------------------------------------------------------------ #
    # Attachment — what a process gives the node it hosts
    # ------------------------------------------------------------------ #
    def handlers(self) -> Dict[str, Handler]:
        """RPC kind -> bound method: what this node serves to its peers."""
        return {}

    def attach(self, transport: Transport) -> None:
        """Join ``transport``: register this node and everything it serves.

        Handlers may be dispatched from executor pool threads (one task per
        destination of a fan-out).  A single fan-out never targets the same
        node twice, but concurrent fan-outs from several server replicas can;
        ``_serve_lock`` keeps the stateful handlers — a worker's mini-batch
        cursor and gradient cache, a Byzantine node's attack RNG — consistent
        in that case.  Re-entrant, so a Byzantine subclass can hold it across
        the honest computation plus its own post-processing.
        """
        self.transport = transport
        self._serve_lock = threading.RLock()
        transport.register_node(self.node_id, self)
        for kind, handler in self.handlers().items():
            transport.register_handler(self.node_id, kind, handler)

    # ------------------------------------------------------------------ #
    # State snapshots — how a node reaches, and returns to, a node host
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> bytes:
        """Serialize this node's type and every attribute defining its behaviour.

        Taken by the process backend of the coordinator's node when it spawns
        the host, and of the host's node right before a scenario ``crash``
        SIGKILLs it (and at every supervisor checkpoint); the respawned host
        is handed the newest one, so a recovered node continues exactly where
        it stopped — mini-batch cursor, momentum velocity, gradient cache,
        attack RNG — matching the in-process backends' logical crash bit for
        bit.
        """
        state = {
            key: value
            for key, value in self.__dict__.items()
            if key not in _SNAPSHOT_EXCLUDE
        }
        return pickle.dumps((type(self), state), protocol=pickle.HIGHEST_PROTOCOL)

    def _load(self, state: dict) -> None:
        self.__dict__.update(state)
        # Numpy views pickle as independent copies, so the restored model's
        # parameters no longer alias one buffer: re-attach now, on the
        # restoring thread, before a handler thread can serve from it.
        self.flat_view()

    def restore_state(self, blob: bytes) -> None:
        """Apply a :meth:`snapshot_state` blob onto this (already attached) node."""
        self._load(pickle.loads(blob)[1])

    @staticmethod
    def from_snapshot(blob: bytes, transport: Transport) -> "Node":
        """The node a :meth:`snapshot_state` blob describes, attached to ``transport``."""
        node_type, state = pickle.loads(blob)
        node = object.__new__(node_type)
        node._load(state)
        node.attach(transport)
        return node

    # ------------------------------------------------------------------ #
    def flat_view(self) -> FlatParameterView:
        """The flat buffer that *is* this node's model state (see ``nn.parameters``).

        Every vector read, write and gradient served goes through this one
        accessor; it re-attaches if anything severed the aliasing.
        """
        return attach_flat_view(self.model.parameters())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(id={self.node_id!r})"
