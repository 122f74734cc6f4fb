"""Base class shared by servers and workers."""

from __future__ import annotations

import pickle
from typing import Optional

from repro.network.cost import CPU, CostModel, Device, TENSORFLOW, FrameworkProfile
from repro.network.transport import Transport
from repro.nn.layers import Module
from repro.nn.parameters import FlatParameterView, attach_flat_view

#: Attributes never included in a state snapshot: the transport (and the
#: serve lock guarding it) hold OS resources — locks, sockets, pool threads —
#: owned by whichever process hosts the node.
_SNAPSHOT_EXCLUDE = ("transport", "_serve_lock")


class Node:
    """A participant in the cluster, attached to the shared transport.

    Every node has an identifier, a device (CPU or GPU), a cost model used
    to account the simulated time of its local computations, and — set by the
    ``Server`` / ``Worker`` subclass — the ``model`` replica it owns.
    """

    model: Module

    def __init__(
        self,
        node_id: str,
        transport: Transport,
        device: Device = CPU,
        framework: FrameworkProfile = TENSORFLOW,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.node_id = node_id
        self.transport = transport
        self.device = device
        self.framework = framework
        self.cost_model = cost_model or CostModel(device=device, framework=framework)
        transport.register_node(node_id, self)

    # ------------------------------------------------------------------ #
    # State snapshots — the process backend's crash/recover continuity
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> bytes:
        """Serialize every attribute that defines this node's behaviour.

        Taken by the process backend right before it SIGKILLs a node host
        (scenario ``crash``) and restored into the respawned host on
        ``recover``, so a recovered node continues exactly where it stopped —
        mini-batch cursor, momentum velocity, gradient cache, attack RNG —
        matching the in-process backends' logical crash bit for bit.
        """
        state = {
            key: value
            for key, value in self.__dict__.items()
            if key not in _SNAPSHOT_EXCLUDE
        }
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    def restore_state(self, blob: bytes) -> None:
        """Apply a :meth:`snapshot_state` blob onto this (freshly built) node."""
        self.__dict__.update(pickle.loads(blob))
        # Numpy views pickle as independent copies, so the restored model's
        # parameters no longer alias one buffer: re-attach now, on the
        # restoring thread, before a handler thread can serve from it.
        self.flat_view()

    # ------------------------------------------------------------------ #
    def flat_view(self) -> FlatParameterView:
        """The flat buffer that *is* this node's model state (see ``nn.parameters``).

        Every vector read, write and gradient served goes through this one
        accessor; it re-attaches if anything severed the aliasing.
        """
        return attach_flat_view(self.model.parameters())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(id={self.node_id!r}, device={self.device.name})"
