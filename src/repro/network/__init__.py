"""Simulated networking substrate.

The original Garfield communicates over gRPC (TensorFlow) or the PyTorch
distributed collectives, deployed on a Grid5000 cluster.  Neither a cluster
nor those frameworks are available here, so this subpackage provides a
faithful in-process substitute:

* :mod:`repro.network.serialization` — tensor <-> bytes conversion with the
  same context-switch overhead structure the paper describes for TensorFlow.
* :mod:`repro.network.transport` — pull-based point-to-point message passing
  with per-link latency / bandwidth models and crash / straggler injection;
  ``pull_many`` implements the "fastest q of n" semantics that
  ``get_gradients`` / ``get_models`` need.
* :mod:`repro.network.cost` — the analytic per-iteration cost model (compute,
  serialization, transfer, aggregation) used to reproduce the paper's
  throughput figures, with a CPU/GPU device abstraction.
"""

from repro.network.message import Message, Reply
from repro.network.serialization import (
    deserialize_vector,
    message_nbytes,
    serialize_vector,
    serialize_vector_parts,
    serialized_nbytes,
)
from repro.network.transport import LinkModel, RoundBuffer, Transport, TransportStats
from repro.network.failures import FailureInjector
from repro.network.cost import (
    CPU,
    DEVICES,
    FRAMEWORKS,
    GPU,
    PYTORCH,
    TENSORFLOW,
    CostModel,
    Device,
    FrameworkProfile,
    NetworkParameters,
)

__all__ = [
    "Message",
    "Reply",
    "serialize_vector",
    "serialize_vector_parts",
    "deserialize_vector",
    "serialized_nbytes",
    "message_nbytes",
    "LinkModel",
    "RoundBuffer",
    "Transport",
    "TransportStats",
    "FailureInjector",
    "Device",
    "CPU",
    "GPU",
    "DEVICES",
    "NetworkParameters",
    "CostModel",
    "FrameworkProfile",
    "TENSORFLOW",
    "PYTORCH",
    "FRAMEWORKS",
]
