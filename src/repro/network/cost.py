"""Analytic per-iteration cost model (compute, serialization, network, aggregation).

The paper's throughput results (Figures 6–10 and the appendix) are driven by
four quantities: the gradient-computation time on each worker, the number and
size of messages a deployment exchanges per round, the serialization overhead
of leaving the framework runtime (large for the TensorFlow/gRPC path, absent
for vanilla deployments), and the robust-aggregation time.  This module
models each of those components with calibrated constants so the benchmark
harness can regenerate the paper's figures.  The network is one rule,
:class:`NetworkPrice`: the transport charges every closed quorum by it, and
the analytic model prices a replayed round by it.  Absolute values are not expected
to match the Grid5000 testbed; the relative ordering and crossovers are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class Device:
    """A compute device profile (Section 4: full-stack CPU and GPU support).

    ``flops_per_second`` is the effective training throughput (forward +
    backward), ``aggregation_elements_per_second`` the rate at which the
    device streams through GAR inner loops, and ``host_transfer_bytes_per_s``
    the device-to-host copy rate paid when an aggregated vector has to leave
    GPU memory (gRPC cannot ship GPU-resident tensors, Section 4.4).
    """

    name: str
    flops_per_second: float
    aggregation_elements_per_second: float
    host_transfer_bytes_per_s: float

    def __post_init__(self) -> None:
        if min(self.flops_per_second, self.aggregation_elements_per_second, self.host_transfer_bytes_per_s) <= 0:
            raise ConfigurationError("device rates must be positive")


#: Calibrated so that one training iteration of a ResNet-50-sized model with a
#: batch of 32 takes roughly 1.6 s on CPU (Figure 7) and roughly one order of
#: magnitude less on GPU (Section 1).
CPU = Device(
    name="cpu",
    flops_per_second=3.0e9,
    aggregation_elements_per_second=2.0e10,
    host_transfer_bytes_per_s=8.0e9,
)

GPU = Device(
    name="gpu",
    flops_per_second=3.0e10,
    aggregation_elements_per_second=1.0e11,
    host_transfer_bytes_per_s=1.2e10,
)

DEVICES = {"cpu": CPU, "gpu": GPU}


@dataclass(frozen=True)
class NetworkParameters:
    """Link and serialization parameters of the simulated testbed.

    The link (bandwidth and base latency) is declared here once: the
    simulated transport's :class:`~repro.network.transport.LinkModel` takes
    its base latency from it, and :meth:`CostModel.network_price` derives the
    deployment's one link speed from its bandwidth.
    """

    bandwidth_bytes_per_s: float = 1.25e9  # 10 Gbps Ethernet
    base_latency: float = 2.0e-4
    #: Rate of the protobuf-encode + memory-copy path taken by Garfield on
    #: TensorFlow (Section 4.1: "the overhead of these conversions ... is
    #: non-negligible").
    serialization_bandwidth_bytes_per_s: float = 1.0e9
    #: Fixed per-message cost of the TensorFlow-runtime <-> Python context switch.
    context_switch_overhead: float = 5.0e-4
    #: Effective bandwidth multiplier of the vanilla optimized runtimes
    #: (TensorFlow distributed runtime / PyTorch reduce() with nccl).
    vanilla_efficiency: float = 2.0
    #: Additional multiplier for GPU-to-GPU collectives (vanilla PyTorch on GPUs).
    gpu_direct_efficiency: float = 1.5

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("network parameters must be positive")


#: Capacity of the shared switching fabric relative to one endpoint link, for
#: the star-shaped parameter-server traffic patterns.
FABRIC_CAPACITY_FACTOR = 16.0
#: Effective fabric capacity for the decentralized all-to-all pattern: incast
#: congestion (every node simultaneously receives from every other node) makes
#: all-to-all exchanges use the switch far less efficiently than star-shaped
#: ones, which is what prevents peer-to-peer deployments from scaling
#: (Figures 8 and 9 of the paper).
P2P_FABRIC_CAPACITY_FACTOR = 4.0


@dataclass(frozen=True)
class NetworkPrice:
    """The one network price of a round: the runtime charges it, the figures replay it.

    A requester's link is a FIFO.  The replies a quorum selected cross it in
    order of arrival: the first finishes when it arrives, and reply ``k``
    at ``max(arrival_k, finish_(k-1) + bytes_k / bandwidth)``; the quorum
    costs the last finish, and nothing when none crossed.  The payloads its
    requests shipped go out first, as a broadcast prefix on the same link.
    Every byte a round charges also crosses the shared fabric
    (:meth:`fabric`).  ``transfer_factor`` scales both (a slower RPC layer).
    :meth:`CostModel.network_price` builds the rule for a deployment; a bare
    transport prices the raw link.
    """

    #: The requester's link, in bytes/s: the deployment's one link speed,
    #: which the transport also draws every reply's transfer at.
    bandwidth: float
    #: The shared fabric, in bytes/s.
    fabric_bandwidth: float = math.inf
    transfer_factor: float = 1.0

    def quorum(self, replies: Iterable[Tuple[float, int]], shipped_nbytes: int = 0) -> float:
        """Time until the last of ``replies`` — ``(arrival, nbytes)`` pairs —
        has crossed the link, after ``shipped_nbytes`` of request payloads."""
        finish = shipped_nbytes / self.bandwidth if shipped_nbytes else -math.inf
        for arrival, nbytes in sorted(replies):
            finish = max(arrival, finish + nbytes / self.bandwidth)
        return self.transfer_factor * max(finish, 0.0)

    def fabric(self, nbytes: int) -> float:
        """Time the shared fabric takes to carry a round's ``nbytes``."""
        return self.transfer_factor * nbytes / self.fabric_bandwidth


@dataclass(frozen=True)
class FrameworkProfile:
    """How a framework's communication stack behaves.

    ``pays_serialization`` — Garfield-on-TensorFlow serializes every tensor to
    protocol buffers, leaving the runtime (a context switch per message).
    ``pipelines_aggregation`` — Garfield-on-PyTorch overlaps communication
    with per-layer aggregation (Section 4.2), hiding part of the aggregation
    time behind transfers.
    ``gpu_collectives`` — the vanilla PyTorch baseline uses nccl/gloo
    GPU-to-GPU collectives, which Garfield's RPC path cannot.
    """

    name: str
    pays_serialization: bool
    pipelines_aggregation: bool
    gpu_collectives: bool


TENSORFLOW = FrameworkProfile(
    name="tensorflow", pays_serialization=True, pipelines_aggregation=False, gpu_collectives=False
)
PYTORCH = FrameworkProfile(
    name="pytorch", pays_serialization=False, pipelines_aggregation=True, gpu_collectives=True
)

FRAMEWORKS = {"tensorflow": TENSORFLOW, "pytorch": PYTORCH}

class CostModel:
    """Computes the four per-iteration time components of a deployment."""

    def __init__(
        self,
        device: Device = CPU,
        network: NetworkParameters | None = None,
        framework: FrameworkProfile = TENSORFLOW,
    ) -> None:
        self.device = device
        self.network = network or NetworkParameters()
        self.framework = framework

    # ------------------------------------------------------------------ #
    def compute_time(self, dimension: int, batch_size: int, flops_per_parameter: float) -> float:
        """Gradient-estimation time for one worker on one mini-batch.

        ``flops_per_parameter`` is the model's compute intensity (forward +
        backward FLOPs per parameter per example):
        :func:`repro.nn.models.model_compute_intensity`, the one source the
        round accountant and the analytic model both read.
        """
        if dimension <= 0 or batch_size <= 0:
            raise ConfigurationError("dimension and batch_size must be positive")
        if flops_per_parameter <= 0:
            raise ConfigurationError("flops_per_parameter must be positive")
        flops = flops_per_parameter * dimension * batch_size
        return flops / self.device.flops_per_second

    def serialization_time(self, total_bytes: int, num_messages: int, vanilla: bool = False) -> float:
        """Serialization + context-switch time for ``num_messages`` messages of
        ``total_bytes`` bytes in all.

        Vanilla deployments never leave their optimized runtime, so they pay
        nothing; Garfield on PyTorch operates on tensors directly (no context
        switch) but still copies; Garfield on TensorFlow pays both.
        """
        if vanilla or num_messages == 0:
            return 0.0
        copy_time = total_bytes / self.network.serialization_bandwidth_bytes_per_s
        if self.framework.pays_serialization:
            return num_messages * self.network.context_switch_overhead + copy_time
        return 0.25 * copy_time

    def network_price(self, shape) -> "NetworkPrice":
        """The one network rule for a deployment of ``shape`` (a
        :class:`~repro.core.cluster.DeploymentShape`) on this testbed.

        The vanilla runtimes (``shape.native``) move bytes
        ``vanilla_efficiency`` times faster, on the link and through the
        fabric; PyTorch on GPUs adds the nccl/gloo GPU-to-GPU collectives
        (``gpu_direct_efficiency``, Section 4.2) on the link.  The fabric
        is shared by every machine: all-to-all (``per-worker``) traffic uses
        it far less efficiently than star-shaped traffic.
        """
        network = self.network
        efficiency = network.vanilla_efficiency if shape.native else 1.0
        link = network.bandwidth_bytes_per_s * efficiency
        if self.device.name == "gpu" and self.framework.gpu_collectives:
            link *= network.gpu_direct_efficiency
        capacity = P2P_FABRIC_CAPACITY_FACTOR if shape.servers == "per-worker" else FABRIC_CAPACITY_FACTOR
        return NetworkPrice(link, network.bandwidth_bytes_per_s * capacity * efficiency, shape.transfer_factor)

    def communication_time(self, price: "NetworkPrice", charge, fabric_nbytes: int, native: bool) -> float:
        """One requester's communication time in a round.

        ``charge`` is its :class:`~repro.network.ledger.Charge`: the time
        ``price`` charged its link, and its messages and their bytes, which
        it serializes (nothing where ``native``).  ``fabric_nbytes`` is every
        byte the round charged, to any requester: the shared fabric's load.
        The round accountant prices a run's round with it, and
        :class:`~repro.apps.throughput.ThroughputModel` a replayed round
        re-priced at the paper's ``d``.
        """
        serialization = self.serialization_time(charge.nbytes, charge.messages, vanilla=native)
        return charge.elapsed + price.fabric(fabric_nbytes) + serialization

    def aggregation_time(self, gar, dimension: int, native: bool = False) -> float:
        """Robust-aggregation time on this device, including the result copy-out.

        Garfield on PyTorch overlaps per-layer aggregation with communication
        (``pipelines_aggregation``), hiding half of it; a ``native`` runtime
        (vanilla's ``reduce()``) does not pipeline.
        """
        if gar is None:
            return 0.0
        flops = gar.flops(dimension)
        copy_out = dimension * 8 / self.device.host_transfer_bytes_per_s
        hidden = 0.5 if self.framework.pipelines_aggregation and not native else 1.0
        return hidden * (flops / self.device.aggregation_elements_per_second + copy_out)

    #: Detector passes over the round matrix (robust centre, deviations,
    #: per-row reduction) — a small constant number of streaming sweeps.
    DETECTION_PASSES = 3.0

    def detection_time(self, dimension: int, num_scored: int) -> float:
        """Suspicion-scoring time for one round over ``num_scored`` rows.

        Detection streams the same ``(q, d)`` matrix the GAR consumed a few
        more times (centre, deviation, per-row statistics), so its cost is a
        small multiple of an average-style pass — O(q x d), *not* O(q^2 d).
        Charged per round only when a detector is attached, and it shrinks
        with the quorum: evicting workers makes detection itself cheaper too.
        """
        if num_scored <= 0:
            return 0.0
        if dimension <= 0:
            raise ConfigurationError("dimension must be positive")
        elements = self.DETECTION_PASSES * num_scored * dimension
        return elements / self.device.aggregation_elements_per_second
