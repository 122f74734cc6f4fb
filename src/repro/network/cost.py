"""Analytic per-iteration cost model (compute, serialization, transfer, aggregation).

The paper's throughput results (Figures 6–10 and the appendix) are driven by
four quantities: the gradient-computation time on each worker, the number and
size of messages a deployment exchanges per round, the serialization overhead
of leaving the framework runtime (large for the TensorFlow/gRPC path, absent
for vanilla deployments), and the robust-aggregation time.  This module
models each of those components with calibrated constants so the benchmark
harness can regenerate the paper's figures.  Absolute values are not expected
to match the Grid5000 testbed; the relative ordering and crossovers are.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.network.serialization import message_nbytes


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

    The link (bandwidth and base latency) is declared here once; the
    simulated transport's :class:`~repro.network.transport.LinkModel` takes
    its defaults from it.
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

#: Approximate FLOPs per parameter per example for one forward+backward pass.
FLOPS_PER_PARAM_PER_EXAMPLE = 6.0


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
    def compute_time(
        self, dimension: int, batch_size: int, flops_per_parameter: float | None = None
    ) -> float:
        """Gradient-estimation time for one worker on one mini-batch.

        ``flops_per_parameter`` is the model's compute intensity (forward +
        backward FLOPs per parameter per example); it defaults to the generic
        :data:`FLOPS_PER_PARAM_PER_EXAMPLE` when the caller does not know the
        architecture (see :func:`repro.nn.models.model_compute_intensity`).
        """
        if dimension <= 0 or batch_size <= 0:
            raise ConfigurationError("dimension and batch_size must be positive")
        intensity = FLOPS_PER_PARAM_PER_EXAMPLE if flops_per_parameter is None else flops_per_parameter
        if intensity <= 0:
            raise ConfigurationError("flops_per_parameter must be positive")
        flops = intensity * dimension * batch_size
        return flops / self.device.flops_per_second

    def message_bytes(self, dimension: int) -> int:
        """Size of one model- or gradient-sized message:
        :func:`~repro.network.serialization.message_nbytes`, the one byte
        count the transport charges and the ledger folds."""
        return message_nbytes(dimension)

    def serialization_time(self, dimension: int, num_messages: int, vanilla: bool = False) -> float:
        """Total serialization + context-switch time for ``num_messages`` tensors.

        Vanilla deployments never leave their optimized runtime, so they pay
        nothing; Garfield on PyTorch operates on tensors directly (no context
        switch) but still copies; Garfield on TensorFlow pays both.
        """
        return self.serialization_time_for_bytes(
            num_messages * self.message_bytes(dimension), num_messages, vanilla=vanilla
        )

    def serialization_time_for_bytes(
        self, total_bytes: int, num_messages: int, vanilla: bool = False
    ) -> float:
        """Serialization + context-switch time for an explicit byte total.

        The general form of :meth:`serialization_time` (which delegates here
        with ``num_messages x message_bytes``, float-identically): the round
        accountant passes the ledger's byte total for a round, slices and
        coordination frames included.
        """
        if vanilla or num_messages == 0:
            return 0.0
        copy_time = total_bytes / self.network.serialization_bandwidth_bytes_per_s
        if self.framework.pays_serialization:
            return num_messages * self.network.context_switch_overhead + copy_time
        return 0.25 * copy_time

    def transfer_time(self, dimension: int, num_messages: int, vanilla: bool = False, on_gpu: bool = False) -> float:
        """Time to push ``num_messages`` model-sized messages through one NIC.

        The bottleneck in the parameter-server architectures is the most
        loaded endpoint's NIC, so messages through it serialize on bandwidth
        even though the RPCs themselves are parallelized.
        """
        if num_messages == 0:
            return 0.0
        bandwidth = self.network.bandwidth_bytes_per_s
        if vanilla:
            bandwidth *= self.network.vanilla_efficiency
        if on_gpu and self.framework.gpu_collectives:
            # PyTorch deployments (vanilla and Garfield alike) can use the
            # nccl/gloo GPU-to-GPU backends (Section 4.2).
            bandwidth *= self.network.gpu_direct_efficiency
        total_bytes = num_messages * self.message_bytes(dimension)
        return total_bytes / bandwidth + num_messages * self.network.base_latency

    def aggregation_time(self, gar, dimension: int) -> float:
        """Robust-aggregation time on this device, including the result copy-out."""
        if gar is None:
            return 0.0
        flops = gar.flops(dimension)
        copy_out = dimension * 8 / self.device.host_transfer_bytes_per_s
        return flops / self.device.aggregation_elements_per_second + copy_out

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
