"""Analytic per-iteration latency / throughput model.

The paper's throughput evaluation (Figures 6–10 and the appendix figures)
covers models up to VGG (129M parameters) and clusters of up to 24 machines —
well beyond what the in-process training simulation can execute directly.
Those results, however, are fully determined by four ingredients the paper
itself identifies: gradient-computation time, the number and size of messages
each deployment exchanges per round, serialization overhead, and robust-
aggregation time.  ``ThroughputModel`` composes those ingredients (using
:mod:`repro.network.cost`) into a per-iteration latency breakdown for every
deployment, from which the benchmark harness regenerates each figure.

The communication term models one training round as a sequence of phases
(model broadcast, gradient collection, inter-server model exchange); each
phase costs the transfer time of its busiest endpoint plus the serialization
work that endpoint performs, and a shared-fabric term proportional to the
total number of bytes crossing the network accounts for the congestion that
makes all-to-all (decentralized) deployments scale quadratically (Figure 9a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.aggregators.base import GAR, init as init_gar
from repro.exceptions import ConfigurationError
from repro.network.cost import (
    DEVICES,
    FRAMEWORKS,
    CostModel,
    NetworkParameters,
)
from repro.network.topology import DEPLOYMENTS
from repro.nn.models import PAPER_MODEL_DIMENSIONS, model_compute_intensity, model_dimension

#: Capacity of the shared switching fabric relative to one endpoint link, for
#: the star-shaped parameter-server traffic patterns.
FABRIC_CAPACITY_FACTOR = 16.0
#: Effective fabric capacity for the decentralized all-to-all pattern: incast
#: congestion (every node simultaneously receives from every other node) makes
#: all-to-all exchanges use the switch far less efficiently than star-shaped
#: ones, which is what prevents peer-to-peer deployments from scaling
#: (Figures 8 and 9 of the paper).
P2P_FABRIC_CAPACITY_FACTOR = 4.0
#: Extra transfer inefficiency of AggregaThor's non-parallelized RPC layer.
AGGREGATHOR_TRANSFER_FACTOR = 1.15

#: The paper's two testbeds, as ``ThroughputModel`` keyword arguments: the
#: CPU cluster runs TensorFlow, the GPU cluster PyTorch.  ``repro throughput``
#: and the figure benchmarks unpack one and override what they sweep.
PAPER_TESTBEDS: Dict[str, Dict[str, Any]] = {
    "cpu": dict(device="cpu", framework="tensorflow", num_workers=18, num_byzantine_workers=3,
                num_servers=6, num_byzantine_servers=1),
    "gpu": dict(device="gpu", framework="pytorch", num_workers=10, num_byzantine_workers=3,
                num_servers=3, num_byzantine_servers=1),
}
_CPU_TESTBED = PAPER_TESTBEDS["cpu"]


@dataclass
class IterationBreakdown:
    """Latency of one training iteration split by phase (Figure 7 / 16)."""

    deployment: str
    computation: float
    communication: float
    aggregation: float

    @property
    def total(self) -> float:
        return self.computation + self.communication + self.aggregation

    @property
    def throughput_updates_per_s(self) -> float:
        return 1.0 / self.total if self.total > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "computation": self.computation,
            "communication": self.communication,
            "aggregation": self.aggregation,
            "total": self.total,
        }


class ThroughputModel:
    """Computes iteration latency breakdowns for every deployment of the paper."""

    def __init__(
        self,
        model: str = "resnet50",
        dimension: Optional[int] = None,
        batch_size: int = 32,
        num_workers: int = _CPU_TESTBED["num_workers"],
        num_byzantine_workers: int = _CPU_TESTBED["num_byzantine_workers"],
        num_servers: int = _CPU_TESTBED["num_servers"],
        num_byzantine_servers: int = _CPU_TESTBED["num_byzantine_servers"],
        device: str = _CPU_TESTBED["device"],
        framework: str = _CPU_TESTBED["framework"],
        gradient_gar: str = "multi-krum",
        model_gar: str = "median",
        contract_steps: int = 0,
        asynchronous: bool = False,
        network: Optional[NetworkParameters] = None,
    ) -> None:
        if device not in DEVICES:
            raise ConfigurationError(f"unknown device '{device}'")
        if framework not in FRAMEWORKS:
            raise ConfigurationError(f"unknown framework '{framework}'")
        self.model = model
        self.dimension = dimension if dimension is not None else model_dimension(model)
        self.flops_per_parameter = model_compute_intensity(model)
        self.batch_size = batch_size
        self.num_workers = num_workers
        self.num_byzantine_workers = num_byzantine_workers
        self.num_servers = num_servers
        self.num_byzantine_servers = num_byzantine_servers
        self.device = DEVICES[device]
        self.framework = FRAMEWORKS[framework]
        self.gradient_gar_name = gradient_gar
        self.model_gar_name = model_gar
        self.contract_steps = contract_steps
        self.asynchronous = asynchronous
        self.network = network or NetworkParameters()
        self.cost = CostModel(device=self.device, network=self.network, framework=self.framework)

    # ------------------------------------------------------------------ #
    # GAR construction helpers
    # ------------------------------------------------------------------ #
    def _gradient_gar(self, deployment: str) -> GAR:
        if deployment in ("vanilla", "crash-tolerant"):
            return init_gar("average", n=self.num_workers, f=0)
        if deployment == "decentralized" or (deployment == "msmw" and self.asynchronous):
            quorum = self.num_workers - self.num_byzantine_workers
        else:
            quorum = self.num_workers
        # The analytic model only needs the GAR for its cost estimate; clamp the
        # input count to the rule's minimum so undersized what-if sweeps (e.g.
        # Figure 10's f sweeps) still produce a breakdown instead of failing.
        from repro.aggregators.base import GAR_REGISTRY

        key = self.gradient_gar_name.lower().replace("_", "-")
        minimum = GAR_REGISTRY[key].minimum_inputs(self.num_byzantine_workers)
        return init_gar(self.gradient_gar_name, n=max(quorum, minimum, 1), f=self.num_byzantine_workers)

    def _model_gar(self, deployment: str) -> Optional[GAR]:
        from repro.aggregators.base import GAR_REGISTRY

        key = self.model_gar_name.lower().replace("_", "-")
        if deployment == "msmw":
            minimum = GAR_REGISTRY[key].minimum_inputs(self.num_byzantine_servers)
            return init_gar(
                self.model_gar_name, n=max(self.num_servers, minimum), f=self.num_byzantine_servers
            )
        if deployment == "decentralized":
            minimum = GAR_REGISTRY[key].minimum_inputs(self.num_byzantine_workers)
            n = max(2, self.num_workers - self.num_byzantine_workers, minimum)
            return init_gar(self.model_gar_name, n=n, f=self.num_byzantine_workers)
        return None

    # ------------------------------------------------------------------ #
    # Communication model
    # ------------------------------------------------------------------ #
    def _phase_time(self, endpoint_messages: int, serialized_messages: int, vanilla: bool, on_gpu: bool) -> float:
        """Cost of one phase: busiest endpoint transfer + its serialization work."""
        transfer = self.cost.transfer_time(self.dimension, endpoint_messages, vanilla=vanilla, on_gpu=on_gpu)
        serialization = self.cost.serialization_time(self.dimension, serialized_messages, vanilla=vanilla)
        return transfer + serialization

    def _fabric_time(self, total_messages: int, vanilla: bool, all_to_all: bool = False) -> float:
        """Congestion of the shared fabric, proportional to total bytes in flight."""
        capacity = P2P_FABRIC_CAPACITY_FACTOR if all_to_all else FABRIC_CAPACITY_FACTOR
        bandwidth = self.network.bandwidth_bytes_per_s * capacity
        if vanilla:
            bandwidth *= self.network.vanilla_efficiency
        return total_messages * self.cost.message_bytes(self.dimension) / bandwidth

    def communication_time(self, deployment: str) -> float:
        """Per-iteration communication latency of the given deployment."""
        deployment = deployment.lower()
        if deployment not in DEPLOYMENTS:
            raise ConfigurationError(f"unknown deployment '{deployment}'; choose from {DEPLOYMENTS}")
        nw, nps = self.num_workers, self.num_servers
        on_gpu = self.device.name == "gpu"
        vanilla = deployment == "vanilla"

        if deployment in ("vanilla", "aggregathor", "ssmw"):
            # One server broadcasts the model to nw workers then collects nw gradients.
            broadcast = self._phase_time(nw, 0 if vanilla else nw, vanilla, on_gpu)
            collect = self._phase_time(nw, 0 if vanilla else 1, vanilla, on_gpu)
            fabric = self._fabric_time(2 * nw, vanilla)
            total = broadcast + collect + fabric
            if deployment == "aggregathor":
                total *= AGGREGATHOR_TRANSFER_FACTOR
            return total

        if deployment == "crash-tolerant":
            # Only the primary broadcasts the model, but every replica collects
            # every worker's gradient, so each worker serializes and sends nps copies.
            broadcast = self._phase_time(nw, nw, False, on_gpu)
            collect = self._phase_time(max(nw, nps), nps, False, on_gpu)
            fabric = self._fabric_time(nw + nw * nps, False)
            return broadcast + collect + fabric

        if deployment == "msmw":
            # Every replica broadcasts to and collects from every worker, then
            # the replicas exchange models among themselves.
            broadcast = self._phase_time(nw, nw, False, on_gpu)
            collect = self._phase_time(max(nw, nps), nps, False, on_gpu)
            exchange = self._phase_time(2 * (nps - 1), nps - 1, False, on_gpu)
            fabric = self._fabric_time(2 * nw * nps + nps * (nps - 1), False)
            return broadcast + collect + exchange + fabric

        # Decentralized: all-to-all gradient, model and contract-round exchanges.
        # Every node both issues and serves (n-1) transfers per round, so it
        # serializes/deserializes in both directions, and the simultaneous
        # all-to-all traffic congests the fabric (incast).
        n = nw
        rounds = 2 + max(self.contract_steps, 0)
        per_node = rounds * 2 * (n - 1)
        exchange = self._phase_time(per_node, rounds * 2 * (n - 1), False, on_gpu)
        fabric = self._fabric_time(rounds * n * (n - 1), False, all_to_all=True)
        return exchange + fabric

    # ------------------------------------------------------------------ #
    def aggregation_time(self, deployment: str) -> float:
        """Robust-aggregation time per iteration on the reporting node."""
        deployment = deployment.lower()
        gradient_gar = self._gradient_gar(deployment)
        total = self.cost.aggregation_time(gradient_gar, self.dimension)
        model_gar = self._model_gar(deployment)
        if model_gar is not None:
            total += self.cost.aggregation_time(model_gar, self.dimension)
        if deployment == "decentralized":
            total += max(self.contract_steps, 0) * self.cost.aggregation_time(gradient_gar, self.dimension)
        if deployment == "crash-tolerant":
            # Replicas average the collected models implicitly via averaging of
            # gradients only; no extra robust aggregation.
            pass
        if self.framework.pipelines_aggregation and deployment not in ("vanilla",):
            # Garfield on PyTorch overlaps per-layer aggregation with communication.
            total *= 0.5
        return total

    def computation_time(self) -> float:
        return self.cost.compute_time(self.dimension, self.batch_size, self.flops_per_parameter)

    # ------------------------------------------------------------------ #
    def breakdown(self, deployment: str) -> IterationBreakdown:
        """Full latency breakdown of one training iteration."""
        return IterationBreakdown(
            deployment=deployment,
            computation=self.computation_time(),
            communication=self.communication_time(deployment),
            aggregation=self.aggregation_time(deployment),
        )

    def slowdown(self, deployment: str, baseline: str = "vanilla") -> float:
        """Iteration-latency ratio of ``deployment`` over ``baseline`` (Figure 6)."""
        return self.breakdown(deployment).total / self.breakdown(baseline).total

    def throughput_batches_per_s(self, deployment: str) -> float:
        """Throughput in batches/second (Figure 8): nw batches are processed per update."""
        return self.num_workers / self.breakdown(deployment).total


def iteration_breakdown(deployment: str, **kwargs) -> IterationBreakdown:
    """Convenience wrapper: one-call breakdown for a deployment."""
    return ThroughputModel(**kwargs).breakdown(deployment)


def paper_models() -> Dict[str, int]:
    """The Table 1 model dimensions, keyed by paper name."""
    return dict(PAPER_MODEL_DIMENSIONS)
