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

A deployment's messages are read off one round of its own strategy
(:func:`round_traffic`): the round is replayed at a small model and its
ledger's phases priced at the paper's ``d``.  Each phase costs the transfer
time of its busiest machine plus the serialization work of the machine that
sends the most, and a shared-fabric term proportional to the total number of
bytes crossing the network accounts for the congestion that makes all-to-all
(decentralized) deployments scale quadratically (Figure 9a).  Every
deployment is priced on the validated config
:meth:`~repro.core.cluster.ClusterConfig.fitted` builds for it, with the GARs
the runtime builds (:meth:`~repro.core.cluster.ClusterConfig.build_gars`): a
cluster the runtime refuses is refused here too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.core.cluster import ClusterConfig
from repro.core.session import RoundStrategy, Session, strategy_class
from repro.network.cost import (
    DEVICES,
    FRAMEWORKS,
    CostModel,
    NetworkParameters,
)
from repro.nn.models import model_compute_intensity, model_dimension

#: Capacity of the shared switching fabric relative to one endpoint link, for
#: the star-shaped parameter-server traffic patterns.
FABRIC_CAPACITY_FACTOR = 16.0
#: Effective fabric capacity for the decentralized all-to-all pattern: incast
#: congestion (every node simultaneously receives from every other node) makes
#: all-to-all exchanges use the switch far less efficiently than star-shaped
#: ones, which is what prevents peer-to-peer deployments from scaling
#: (Figures 8 and 9 of the paper).
P2P_FABRIC_CAPACITY_FACTOR = 4.0

#: The paper's two testbeds, as ``ClusterConfig`` fields: the CPU cluster runs
#: TensorFlow, the GPU cluster PyTorch, and their server counts are Garfield's
#: (msmw's) replicas.  ``repro throughput`` and the figure benchmarks unpack
#: one and override what they sweep.
PAPER_TESTBEDS: Dict[str, Dict[str, Any]] = {
    "cpu": dict(deployment="msmw", device="cpu", framework="tensorflow", num_workers=18, num_byzantine_workers=3,
                num_servers=6, num_byzantine_servers=1, batch_size=32, gradient_gar="multi-krum", model_gar="median"),
    "gpu": dict(deployment="msmw", device="gpu", framework="pytorch", num_workers=10, num_byzantine_workers=3,
                num_servers=3, num_byzantine_servers=1, batch_size=32, gradient_gar="multi-krum", model_gar="median"),
}


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

    def as_dict(self) -> Dict[str, float]:
        return {
            "computation": self.computation,
            "communication": self.communication,
            "aggregation": self.aggregation,
            "total": self.total,
        }


class ThroughputModel:
    """Computes iteration latency breakdowns for every deployment of one cluster.

    ``config`` gives the cluster: n and f of both tiers, the GARs, device,
    framework, batch size, ``asynchronous`` and the contract steps.  Each
    deployment is priced on :meth:`ClusterConfig.fitted` of that cluster, so
    a deployment whose rules the cluster does not meet raises validate's
    :class:`~repro.exceptions.ConfigurationError` instead of being priced.
    ``model`` (or an explicit ``dimension``) is the paper model whose size
    and compute intensity the round is priced at.
    """

    def __init__(
        self,
        config: ClusterConfig,
        model: str = "resnet50",
        dimension: Optional[int] = None,
        network: Optional[NetworkParameters] = None,
    ) -> None:
        self.config = config
        self.model = model
        self.dimension = dimension if dimension is not None else model_dimension(model)
        self.flops_per_parameter = model_compute_intensity(model)
        self.device = DEVICES[config.device]
        self.framework = FRAMEWORKS[config.framework]
        self.network = network or NetworkParameters()
        self.cost = CostModel(device=self.device, network=self.network, framework=self.framework)

    def fitted(self, deployment: str) -> ClusterConfig:
        """The validated config ``deployment`` runs on this cluster."""
        cluster = self.config.to_dict()
        del cluster["deployment"]
        return ClusterConfig.fitted(deployment, **cluster)

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
        """Per-iteration communication latency of the given deployment: the
        phases of its replayed round plus the fabric term, scaled by its
        transfer factor."""
        config = self.fitted(deployment)
        shape = config.shape
        contract_steps = config.contract_steps if config.non_iid else 0
        traffic = round_traffic(deployment, config.num_workers, config.num_servers, contract_steps)
        on_gpu = self.device.name == "gpu"
        total = sum(self._phase_time(sent, serialized, shape.native, on_gpu) for sent, serialized in traffic.phases)
        total += self._fabric_time(traffic.fabric_messages, shape.native, all_to_all=shape.servers == "per-worker")
        return total * shape.transfer_factor

    # ------------------------------------------------------------------ #
    def aggregation_time(self, deployment: str) -> float:
        """Robust-aggregation time per iteration on the reporting node."""
        config = self.fitted(deployment)
        shape = config.shape
        gradient_gar, model_gar = config.build_gars()
        total = self.cost.aggregation_time(gradient_gar, self.dimension)
        if model_gar is not None:
            total += self.cost.aggregation_time(model_gar, self.dimension)
        if shape.contract and config.non_iid:
            total += config.contract_steps * self.cost.aggregation_time(gradient_gar, self.dimension)
        if self.framework.pipelines_aggregation and not shape.native:
            # Garfield on PyTorch overlaps per-layer aggregation with communication.
            total *= 0.5
        return total

    def computation_time(self) -> float:
        return self.cost.compute_time(self.dimension, self.config.batch_size, self.flops_per_parameter)

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
        return self.config.num_workers / self.breakdown(deployment).total


@dataclass(frozen=True)
class RoundTraffic:
    """One replayed round's network messages, as the analytic model prices them.

    ``messages`` are Figure 9's counts, as ``(name, count)`` pairs: the
    model-sized payloads requests ship, the gradient replies and every other
    reply (replica models, contract aggregates).  Each of ``phases`` is one network phase in round
    order, as ``(sent + received by the busiest machine, most sent by any
    machine)``; ``fabric_messages`` counts every message.
    """

    messages: Tuple[Tuple[str, int], ...]
    phases: Tuple[Tuple[int, int], ...]
    fabric_messages: int


def round_traffic(deployment: str, num_workers: int, num_servers: int = 1, contract_steps: int = 0) -> RoundTraffic:
    """The network messages of one round of ``deployment``'s own strategy.

    The round is replayed once per cluster size: serial, with the logistic
    model, plain averaging at f = 0 and no attacker.  Every pull goes to every
    active peer, so the counts depend on neither f nor the quorum.  Each
    ledger :class:`~repro.network.ledger.Phase` becomes two network phases
    when its requests ship a payload (broadcast, then collection) and one
    otherwise.  A pull between two nodes on one machine is no network
    message: in a per-worker layout ``server-k`` runs on ``worker-k``'s.
    """
    strategy = strategy_class(deployment)
    contract_steps = contract_steps if strategy.shape.contract else 0
    config = ClusterConfig.fitted(
        deployment, num_workers=num_workers, num_servers=num_servers, model="logistic",
        gradient_gar="average", model_gar="average", dataset_size=10 * num_workers, batch_size=1,
        num_iterations=1, non_iid=contract_steps > 0, contract_steps=contract_steps,
    )
    return _replay(strategy, config.to_json())


@lru_cache(maxsize=256)
def _replay(strategy: Type[RoundStrategy], config: str) -> RoundTraffic:
    # Keyed by the strategy class as well, so a name registered anew replays.
    return replay_round(ClusterConfig.from_json(config))


def replay_round(config: ClusterConfig) -> RoundTraffic:
    """Run the first round of ``config`` and fold its ledger's phases."""
    with Session(config=config) as session:
        ledger = session.deployment.transport.ledger
        ledger.phases = []
        session.step()
        phases = ledger.phases
    workers, servers = config.node_ids()
    machine = dict(zip(workers + servers, workers + (workers if config.shape.servers == "per-worker" else servers)))
    messages = dict.fromkeys(("model_messages", "gradient_messages", "server_model_messages"), 0)
    network: List[List[Tuple[str, str]]] = []
    for phase in phases:
        requests = [(machine[requester], machine[peer]) for requester, peers in phase.waves for peer in peers
                    if machine[requester] != machine[peer]]
        if phase.shipped:
            network.append(requests)
            messages["model_messages"] += len(requests)
        network.append([(destination, source) for source, destination in requests])
        messages["gradient_messages" if phase.kind == "gradient" else "server_model_messages"] += len(requests)
    priced = tuple(_busiest(sends) for sends in network if sends)
    return RoundTraffic(tuple(messages.items()), priced, sum(map(len, network)))


def _busiest(sends: List[Tuple[str, str]]) -> Tuple[int, int]:
    """``(sent + received by the busiest machine, most sent by any machine)``
    of one phase's ``(sender, receiver)`` messages."""
    sent, received = Counter(source for source, _ in sends), Counter(destination for _, destination in sends)
    return max((sent + received).values()), max(sent.values())


def messages_per_round(deployment: str, num_workers: int, num_servers: int = 1) -> Dict[str, int]:
    """Model-sized and gradient-sized messages one round of ``deployment``
    sends, read off its replayed round (Figure 9 reads them)."""
    return dict(round_traffic(deployment, num_workers, num_servers).messages)

