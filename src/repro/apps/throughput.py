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

A deployment's communication is one round of its own strategy
(:func:`round_traffic`): the round is replayed at a small model, its ledger
keeps every closed quorum, and :meth:`ThroughputModel.communication_time` is
what the round accountant would charge that round with every message at the
paper's ``d`` (:func:`~repro.network.serialization.message_nbytes`): the one
network rule (:class:`~repro.network.cost.NetworkPrice`) over the reporting
server's quorums — first in, first out on its link — plus the shared
fabric's time for every byte of the round, the term that keeps all-to-all
(decentralized) deployments from scaling (Figures 8 and 9), plus the
serialization of the reporting server's messages.  Every deployment is
priced on the validated config
:meth:`~repro.core.cluster.ClusterConfig.fitted` builds for it, with the GARs
the runtime builds (:meth:`~repro.core.cluster.ClusterConfig.build_gars`): a
cluster the runtime refuses is refused here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple, Type

from repro.core.cluster import ClusterConfig
from repro.core.session import RoundStrategy, Session, strategy_class
from repro.network.cost import DEVICES, FRAMEWORKS, CostModel, NetworkParameters
from repro.network.ledger import Charge, Quorum
from repro.network.serialization import message_nbytes
from repro.nn.models import model_compute_intensity, model_dimension

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
        self.network = network or NetworkParameters()
        self.cost = CostModel(DEVICES[config.device], self.network, FRAMEWORKS[config.framework])

    def fitted(self, deployment: str) -> ClusterConfig:
        """The validated config ``deployment`` runs on this cluster."""
        cluster = self.config.to_dict()
        del cluster["deployment"]
        return ClusterConfig.fitted(deployment, **cluster)

    # ------------------------------------------------------------------ #
    def communication_time(self, deployment: str) -> float:
        """Per-iteration communication latency of the given deployment: the
        round accountant's charge of its replayed round, every message
        re-priced at this model's ``d``."""
        config = self.fitted(deployment)
        shape = config.shape
        contract_steps = config.contract_steps if config.non_iid else 0
        traffic = round_traffic(deployment, config.num_workers, config.num_servers, contract_steps)
        price = self.cost.network_price(shape)
        nbytes = message_nbytes(self.dimension)
        charge, round_nbytes = Charge(), 0
        for quorum in traffic.quorums:
            messages = quorum.requests + len(quorum.replies)
            round_nbytes += messages * nbytes
            if quorum.requester == traffic.reporter:
                # Every message at ``nbytes``: a reply arrives after its transfer
                # at the price's link speed, stretched by its straggler factor.
                replies = [(ready + factor * nbytes / price.bandwidth, nbytes) for ready, factor, _ in quorum.replies]
                charge.messages += messages
                charge.nbytes += messages * nbytes
                charge.elapsed += price.quorum(replies, quorum.requests * nbytes)
        return self.cost.communication_time(price, charge, round_nbytes, shape.native)

    def aggregation_time(self, deployment: str) -> float:
        """Robust-aggregation time per iteration on the reporting node."""
        config = self.fitted(deployment)
        native = config.shape.native
        gradient_gar, model_gar = config.build_gars()
        gradient = self.cost.aggregation_time(gradient_gar, self.dimension, native)
        steps = config.contract_steps if config.shape.contract and config.non_iid else 0
        return (1 + steps) * gradient + self.cost.aggregation_time(model_gar, self.dimension, native)

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
    """One replayed round, as the analytic model reads it.

    ``messages`` are Figure 9's counts, as ``(name, count)`` pairs: the
    messages the quorums priced, that is the model-sized payloads requests
    ship, the gradient replies and every other reply (replica models,
    contract aggregates).  ``quorums`` are the
    round's closed quorums, every requester's, in the order they closed;
    ``reporter`` is the server the round accountant charges.
    """

    messages: Tuple[Tuple[str, int], ...]
    quorums: Tuple[Quorum, ...]
    reporter: str


def round_traffic(deployment: str, num_workers: int, num_servers: int = 1, contract_steps: int = 0) -> RoundTraffic:
    """The network traffic of one round of ``deployment``'s own strategy.

    The round is replayed once per cluster size: serial, with the logistic
    model, plain averaging at f = 0 and no attacker, so every quorum selects
    every peer it asks.  A pull between two nodes on one machine
    (:meth:`~repro.core.cluster.ClusterConfig.machines`) crosses no link: the
    run prices it nothing, and Figure 9 does not count it.
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
    """Run the first round of ``config`` and keep its ledger's closed quorums."""
    with Session(config=config) as session:
        ledger = session.deployment.transport.ledger
        ledger.quorums = []
        session.step()
        quorums = tuple(ledger.quorums)
        reporter = session.reporting_server.node_id
    messages = dict.fromkeys(("model_messages", "gradient_messages", "server_model_messages"), 0)
    for quorum in quorums:
        messages["model_messages"] += quorum.requests
        messages["gradient_messages" if quorum.kind == "gradient" else "server_model_messages"] += len(quorum.replies)
    return RoundTraffic(tuple(messages.items()), quorums, reporter)


def messages_per_round(deployment: str, num_workers: int, num_servers: int = 1) -> Dict[str, int]:
    """Model-sized and gradient-sized messages one round of ``deployment``
    sends, read off its replayed round (Figure 9 reads them)."""
    return dict(round_traffic(deployment, num_workers, num_servers).messages)

