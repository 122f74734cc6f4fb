"""Cluster topologies and per-round message accounting.

The paper explains decentralized learning's poor scalability by its O(n^2)
messages per round versus O(n) for the parameter-server architectures
(Figure 9).  This module builds the communication graph of each deployment
with networkx and counts the messages a single training round requires, which
both the cost model and the tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:
    import networkx as nx

#: Deployment names understood by :func:`messages_per_round`.
DEPLOYMENTS = (
    "vanilla",
    "aggregathor",
    "crash-tolerant",
    "ssmw",
    "msmw",
    "decentralized",
)


@dataclass
class ClusterTopology:
    """Node inventory and communication graph of one deployment."""

    deployment: str
    num_workers: int
    num_servers: int
    graph: nx.DiGraph  # a string under the __future__ import: never evaluated

    @property
    def worker_ids(self) -> List[str]:
        return [n for n, data in self.graph.nodes(data=True) if data["role"] == "worker"]

    @property
    def server_ids(self) -> List[str]:
        return [n for n, data in self.graph.nodes(data=True) if data["role"] == "server"]

    @property
    def num_links(self) -> int:
        return self.graph.number_of_edges()


def build_topology(deployment: str, num_workers: int, num_servers: int = 1) -> ClusterTopology:
    """Build the directed communication graph of a deployment.

    Edges point from the puller to the node it pulls from (one edge per
    directed communication relation used in a round).
    """
    deployment = deployment.lower()
    if deployment not in DEPLOYMENTS:
        raise ConfigurationError(f"unknown deployment '{deployment}'; choose from {DEPLOYMENTS}")
    if num_workers < 1:
        raise ConfigurationError("need at least one worker")

    # Imported here, not at module level: every node host imports this module
    # for the message counts, and only this function needs networkx (~20 MB).
    import networkx as nx

    graph = nx.DiGraph()
    workers = [f"worker-{i}" for i in range(num_workers)]
    for worker in workers:
        graph.add_node(worker, role="worker")

    if deployment == "decentralized":
        # Every node is both a server and a worker; all-to-all links.
        for worker in workers:
            graph.nodes[worker]["role"] = "worker"
        for a in workers:
            for b in workers:
                if a != b:
                    graph.add_edge(a, b)
        return ClusterTopology(deployment, num_workers, 0, graph)

    if deployment in ("vanilla", "aggregathor", "ssmw"):
        effective_servers = 1
    else:
        if num_servers < 1:
            raise ConfigurationError("replicated deployments need at least one server")
        effective_servers = num_servers

    servers = [f"server-{i}" for i in range(effective_servers)]
    for server in servers:
        graph.add_node(server, role="server")

    # Workers pull models from servers; servers pull gradients from workers.
    for server in servers:
        for worker in workers:
            graph.add_edge(server, worker)  # server pulls gradient from worker
            graph.add_edge(worker, server)  # worker pulls model from server

    if deployment in ("msmw", "crash-tolerant") and effective_servers > 1:
        # Server replicas pull models from each other.
        for a in servers:
            for b in servers:
                if a != b:
                    graph.add_edge(a, b)

    return ClusterTopology(deployment, num_workers, effective_servers, graph)


def messages_per_round(deployment: str, num_workers: int, num_servers: int = 1) -> Dict[str, int]:
    """Number of model-sized and gradient-sized messages one training round needs.

    The counts follow the protocols of Section 5:

    * vanilla / AggregaThor / SSMW — the server broadcasts the model to every
      worker and collects one gradient from each: ``n_w`` model messages and
      ``n_w`` gradient messages.
    * crash-tolerant — workers contact only the primary for the model, but all
      replicas collect all gradients.
    * MSMW — every server replica broadcasts to and collects from every
      worker, then replicas exchange models amongst themselves.
    * decentralized — every node exchanges gradients and models with every
      other node, plus one extra aggregated-gradient exchange round for the
      *contract* step: O(n^2) per round.
    """
    deployment = deployment.lower()
    if deployment not in DEPLOYMENTS:
        raise ConfigurationError(f"unknown deployment '{deployment}'; choose from {DEPLOYMENTS}")
    nw, nps = num_workers, num_servers
    if deployment in ("vanilla", "aggregathor", "ssmw"):
        return {"model_messages": nw, "gradient_messages": nw, "server_model_messages": 0}
    if deployment == "crash-tolerant":
        return {"model_messages": nw, "gradient_messages": nw * nps, "server_model_messages": 0}
    if deployment == "msmw":
        return {
            "model_messages": nw * nps,
            "gradient_messages": nw * nps,
            "server_model_messages": nps * (nps - 1),
        }
    # decentralized: all-to-all gradients, models and one contract round.
    n = nw
    return {
        "model_messages": n * (n - 1),
        "gradient_messages": n * (n - 1),
        "server_model_messages": n * (n - 1),
    }
