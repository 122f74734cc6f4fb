"""Per-round message accounting of each deployment.

The paper explains decentralized learning's poor scalability by its O(n^2)
messages per round versus O(n) for the parameter-server architectures
(Figure 9).  This module counts the messages a single training round of each
deployment requires (the Figure 9 benchmark reads them).
"""

from __future__ import annotations

from typing import Dict

from repro.exceptions import ConfigurationError

#: Deployment names understood by :func:`messages_per_round`.
DEPLOYMENTS = (
    "vanilla",
    "aggregathor",
    "crash-tolerant",
    "ssmw",
    "msmw",
    "decentralized",
)


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
    if num_workers < 1:
        raise ConfigurationError("need at least one worker")
    if deployment in ("crash-tolerant", "msmw") and num_servers < 1:
        raise ConfigurationError("replicated deployments need at least one server")
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
