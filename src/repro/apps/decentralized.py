"""Decentralized (peer-to-peer) learning (Section 5.3, Listing 3).

There is no parameter server: every node owns a Server *and* a Worker object,
keeps its data local and exchanges gradients and models with all other nodes.
When the data is not identically distributed, an extra multi-round *contract*
step re-aggregates the nodes' aggregated gradients so the model states on
correct machines are pulled towards each other.

Byzantine tolerance: up to ``f_w`` Byzantine *nodes* out of ``n_w`` — each
node plays both roles, so the same bound applies to the gradient and the
model exchange; the quorums are fixed at ``n_w - f_w`` gradients and
``n_w - f_w - 1`` peer models (Listing 3), and the configured GARs must
accept those input counts (e.g. Median's ``>= 2 f + 1``).  All three
communication phases fan out through the execution engine; publishing to
``latest_aggr_grad`` during the contract step goes through a synced property
so peer subprocesses under the process backend observe each fresh aggregate
before they pull it.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.byzantine import ByzantineServer
from repro.core.session import RoundContext, RoundStrategy, register_application


def _contract(ctx: RoundContext, honest, aggregated: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """The contract(...) helper of Listing 3: multi-round gradient re-aggregation."""
    config = ctx.config
    gar = ctx.deployment.gradient_gar
    quorum = max(1, config.num_workers - config.num_byzantine_workers - 1)
    for _ in range(config.contract_steps):
        # Publish the current aggregate, then everybody pulls and re-aggregates.
        for server in ctx.deployment.servers:
            if isinstance(server, ByzantineServer):
                continue
            server.latest_aggr_grad = aggregated[server.node_id]
        refreshed: Dict[str, np.ndarray] = {}
        for server in honest:
            peer_grads = server.get_aggr_grad_matrix(
                quorum, iteration=ctx.iteration, extra=aggregated[server.node_id]
            )
            refreshed[server.node_id] = gar(gradients=peer_grads, f=config.num_byzantine_workers)
            if server is ctx.server:
                ctx.account(gar)
        aggregated = refreshed
    return aggregated


@register_application("decentralized")
class DecentralizedStrategy(RoundStrategy):
    """Listing 3 on every honest node: gradients, optional contraction, models."""

    def run_round(self, ctx: RoundContext) -> None:
        deployment, config = ctx.deployment, ctx.config
        gar, model_gar = deployment.gradient_gar, deployment.model_gar
        honest = deployment.honest_servers

        # Phase 1 — every node aggregates the gradients of its peers.
        aggregated: Dict[str, np.ndarray] = {}
        for server in honest:
            aggregated[server.node_id] = gar(gradients=ctx.gradients(server), f=ctx.f)
            if server is ctx.server:
                ctx.account(gar)

        # Phase 2 — contract the aggregated gradients when data is non-iid.
        if config.non_iid:
            aggregated = _contract(ctx, honest, aggregated)
        for server in honest:
            server.update_model(aggregated[server.node_id])

        # Phase 3 — exchange and robustly aggregate the model states.
        new_models: Dict[str, np.ndarray] = {}
        for server in honest:
            models = server.get_model_matrix(
                config.model_quorum(), iteration=ctx.iteration, include_self=True
            )
            new_models[server.node_id] = model_gar.aggregate_matrix(models)
            if server is ctx.server:
                ctx.account(model_gar)
        for server in honest:
            server.write_model(new_models[server.node_id])

        deployment.alignment.maybe_sample(
            ctx.iteration, [server.flat_parameters() for server in honest]
        )
