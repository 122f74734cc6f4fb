"""Decentralized (peer-to-peer) learning (Section 5.3, Listing 3).

There is no parameter server: every node owns a Server *and* a Worker object,
keeps its data local and exchanges gradients and models with all other nodes.
When the data is not identically distributed, an extra multi-round *contract*
step re-aggregates the nodes' aggregated gradients so the model states on
correct machines are pulled towards each other.

Byzantine tolerance: up to ``f_w`` Byzantine *nodes* out of ``n_w`` — each
node plays both roles, so the same bound applies to the gradient and the
model exchange.  The node roster is two memberships: every node pulls
``n_w - f_w`` gradients from ``Deployment.membership`` and, from the
replica membership ``Deployment.replicas``, ``n_w - f_w - 1`` peer models
(and peer aggregates in the contract step) with its own row appended
(Listing 3) — one fewer of each per node the liveness layer declares dead,
which then stops pulling, being pulled and updating.  The configured GARs
must accept those row counts at ``f_w`` (e.g. Median's ``>= 2 f + 1``;
``ClusterConfig.validate`` checks both).  All three communication phases
fan out through the execution engine; publishing to ``latest_aggr_grad``
during the contract step goes through a synced property so peer subprocesses
under the process backend observe each fresh aggregate before they pull it.
"""

from __future__ import annotations

from repro.apps.msmw import MSMWStrategy
from repro.core.cluster import DeploymentShape
from repro.core.session import RoundContext, register_application


@register_application("decentralized")
class DecentralizedStrategy(MSMWStrategy):
    """Listing 3 on every live honest node: MSMW's round, with the contract step."""

    shape = DeploymentShape(servers="per-worker", model_phase=True, contract=True)

    def contract(self, ctx: RoundContext, live, aggregated: list) -> list:
        """The contract(...) helper of Listing 3: multi-round gradient re-aggregation
        when the data is non-iid."""
        if not ctx.config.non_iid:
            return aggregated
        for _ in range(ctx.config.contract_steps):
            # Publish the current aggregate, then everybody pulls and re-aggregates.
            for server, update in zip(live, aggregated):
                server.latest_aggr_grad = update
            aggregated = [
                self.aggregate(ctx, ctx.models(server, update), server)
                for server, update in zip(live, aggregated)
            ]
        return aggregated
