"""MSMW — Multiple Servers, Multiple Workers (Section 5.2, Listing 2).

The parameter server is replicated so the deployment tolerates Byzantine
servers as well as Byzantine workers (the ByzSGD construction).  Each honest
replica performs, per iteration:

1. collect ``n_w - f_w`` gradients and aggregate them with the gradient GAR;
2. apply the aggregated gradient to its local model;
3. collect models from the other replicas, aggregate them (together with its
   own) with the model GAR and overwrite its model with the result — the
   extra communication round that keeps the replicas from diverging.

Byzantine replicas serve corrupted models but are never trusted with the
reporting of metrics; as in the paper, accuracy and throughput are reported
from the (fastest) correct replica.

Byzantine tolerance: up to ``f_w`` Byzantine workers (gradient GAR
precondition, e.g. ``n_w >= 2 f_w + 3`` for Multi-Krum) *and* up to ``f_ps``
Byzantine servers, requiring the model GAR's precondition over the rows of
the replica membership's quorum (e.g. ``>= 2 f_ps + 1`` for Median).  Both
tiers are memberships (``Deployment.membership`` / ``Deployment.replicas``):
a replica the liveness layer declares dead stops pulling, being pulled and
updating, and each model GAR call is sized for the live replicas at the
unchanged ``f_ps``; liveness in asynchronous runs additionally needs
``q + f`` deployed nodes per pull.  Both communication rounds fan out
through the execution engine; under the process backend each replica's
model state is mirrored to its hosting subprocess after every update, so the
inter-server model exchange observes exactly the state the in-process path
would.

Sharding (``ClusterConfig.shards`` above 1) splits the parameter vector
once, on the deployment (``Deployment.shard_map``): each replica's gradient
pull then stages its replies per shard and the same aggregate phase runs the
gradient GAR shard by shard (:mod:`repro.sharding`), so the round above is
unchanged.
"""

from __future__ import annotations

from repro.core.cluster import DeploymentShape
from repro.core.session import RoundContext, RoundStrategy, register_application


@register_application("msmw")
class MSMWStrategy(RoundStrategy):
    """Listing 2 on every live honest server replica: gradients, then models.

    Every replica aggregates its gradients before any applies its own, and
    :meth:`contract` sits in between: the identity here, Listing 3's contract
    step in :class:`~repro.apps.decentralized.DecentralizedStrategy`.
    """

    shape = DeploymentShape(servers="replicas", model_phase=True, shardable=True)

    def run_round(self, ctx: RoundContext) -> None:
        live = ctx.deployment.live_servers
        aggregated = [self.aggregate(ctx, ctx.gradients(server), server) for server in live]
        for server, update in zip(live, self.contract(ctx, live, aggregated)):
            server.update_model(update)

        # Second communication round: contract the replicas' models.  Each
        # replica's round buffer holds the peer models plus its own state as
        # the final row — the layout the model GAR aggregates directly.
        new_models = [
            self.aggregate(ctx, ctx.models(server), server, model=True) for server in live
        ]
        for server, model in zip(live, new_models):
            server.write_model(model)

        ctx.deployment.alignment.maybe_sample(
            ctx.iteration, [server.flat_parameters() for server in live]
        )

    def contract(self, ctx: RoundContext, live, aggregated: list) -> list:
        """The replicas' aggregated gradients as they are applied: unchanged here."""
        return aggregated
