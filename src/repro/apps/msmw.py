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
"""

from __future__ import annotations

from repro.aggregators.base import DistanceGAR
from repro.core.session import RoundContext, RoundStrategy, register_application


@register_application("msmw")
class MSMWStrategy(RoundStrategy):
    """Listing 2 on every live honest server replica: gradients, then models."""

    def run_round(self, ctx: RoundContext) -> None:
        live = ctx.deployment.live_servers
        if ctx.config.shards > 1:
            self._sharded_gradient_phase(ctx, live)
        else:
            for server in live:
                server.update_model(self.aggregate(ctx, ctx.gradients(server), server))

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

    # ------------------------------------------------------------------ #
    def _sharded_gradient_phase(self, ctx: RoundContext, live) -> None:
        """The gradient round with a sharded parameter-vector (``shards > 1``).

        Wire-identical to the classic phase — same targets, quorum selection
        and RNG stream, with reply latencies still those of the full-``d``
        payload (a worker's uplink serializes all of its slices back to back)
        — but each replica stages replies in a
        :class:`~repro.sharding.buffers.ShardedRoundBuffer` and aggregates
        slice by slice, so only one ``(q, d_shard)`` block is ever resident.
        Distance-based GARs run the two-phase partial-distance protocol,
        whose coordination traffic is charged explicitly.  The accountant
        sees slice-framed bytes (:meth:`RoundAccountant.add_wire_traffic`)
        and an aggregation charge at the widest shard — the critical path of
        ``shards`` parallel lanes.
        """
        from repro.sharding.aggregation import aggregate_shards
        from repro.sharding.shard_map import ShardMap

        deployment, config = ctx.deployment, ctx.config
        gar = deployment.gradient_gar
        shard_map = ShardMap(ctx.server.dimension, config.shards)
        two_phase = isinstance(gar, DistanceGAR)
        for server in live:
            buffer = ctx.gradients(server, shard_map)
            aggregated = aggregate_shards(gar, buffer, f=ctx.f)
            coord_bytes = coord_messages = 0
            if two_phase:
                coord_bytes, coord_messages = server.record_shard_coordination(
                    buffer.rows, shard_map.num_shards
                )
            if server is ctx.server:
                # Shard lanes aggregate in parallel; the round pays the
                # widest lane, not the sum.
                ctx.account(gar, dimension=shard_map.max_size)
                reply_bytes, reply_messages = server.last_sharded_traffic
                ctx.accountant.add_wire_traffic(
                    reply_bytes + coord_bytes, reply_messages + coord_messages
                )
            server.update_model(aggregated)
