"""Vanilla parameter-server deployment (the paper's non-fault-tolerant baseline).

One trusted server, plain averaging of all workers' gradients, synchronous
collection.  This is what an unmodified TensorFlow / PyTorch deployment does
and it fails under any Byzantine behaviour — which Figure 5 demonstrates.

Byzantine tolerance: **none** (``f_w = f_ps = 0``); a single malicious
worker controls the average.  Like every strategy the collection runs
through the deployment's execution engine, so the baseline too can be
driven with workers as real subprocesses (``executor="process"``).
"""

from __future__ import annotations

import numpy as np

from repro.core.session import RoundContext, RoundStrategy, register_application


@register_application("vanilla")
class VanillaStrategy(RoundStrategy):
    """Plain averaging on the single trusted server, always over all workers."""

    def scatter(self, ctx: RoundContext) -> np.ndarray:
        # Synchronous and fault-oblivious: waits for every worker regardless
        # of the asynchronous flag.
        return ctx.server.get_gradient_matrix(ctx.iteration, ctx.config.num_workers)

    def aggregate(self, ctx: RoundContext, gradients: np.ndarray) -> np.ndarray:
        gar = ctx.deployment.gradient_gar  # Average for this deployment
        aggregated = gar.aggregate_matrix(gradients)
        ctx.account(gar)
        return aggregated
