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

from repro.core.session import RoundStrategy, register_application


@register_application("vanilla")
class VanillaStrategy(RoundStrategy):
    """Plain averaging on the single trusted server, always over all workers.

    The base scatter → aggregate → apply round: for this deployment the
    Controller builds ``average`` with ``f = 0`` as the gradient rule and
    ``ClusterConfig.gradient_quorum`` is every worker — synchronous and
    fault-oblivious regardless of the asynchronous flag.
    """
