"""AggregaThor baseline (Damaskinos et al., SysML 2019).

AggregaThor is the prior-art comparator: a TensorFlow-integrated system that
tolerates Byzantine workers only, with one trusted central server, Multi-Krum
aggregation, CPU-only training and the shared-graph design (hardened so
workers cannot modify the graph).  Its training round is therefore the same
robust-aggregation round as SSMW; what differs is the communication stack —
the shared TensorFlow graph avoids Garfield's per-message serialization
context switches but is tied to the single-server architecture.  The cost
model reflects that through the ``shared_graph`` flag used by
:mod:`repro.apps.throughput`; the convergence difference observed in
Figure 4a (AggregaThor plateauing slightly below Garfield) came from the
older TensorFlow version it is pinned to, which we model as a small
learning-rate handicap.

Byzantine tolerance: up to ``f_w`` Byzantine workers under Multi-Krum's
``n_w >= 2 f_w + 3`` precondition; the single server is trusted
(``f_ps = 0``) and cannot be replicated in this architecture.
"""

from __future__ import annotations

from repro.core.controller import Deployment
from repro.core.session import RoundStrategy, register_application

#: Relative optimizer-efficiency handicap of the TF 1.10 stack (Figure 4a).
LEGACY_STACK_FACTOR = 0.8


@register_application("aggregathor")
class AggregathorStrategy(RoundStrategy):
    """The SSMW round on a legacy framework stack.

    Identical scatter → aggregate → apply phases; ``setup`` models the older
    TensorFlow pin as a slightly less effective update.
    """

    def setup(self, deployment: Deployment) -> None:
        # Idempotent per deployment: a second Session over the same cluster
        # (reuse, resume) must not compound the handicap.
        optimizer = deployment.servers[0].optimizer
        if not getattr(optimizer, "_legacy_stack_handicap", False):
            optimizer.lr = optimizer.lr * LEGACY_STACK_FACTOR
            optimizer._legacy_stack_handicap = True
