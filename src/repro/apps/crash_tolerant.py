"""Crash-tolerant primary/backup baseline (Section 6.2).

A strawman protocol built from Garfield components that tolerates *crash*
(not Byzantine) failures of the parameter server: the server is replicated,
every replica collects the gradients of all workers and averages them, but
workers only fetch the model from the current primary.  When the primary
crashes (detected by a timeout, here by the transport raising
``NodeCrashedError``), the next replica becomes primary and re-broadcasts its
(possibly slightly outdated) model — learning still converges eventually.

Failure tolerance: up to ``n_ps - 1`` *crash* failures of server replicas,
but **zero** Byzantine tolerance — gradients are plainly averaged
(``f_w = 0``) and replicas are trusted, which is exactly the gap between
this strawman and MSMW.  Under the process backend a scenario ``crash`` is a
real SIGKILL of the replica's subprocess and the failover below still
engages unchanged, because crash detection goes through the shared
failure-injector view the director maintains.
"""

from __future__ import annotations

from repro.core.cluster import DeploymentShape
from repro.core.controller import Deployment
from repro.core.server import Server
from repro.core.session import RoundContext, RoundStrategy, register_application
from repro.exceptions import TrainingError


@register_application("crash-tolerant")
class CrashTolerantStrategy(RoundStrategy):
    """Primary/backup averaging with failover at the round boundary.

    The reporting server is the current primary; scenario events apply before
    :meth:`reporting_server` runs, so a crash injected at round ``t``
    triggers the failover within the same round.  Every alive replica
    collects all gradients and applies the average, so any of them can take
    over as primary at the next iteration.
    """

    shape = DeploymentShape(servers="replicas", byzantine=False)
    _primary_index = 0

    def setup(self, deployment: Deployment) -> None:
        self._primary_index = 0

    def reporting_server(self, deployment: Deployment, iteration: int) -> Server:
        servers = deployment.servers
        failures = deployment.transport.failures
        # Fail over past crashed primaries; the new primary's model may lag by
        # a few updates, which is acceptable for eventual convergence.
        while failures.is_crashed(servers[self._primary_index].node_id):
            self._primary_index += 1
            if self._primary_index >= len(servers):
                raise TrainingError("all server replicas have crashed")
        return servers[self._primary_index]

    def run_round(self, ctx: RoundContext) -> None:
        deployment = ctx.deployment
        for server in deployment.servers[self._primary_index:]:
            if not deployment.transport.failures.is_crashed(server.node_id):
                server.update_model(self.aggregate(ctx, ctx.gradients(server), server))
