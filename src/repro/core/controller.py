"""The Controller module: cluster deployment and experiment launching.

In the paper the Controller parses cluster information (node jobs, IPs,
ports), starts training over SSH and parses experiment parameters.  In this
in-process reproduction it turns a :class:`~repro.core.cluster.ClusterConfig`
into a fully wired :class:`Deployment` — transport, servers, workers,
Byzantine variants, GAR instances, datasets — and drives the selected
application's :class:`~repro.core.session.RoundStrategy` through the
streaming :class:`~repro.core.session.Session` engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.aggregators.base import GAR
from repro.core.byzantine import ByzantineServer, ByzantineWorker
from repro.core.cluster import ClusterConfig, DeploymentShape
from repro.core.executor import Executor, create_executor
from repro.core.experiment import Experiment
from repro.core.metrics import AlignmentProbe, MetricsLog, Trace
from repro.core.scenario import ScenarioDirector, ScenarioSpec, load_scenario
from repro.core.server import Server
from repro.core.worker import Worker
from repro.datasets.partition import partition_dataset
from repro.datasets.synthetic import Dataset
from repro.detection.manager import DetectionManager
from repro.detection.membership import DEAD, Membership
from repro.exceptions import ConfigurationError
from repro.network.cost import DEVICES, FRAMEWORKS, CostModel
from repro.network.failures import FailureInjector
from repro.network.transport import Transport
from repro.sharding.shard_map import ShardMap


@dataclass
class Deployment:
    """A fully constructed cluster, ready to be driven by an application."""

    config: ClusterConfig
    transport: Transport
    experiment: Experiment
    servers: List[Server]
    workers: List[Worker]
    test_dataset: Dataset
    gradient_gar: GAR
    model_gar: Optional[GAR]
    cost_model: CostModel
    metrics: MetricsLog
    #: Who is pulled, how many replies are awaited and which f holds — the
    #: one ledger every strategy's gradient pull reads
    #: (:meth:`~repro.core.session.RoundContext.gradients`) and the detection
    #: and liveness layers write.  With nobody excluded it is the whole worker
    #: roster at ``config.gradient_quorum()``.
    membership: Membership
    #: What the deployment is built from, as its strategy declares it.
    shape: DeploymentShape = DeploymentShape()
    #: The same ledger over the server replicas, wherever a model GAR exists
    #: (msmw, decentralized; ``None`` otherwise): the model phase pulls from
    #: it (:meth:`~repro.core.session.RoundContext.models`) and the liveness
    #: layer declares replicas dead in it.  With nobody dead its quorum is
    #: the model GAR's row count, the puller's own row included.
    replicas: Optional[Membership] = None
    #: The split of the parameter vector into ``config.shards`` contiguous
    #: slices, decided once for the whole run (``None`` unsharded).  With it,
    #: every gradient pull stages replies per shard and the aggregate phase
    #: runs shard by shard (:mod:`repro.sharding`).
    shard_map: Optional[ShardMap] = None
    alignment: AlignmentProbe = field(default_factory=lambda: AlignmentProbe(every=20))
    #: Chaos-scenario machinery, attached when the config names a scenario.
    director: Optional[ScenarioDirector] = None
    trace: Optional[Trace] = None
    #: Online Byzantine detection state, attached when the config names a
    #: detector (``None`` otherwise — the default aggregate phase checks this).
    detection: Optional["DetectionManager"] = None
    #: Liveness failure detection, attached when ``config.resilience``
    #: enables any self-healing feature (``None`` otherwise — the transport
    #: checks this).
    health: Optional["LivenessDetector"] = None
    #: Process-backend watchdog respawning unscripted host deaths, attached
    #: when ``config.resilience`` enables supervision on the process backend.
    supervisor: Optional["NodeSupervisor"] = None

    @property
    def executor(self) -> Executor:
        """The execution engine servicing this deployment's RPC fan-outs.

        Derived from the transport (the single owner of the engine) so the
        two can never diverge, e.g. after ``transport.use_executor(...)``.
        """
        return self.transport.executor

    def attach_scenario(self, spec: ScenarioSpec) -> None:
        """Drive this deployment by ``spec``: its director and the trace recording it."""
        config = self.config
        self.trace = Trace(scenario=spec.name, deployment=config.deployment, seed=config.seed)
        self.director = ScenarioDirector(spec, self)

    def begin_round(self, iteration: int) -> List[Dict]:
        """Round-boundary hook the session engine calls before any round phase.

        Applies the scenario events scheduled for ``iteration`` (if a
        director is attached; a no-op for scenario-less deployments) and
        returns them.  The trace is not written here: the session records
        the round once it completed, from its ``RoundResult``.

        With a node supervisor attached its patrol runs *first*, so an
        unscripted host death from the previous round is respawned before
        the scenario director injects this round's events (scripted crashes
        stay authoritative — the patrol skips them).
        """
        if self.supervisor is not None:
            self.supervisor.patrol(iteration)
        return self.director.apply(iteration) if self.director is not None else []

    def close(self) -> None:
        """Release runtime resources: pool threads and (for the process
        backend) every node subprocess.  Idempotent.  In-process deployments
        can be driven again afterwards (the executor lazily re-creates its
        pool); a closed :class:`ProcessDeployment` is single-use — its node
        subprocesses are gone and are not respawned."""
        self.transport.close()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def honest_servers(self) -> List[Server]:
        return [s for s in self.servers if not isinstance(s, ByzantineServer)]

    @property
    def honest_workers(self) -> List[Worker]:
        return [w for w in self.workers if not isinstance(w, ByzantineWorker)]

    @property
    def live_servers(self) -> List[Server]:
        """The honest servers not declared dead: the replicas that run a round."""
        dead = self.replicas.excluded(DEAD) if self.replicas is not None else ()
        return [s for s in self.honest_servers if s.node_id not in dead]

    @property
    def primary(self) -> Server:
        """The first live server — the reporting replica for metrics."""
        live = self.live_servers
        if not live:
            raise ConfigurationError("deployment has no live honest server to report from")
        return live[0]


@dataclass
class ProcessDeployment(Deployment):
    """A deployment whose nodes run as real OS subprocesses.

    Built by the Controller for ``executor="process"``: every ``Server`` /
    ``Worker`` is hosted by its own subprocess speaking the length-prefixed
    TCP protocol of :mod:`repro.network.rpc`, while this object keeps the
    coordinator-side planning state.  Use it as a context manager (or call
    :meth:`Deployment.close`) so the process fleet is reaped deterministically.
    """

    @property
    def backend(self):
        """The :class:`~repro.network.rpc.SocketBackend` running the fleet."""
        return self.transport.backend

    def pids(self) -> Dict[str, Optional[int]]:
        """OS pid per node id (``None`` for nodes currently down)."""
        return {
            node_id: self.backend.pid(node_id)
            for node_id in self.transport.known_nodes()
        }


@dataclass
class TrainingResult:
    """Outcome of one application run."""

    config: ClusterConfig
    metrics: MetricsLog
    accuracy_history: List[tuple]
    final_accuracy: Optional[float]
    throughput: float
    breakdown: Dict[str, float]
    alignment_samples: List[Dict[str, float]] = field(default_factory=list)
    messages_sent: int = 0
    bytes_sent: int = 0
    #: Deterministic per-round trace, present for scenario-driven runs.
    trace: Optional[Trace] = None

    def summary(self) -> str:
        acc = f"{self.final_accuracy:.3f}" if self.final_accuracy is not None else "n/a"
        return (
            f"{self.config.deployment}: final accuracy {acc}, "
            f"throughput {self.throughput:.3f} updates/s over {len(self.metrics)} iterations"
        )

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """JSON-friendly representation used by the CLI and result archiving."""
        return {
            "config": self.config.to_dict(),
            "final_accuracy": self.final_accuracy,
            "throughput": self.throughput,
            "breakdown": dict(self.breakdown),
            "accuracy_history": [[int(i), float(a)] for i, a in self.accuracy_history],
            "alignment_samples": [dict(sample) for sample in self.alignment_samples],
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "iterations": len(self.metrics),
            "total_simulated_time": self.metrics.total_time,
            "trace": self.trace.to_dict() if self.trace is not None else None,
        }

    def save_json(self, path) -> None:
        """Write :meth:`to_dict` to ``path`` as JSON."""
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)


class Controller:
    """Builds deployments and runs applications."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------ #
    def build(self) -> Deployment:
        """Construct every node of the configured deployment."""
        if self.config.executor != "process":
            return self._build(None)
        # Imported lazily: the RPC layer pulls in subprocess machinery
        # that in-process runs never need.
        from repro.network.rpc import SocketBackend

        backend = SocketBackend(wire_format=self.config.wire_format)
        try:
            # The zygote imports NumPy and the node classes while this
            # process builds the dataset and the nodes it will hand out.
            backend.prefork()
            return self._build(backend)
        except BaseException:
            backend.close()
            raise

    def _build(self, backend) -> Deployment:
        config = self.config
        cost_model = CostModel(device=DEVICES[config.device], framework=FRAMEWORKS[config.framework])

        experiment = Experiment(
            model_name=config.model,
            dataset_name=config.dataset,
            dataset_size=config.dataset_size,
            test_fraction=config.test_fraction,
            noise=config.dataset_noise,
            seed=config.seed,
        )
        train_set, test_set = experiment.build_dataset()
        shards = partition_dataset(
            train_set,
            config.num_workers,
            iid=not config.non_iid,
            alpha=config.dirichlet_alpha,
            seed=config.seed,
        )

        failures = FailureInjector(seed=config.seed)
        executor = create_executor(config.executor, max_workers=config.executor_workers or None)
        transport = Transport(
            failures=failures,
            seed=config.seed,
            executor=executor,
            backend=backend,
            wire_format=config.wire_format,
        )
        for node_id, factor in config.straggler_factors.items():
            failures.set_straggler(node_id, factor)

        shape = config.shape
        transport.price = cost_model.network_price(shape)
        transport.machines = config.machines()
        gradient_gar, model_gar = config.build_gars()

        workers = self._build_workers(config, transport, experiment, shards)
        servers = self._build_servers(config, transport, experiment, test_set)

        metrics = MetricsLog(deployment=config.deployment)
        deployment_cls = Deployment if backend is None else ProcessDeployment
        deployment = deployment_cls(
            config=config,
            transport=transport,
            experiment=experiment,
            servers=servers,
            workers=workers,
            test_dataset=test_set,
            gradient_gar=gradient_gar,
            model_gar=model_gar,
            cost_model=cost_model,
            metrics=metrics,
            # Sized by the rule that actually runs: the fault-oblivious
            # baselines average with f = 0 whatever the config declares.
            membership=Membership(
                [worker.node_id for worker in workers],
                declared_f=gradient_gar.f,
                gar_name=gradient_gar.name,
                slack=config.num_workers - config.gradient_quorum(),
            ),
            shape=shape,
            shard_map=ShardMap(servers[0].dimension, config.shards) if config.shards > 1 else None,
        )
        if model_gar is not None:
            # A contract step runs the gradient rule on replica rows too: the
            # guard answers to whichever rule needs more of them.
            guarded = [model_gar]
            if shape.contract and config.non_iid:
                guarded.append(gradient_gar)
            deployment.replicas = Membership(
                [server.node_id for server in servers],
                declared_f=model_gar.f,
                gar_name=max(guarded, key=lambda gar: gar.minimum_inputs(model_gar.f)).name,
                slack=len(servers) - model_gar.n,
                floor=2,
            )
        if config.detector:
            deployment.detection = DetectionManager(
                detector=config.detector, membership=deployment.membership
            )
        if config.scenario:
            deployment.attach_scenario(load_scenario(config.scenario))
        resilience = config.resilience_config()
        if resilience.active:
            # Imported lazily: resilience-less runs (every golden) never
            # touch the self-healing machinery.
            from repro.core.health import LivenessDetector, NodeSupervisor
            from repro.network.resilience import HedgePolicy

            deployment.health = LivenessDetector(
                deployment.membership,
                book=deployment.detection.book if deployment.detection else None,
                replicas=deployment.replicas,
            )
            transport.health = deployment.health
            if resilience.hedge:
                transport.hedge = HedgePolicy()
            if backend is not None:
                if resilience.retry:
                    backend.retry_policy = resilience.retry_policy(config.seed)
                    request = transport.vector_nbytes(servers[0].dimension)
                    backend.on_retry = lambda node, attempt, error: transport.ledger.retried(request)
                if resilience.supervise:
                    deployment.supervisor = NodeSupervisor(
                        backend,
                        failures,
                        roster=[worker.node_id for worker in workers]
                        + [server.node_id for server in servers],
                        health=deployment.health,
                    )
        if backend is not None:
            # Fork the node hosts only after every node is built
            # (each host is handed its node's snapshot) and after the
            # director validated the scenario against the cluster.
            backend.start()
        return deployment

    # ------------------------------------------------------------------ #
    def _build_workers(self, config, transport, experiment, shards) -> List[Worker]:
        workers: List[Worker] = []
        attacking = set(config.byzantine_ids())
        for index, node_id in enumerate(config.node_ids()[0]):
            model = experiment.build_model(seed=config.seed)
            kwargs = dict(
                node_id=node_id,
                transport=transport,
                model=model,
                dataset=shards[index],
                batch_size=min(config.batch_size, len(shards[index])),
                seed=config.seed + index,
                cache_gradients=not config.fresh_gradients_per_replica,
                momentum=config.worker_momentum,
            )
            if node_id in attacking:
                workers.append(
                    ByzantineWorker(attack=config.worker_attack, attack_seed=config.seed + index, **kwargs)
                )
            else:
                workers.append(Worker(**kwargs))
        return workers

    def _build_servers(self, config, transport, experiment, test_set) -> List[Server]:
        worker_ids, server_ids = config.node_ids()
        attacking = set(config.byzantine_ids())
        servers: List[Server] = []
        for index, node_id in enumerate(server_ids):
            model = experiment.build_model(seed=config.seed)  # identical initial state on all replicas
            kwargs = dict(
                node_id=node_id,
                transport=transport,
                model=model,
                workers=worker_ids,
                servers=server_ids,
                test_dataset=test_set,
                learning_rate=config.learning_rate,
                momentum=config.momentum,
            )
            if node_id in attacking:
                servers.append(
                    ByzantineServer(attack=config.server_attack, attack_seed=config.seed + 100 + index, **kwargs)
                )
            else:
                servers.append(Server(**kwargs))
        return servers

    # ------------------------------------------------------------------ #
    def run(self, deployment: Optional[Deployment] = None) -> TrainingResult:
        """Build (if needed) and run the configured application end to end.

        A thin wrapper over the streaming engine: equivalent to driving a
        :class:`~repro.core.session.Session` to completion and closing the
        deployment.  Use a Session directly for per-round streaming,
        pause/resume, early stopping or callbacks.
        """
        from repro.core.session import Session  # imported lazily to avoid a cycle

        deployment = deployment or self.build()
        try:
            Session(deployment).run()
        finally:
            # Release pool threads and any node subprocesses.  In-process
            # deployments may be driven again (the pool is re-created
            # lazily); process deployments are single-use after this.
            deployment.close()
        return self.collect_result(deployment)

    # ------------------------------------------------------------------ #
    @staticmethod
    def collect_result(deployment: Deployment) -> TrainingResult:
        metrics = deployment.metrics
        stats = deployment.transport.stats
        return TrainingResult(
            config=deployment.config,
            metrics=metrics,
            accuracy_history=metrics.accuracies,
            final_accuracy=metrics.final_accuracy,
            throughput=metrics.throughput(),
            breakdown=metrics.breakdown(),
            alignment_samples=list(deployment.alignment.samples),
            messages_sent=stats.messages_sent,
            bytes_sent=stats.bytes_sent,
            trace=deployment.trace,
        )
