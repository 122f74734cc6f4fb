"""Cluster definition, validation and (de)serialization.

``ClusterConfig`` gathers every knob the Controller needs to deploy one of the
paper's applications: cluster sizes, declared Byzantine counts, GARs, attack
choices, model / dataset, device and framework, and training hyperparameters.
Validation enforces the Byzantine-resilience conditions relating ``n`` and
``f`` for the chosen GARs before any node is built.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.aggregators.base import GAR, GAR_REGISTRY, init as init_gar
from repro.attacks.base import attack_class
from repro.core.executor import EXECUTOR_REGISTRY
from repro.core.experiment import DATASET_SHAPES, check_dataset_size, check_model_input
from repro.exceptions import ConfigurationError
from repro.network.cost import DEVICES, FRAMEWORKS
from repro.network.serialization import parse_wire_format
from repro.nn.models import MODEL_REGISTRY

#: The server layouts a :class:`DeploymentShape` may declare.
SERVER_LAYOUTS = ("single", "replicas", "per-worker")


@dataclass(frozen=True)
class DeploymentShape:
    """What one deployment is built from, as its strategy declares it.

    Every :class:`~repro.core.session.RoundStrategy` carries one (``shape``;
    the default is SSMW's), and everything outside the strategy reads it
    instead of the deployment's name: :class:`ClusterConfig` validates and
    sizes by it, the Controller builds the GARs it names, the accountant and
    the analytic :class:`~repro.apps.throughput.ThroughputModel` price it.
    The sizing methods take a :class:`ClusterConfig` (the fuzz generator's
    size search alone passes a namespace of its fields, to try sizes no
    valid config holds yet); the analytic model prices the config
    :meth:`ClusterConfig.fitted` builds for each deployment, so the runtime
    and the analytic model run the same rules on the same validated cluster.
    """

    #: ``"single"`` (one trusted server), ``"replicas"`` (``num_servers``
    #: server replicas) or ``"per-worker"`` (every worker owns a server).
    servers: str = "single"
    #: Byzantine-tolerant (the configured GARs at the declared f) or
    #: fault-oblivious (plain averaging at f = 0 over every worker).
    byzantine: bool = True
    #: Replicas exchange models through the model GAR after every update.
    model_phase: bool = False
    #: Non-iid runs re-aggregate the replicas' aggregates (Listing 3's contract).
    contract: bool = False
    #: Runs inside the framework's own runtime: no serialization cost.
    native: bool = False
    #: The gradient phase can be split into ``ClusterConfig.shards`` shards.
    shardable: bool = False
    #: Scales every transfer the analytic model prices (a slower RPC layer).
    transfer_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.servers not in SERVER_LAYOUTS:
            raise ConfigurationError(f"unknown server layout '{self.servers}'; choose from {SERVER_LAYOUTS}")

    def gradient_quorum(self, cluster: "ClusterConfig") -> int:
        """How many gradients a server waits for per iteration.

        Synchronous deployments wait for all workers; asynchronous ones (and
        every per-worker layout, per Listing 3) wait only for the fastest
        ``n_w - f_w``.  Fault-oblivious deployments wait for everyone
        whatever the asynchronous flag says.
        """
        if not self.byzantine:
            return cluster.num_workers
        if cluster.asynchronous or self.servers == "per-worker":
            return cluster.num_workers - cluster.num_byzantine_workers
        return cluster.num_workers

    def model_quorum(self, cluster: "ClusterConfig") -> int:
        """How many peer models a server replica waits for per iteration
        (0 where it has no peer)."""
        if self.servers == "per-worker":
            return min(cluster.num_workers - 1, max(1, cluster.num_workers - cluster.num_byzantine_workers - 1))
        if cluster.num_servers <= 1:
            return 0
        if cluster.asynchronous:
            return max(1, cluster.num_servers - cluster.num_byzantine_servers - 1)
        return cluster.num_servers - 1

    def check_replicas(self, num_servers: int, num_byzantine_servers: int = 0) -> None:
        """The replica-count rule of a ``replicas`` layout — at least two
        replicas and ``0 <= f_ps < n_ps``; other layouts pass."""
        if self.servers != "replicas":
            return
        if num_servers < 2:
            raise ConfigurationError(f"replicated deployments need at least two server replicas, got {num_servers}")
        if not 0 <= num_byzantine_servers < num_servers:
            raise ConfigurationError(f"need 0 <= f_ps < n_ps, got f_ps={num_byzantine_servers}, n_ps={num_servers}")

    def gradient_rule(self, cluster: "ClusterConfig") -> Tuple[str, int, int]:
        """``(name, n, f)`` of the gradient GAR: the configured rule at
        ``f_w`` over the gradient quorum, or plain averaging at f = 0 where
        the deployment is fault-oblivious."""
        if not self.byzantine:
            return "average", self.gradient_quorum(cluster), 0
        return cluster.gradient_gar, self.gradient_quorum(cluster), cluster.num_byzantine_workers

    def model_rule(self, cluster: "ClusterConfig") -> Optional[Tuple[str, int, int]]:
        """``(name, n, f)`` of the model GAR — the peer models plus the
        replica's own, at ``f_ps``, or at ``f_w`` where every worker is a
        replica — or ``None`` without a model phase."""
        if not self.model_phase:
            return None
        per_worker = self.servers == "per-worker"
        f = cluster.num_byzantine_workers if per_worker else cluster.num_byzantine_servers
        return cluster.model_gar, self.model_quorum(cluster) + 1, f


@dataclass
class ClusterConfig:
    """Complete description of one deployment."""

    deployment: str = "ssmw"
    # Cluster sizes.
    num_workers: int = 5
    num_byzantine_workers: int = 0
    num_servers: int = 1
    num_byzantine_servers: int = 0
    # How many nodes actually behave maliciously (<= the declared numbers).
    num_attacking_workers: int = 0
    num_attacking_servers: int = 0
    worker_attack: str = "random"
    server_attack: str = "random"
    # Aggregation.
    gradient_gar: str = "multi-krum"
    model_gar: str = "median"
    # Experiment.
    model: str = "mnist_cnn"
    dataset: str = "mnist"
    dataset_size: int = 600
    test_fraction: float = 0.2
    dataset_noise: float = 0.8
    batch_size: int = 16
    learning_rate: float = 0.05
    momentum: float = 0.0
    #: Worker-side (distributed) momentum applied before gradients are sent.
    worker_momentum: float = 0.0
    # Infrastructure.
    device: str = "cpu"
    framework: str = "tensorflow"
    #: Execution engine used to fan out worker/replica RPCs: ``"serial"``
    #: (deterministic, in-order — the default, used by tests),
    #: ``"threaded"`` (concurrent service of independent peers) or
    #: ``"process"`` (every node a real OS process over TCP); all three are
    #: deterministic because all randomness is pre-sampled by the transport.
    executor: str = "serial"
    #: Thread count for the threaded executor; 0 picks an automatic size.
    executor_workers: int = 0
    asynchronous: bool = False
    non_iid: bool = False
    dirichlet_alpha: float = 0.5
    contract_steps: int = 1
    #: When true, every server replica pulling a gradient at the same iteration
    #: receives a fresh mini-batch estimate (models asynchronous gradient views
    #: across replicas); when false, workers compute one gradient per iteration
    #: and serve it to every replica (push semantics).
    fresh_gradients_per_replica: bool = False
    # Run control.
    num_iterations: int = 30
    accuracy_every: int = 10
    seed: int = 1
    straggler_factors: Dict[str, float] = field(default_factory=dict)
    #: Chaos scenario driving this run: a bundled scenario name or a path to a
    #: scenario JSON file (see :mod:`repro.core.scenario`).  Empty = none.
    #: When set, the Controller attaches a ScenarioDirector and a Trace
    #: recorder to the deployment.
    scenario: str = ""
    #: Online Byzantine detection: name of a registered detector (see
    #: :mod:`repro.detection`) or empty for none (the default — detection is
    #: strictly opt-in, so traces and goldens are unchanged without it).
    #: Single-server deployments (ssmw, aggregathor and compatible
    #: third-party strategies) support it; msmw and decentralized need a
    #: replica-local ReputationBook — a Byzantine worker may tell each
    #: replica a different gradient — which does not exist yet, and the
    #: fault-oblivious baselines (vanilla, crash-tolerant) stay undefended.
    detector: str = ""
    #: Wire format of gradient/model reply payloads:
    #: ``"base[+delta]"`` with base one of ``float64`` (the
    #: bit-exact default), ``float32``, ``float16`` or ``int8`` (per-chunk
    #: scale/offset quantization).  Every backend moves a reply vector
    #: through the same :class:`repro.network.serialization.VectorStream`;
    #: over sockets each pull request names the format.
    wire_format: str = "float64"
    #: Self-healing runtime options (see :class:`repro.network.resilience.\
    #: ResilienceConfig`): ``retry`` (idempotent-pull retry with backoff),
    #: ``hedge`` (re-issue straggling quorum pulls), ``supervise`` (respawn
    #: unscripted host deaths).  Empty = everything off (the default —
    #: resilience is strictly opt-in, so traces and goldens are unchanged
    #: without it).
    resilience: Dict = field(default_factory=dict)
    #: Parameter-vector shards for the replicated-server (msmw) gradient
    #: phase: 1 (the default) keeps the classic full-``d`` pipeline; ``k > 1``
    #: splits the flat vector into ``k`` contiguous slices that are scattered,
    #: staged and aggregated shard-by-shard (see :mod:`repro.sharding` and
    #: ``docs/sharding.md``).  Strictly opt-in — traces are unchanged at 1.
    shards: int = 1

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check structural and Byzantine-resilience constraints."""
        # Resolves the registered strategy (bundled or third-party): every
        # structural check below reads its declared shape, never its name.
        shape = self.shape
        if self.num_workers < 1:
            raise ConfigurationError("need at least one worker")
        workers, servers = self.node_ids()
        for node_id, factor in self.straggler_factors.items():
            if node_id not in workers and node_id not in servers:
                raise ConfigurationError(
                    f"straggler_factors names '{node_id}', which this deployment does not "
                    f"build (its nodes: worker-0..{len(workers) - 1}, server-0..{len(servers) - 1})"
                )
            if isinstance(factor, bool) or not isinstance(factor, (int, float)) or not factor >= 1.0:
                raise ConfigurationError(
                    f"straggler_factors['{node_id}'] must be a real number >= 1.0, got {factor!r}"
                )
        if self.num_iterations < 1:
            raise ConfigurationError("need at least one training iteration")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be positive")
        # Hyperparameters that would otherwise surface mid-build or mid-round
        # (ZeroDivisionError in should_evaluate, ValueError from SGD, ...).
        if self.accuracy_every < 1:
            raise ConfigurationError("accuracy_every must be >= 1")
        if not self.learning_rate > 0:
            raise ConfigurationError("learning_rate must be > 0")
        if not self.dirichlet_alpha > 0:
            raise ConfigurationError("dirichlet_alpha must be > 0")
        if self.contract_steps < 0:
            raise ConfigurationError("contract_steps must be >= 0")
        if not self.dataset_noise >= 0:
            raise ConfigurationError("dataset_noise must be >= 0")
        # Names resolve the way their builders resolve them.
        if self.model.lower() not in MODEL_REGISTRY:
            raise ConfigurationError(f"unknown model '{self.model}'; choose from {sorted(MODEL_REGISTRY)}")
        if self.dataset not in DATASET_SHAPES:
            raise ConfigurationError(f"unknown dataset '{self.dataset}'; choose from {sorted(DATASET_SHAPES)}")
        check_model_input(self.model, self.dataset)
        attack_class(self.worker_attack)
        attack_class(self.server_attack)
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigurationError("test_fraction must lie strictly between 0 and 1")
        check_dataset_size(self.dataset_size, self.test_fraction, self.num_workers)
        for name in ("momentum", "worker_momentum"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1)")
        for name in ("num_attacking_workers", "num_attacking_servers"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if not 0 <= self.num_byzantine_workers < self.num_workers:
            raise ConfigurationError("need 0 <= f_w < n_w")
        if self.num_attacking_workers > self.num_byzantine_workers:
            raise ConfigurationError("attacking workers cannot exceed declared Byzantine workers")
        if self.num_attacking_servers > self.num_byzantine_servers:
            raise ConfigurationError("attacking servers cannot exceed declared Byzantine servers")
        if self.device not in DEVICES:
            raise ConfigurationError(f"unknown device '{self.device}'; choose from {sorted(DEVICES)}")
        if self.framework not in FRAMEWORKS:
            raise ConfigurationError(
                f"unknown framework '{self.framework}'; choose from {sorted(FRAMEWORKS)}"
            )
        if self.executor not in EXECUTOR_REGISTRY:
            raise ConfigurationError(
                f"unknown executor '{self.executor}'; choose from {sorted(EXECUTOR_REGISTRY)}"
            )
        if self.executor_workers < 0:
            raise ConfigurationError("executor_workers must be non-negative")
        if not isinstance(self.scenario, str):
            raise ConfigurationError("scenario must be a bundled name or a JSON file path")
        # Fail at validation time, not mid-round, on an unknown format token.
        parse_wire_format(self.wire_format)
        # Same for resilience options: unknown keys fail here, not when the
        # supervisor is first consulted.
        self.resilience_config()
        if self.detector:
            # Imported lazily so parsing detector-less configs stays light.
            from repro.detection.base import DETECTOR_REGISTRY, _ensure_builtin_detectors, normalize_detector_name

            _ensure_builtin_detectors()
            if normalize_detector_name(self.detector) not in DETECTOR_REGISTRY:
                raise ConfigurationError(
                    f"unknown detector '{self.detector}'; "
                    f"choose from {sorted(DETECTOR_REGISTRY)}"
                )
            if not shape.byzantine or shape.servers != "single":
                reason = (
                    "it is a fault-oblivious baseline"
                    if not shape.byzantine
                    else "its server replicas have no replica-local ReputationBook"
                )
                raise ConfigurationError(
                    f"detector '{self.detector}' is not supported by deployment "
                    f"'{self.deployment}': {reason} (supported: one Byzantine-tolerant "
                    "server, e.g. ssmw, aggregathor)"
                )
        # Spelled as init_gar accepts them ("multi_krum", "Median"), kept canonical.
        self.gradient_gar, self.model_gar = (name.lower().replace("_", "-") for name in (self.gradient_gar, self.model_gar))
        if self.gradient_gar not in GAR_REGISTRY:
            raise ConfigurationError(f"unknown gradient GAR '{self.gradient_gar}'")
        if self.model_gar not in GAR_REGISTRY:
            raise ConfigurationError(f"unknown model GAR '{self.model_gar}'")
        if not isinstance(self.shards, int) or isinstance(self.shards, bool) or self.shards < 1:
            raise ConfigurationError("shards must be a positive integer")
        if self.shards > 1:
            if not shape.shardable:
                raise ConfigurationError(
                    f"sharded aggregation (shards={self.shards}) needs a shardable gradient "
                    f"phase (e.g. 'msmw'), which '{self.deployment}' does not declare"
                )
            if self.shards > self.num_servers:
                raise ConfigurationError(
                    f"shards={self.shards} exceeds the {self.num_servers} server replicas "
                    "that own them (need shards <= num_servers)"
                )
            from repro.sharding.aggregation import supports_sharding

            if not supports_sharding(self.gradient_gar):
                raise ConfigurationError(
                    f"gradient GAR '{self.gradient_gar}' does not shard: it is neither "
                    "coordinate-wise nor covered by the two-phase distance protocol "
                    "(see docs/sharding.md)"
                )

        if shape.servers == "single":
            if self.num_servers != 1:
                raise ConfigurationError(f"{self.deployment} uses exactly one parameter server")
            if self.num_byzantine_servers != 0:
                raise ConfigurationError(f"{self.deployment} assumes a trusted server (f_ps = 0)")
        elif shape.servers == "per-worker":
            # Every worker owns its server: no distinct servers to count.
            self.num_servers = 0
        shape.check_replicas(self.num_servers, self.num_byzantine_servers)
        if shape.model_phase and shape.model_quorum(self) == 0:
            raise ConfigurationError(
                f"{self.deployment} exchanges models between servers, but this cluster's "
                "servers have no peer to pull a model from"
            )

        # The resilience condition of every GAR the deployment runs, as its
        # shape sizes it: the gradient rule, and the model rule wherever
        # replicas exchange models.
        for inputs, rule in (("gradients", shape.gradient_rule(self)), ("models", shape.model_rule(self))):
            if rule is None:
                continue
            name, n, f = rule
            needed = GAR_REGISTRY[name].minimum_inputs(f)
            if n < needed:
                raise ConfigurationError(
                    f"GAR '{name}' needs at least {needed} {inputs} to tolerate f={f}, "
                    f"but the deployment only collects {n}"
                )

    @classmethod
    def fitted(cls, deployment: str, **fields) -> "ClusterConfig":
        """``deployment`` on the cluster ``fields`` describe, its server counts
        fitted to the deployment's layout.

        A ``single`` layout gets its one trusted server (``n_ps = 1``,
        ``f_ps = 0``), a ``per-worker`` layout no distinct server (0 and 0,
        as :meth:`validate` sets), and ``replicas`` keep the given counts.
        Everything else is validated as given, so a cluster too small for
        the deployment's rules raises validate's :class:`ConfigurationError`.
        """
        from repro.core.session import strategy_class

        layout = strategy_class(deployment).shape.servers
        if layout != "replicas":
            fields.update(num_servers=int(layout == "single"), num_byzantine_servers=0)
        return cls(deployment=deployment, **fields)

    def build_gars(self) -> Tuple[GAR, Optional[GAR]]:
        """The ``(gradient GAR, model GAR or None)`` the deployment runs, sized
        by its shape's rules; the Controller builds them and the analytic
        model prices them."""
        model_rule = self.shape.model_rule(self)
        return init_gar(*self.shape.gradient_rule(self)), None if model_rule is None else init_gar(*model_rule)

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> DeploymentShape:
        """The registered strategy's declared :class:`DeploymentShape`."""
        from repro.core.session import strategy_class

        return strategy_class(self.deployment).shape

    def node_ids(self) -> Tuple[List[str], List[str]]:
        """The ``(worker ids, server ids)`` this deployment builds.

        The one place the roster is spelled.  A per-worker layout
        (decentralized) has no distinct servers: every worker owns a server
        object.
        """
        num_servers = self.num_workers if self.shape.servers == "per-worker" else self.num_servers
        return (
            [f"worker-{index}" for index in range(self.num_workers)],
            [f"server-{index}" for index in range(num_servers)],
        )

    def machines(self) -> Dict[str, str]:
        """Which machine each node of :meth:`node_ids` runs on, named after
        the machine's first node.

        The one place the placement is decided: in a per-worker layout
        ``server-k`` runs on ``worker-k``'s machine; every other node has a
        machine of its own.
        """
        workers, servers = self.node_ids()
        return dict(zip(workers + servers, workers + (workers if self.shape.servers == "per-worker" else servers)))

    def byzantine_ids(self) -> List[str]:
        """The ids of the attacking nodes this deployment builds, workers first.

        The last ``num_attacking_workers`` workers attack, and so do the last
        ``num_attacking_servers`` servers (in a per-worker layout, the server
        object of every attacking worker).
        """
        workers, servers = self.node_ids()
        attacking_servers = (
            self.num_attacking_workers if self.shape.servers == "per-worker" else self.num_attacking_servers
        )
        return workers[len(workers) - self.num_attacking_workers :] + servers[len(servers) - attacking_servers :]

    def gradient_quorum(self) -> int:
        """How many gradients a server waits for per iteration (:meth:`DeploymentShape.gradient_quorum`)."""
        return self.shape.gradient_quorum(self)

    def resilience_config(self):
        """The validated :class:`repro.network.resilience.ResilienceConfig`."""
        from repro.network.resilience import ResilienceConfig

        return ResilienceConfig.from_value(self.resilience)

    def model_quorum(self) -> int:
        """How many peer models a server replica waits for (:meth:`DeploymentShape.model_quorum`)."""
        return self.shape.model_quorum(self)

    @property
    def effective_batch_size(self) -> int:
        return self.batch_size * self.num_workers

    # ------------------------------------------------------------------ #
    # (De)serialization — the Controller's "parsing experiment parameters".
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """Plain-dict representation of the configuration."""
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        """JSON representation of the configuration."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "ClusterConfig":
        """Build (and validate) a configuration from a plain dict.

        Unknown keys raise :class:`ConfigurationError` so typos in experiment
        files fail loudly instead of silently using defaults.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown configuration keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ClusterConfig":
        """Build a configuration from its JSON representation."""
        return cls.from_dict(json.loads(text))
