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
from typing import Dict, List, Tuple

from repro.aggregators.base import GAR_REGISTRY
from repro.core.executor import EXECUTOR_REGISTRY
from repro.exceptions import ConfigurationError
from repro.network.cost import DEVICES, FRAMEWORKS
from repro.network.serialization import parse_wire_format
from repro.network.topology import DEPLOYMENTS


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
    #: (deterministic, in-order — the default, used by tests) or
    #: ``"threaded"`` (concurrent service of independent peers; still
    #: deterministic because all randomness is pre-sampled by the transport).
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
    #: ``"base[+delta][+zlib|+zstd]"`` with base one of ``float64`` (the
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
        if self.deployment not in DEPLOYMENTS:
            # Third-party strategies registered via @register_application are
            # first-class deployments too; the structural checks below only
            # constrain the six bundled shapes.
            from repro.core.session import is_registered_application

            if not is_registered_application(self.deployment):
                raise ConfigurationError(
                    f"unknown deployment '{self.deployment}'; bundled: {DEPLOYMENTS} "
                    "(or register a RoundStrategy with @register_application)"
                )
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
        if self.dataset_size < 1:
            raise ConfigurationError("dataset_size must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigurationError("test_fraction must lie strictly between 0 and 1")
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
        # Fail at validation time, not mid-round: unknown tokens and
        # unavailable compressors (+zstd without the module) are both errors.
        parse_wire_format(self.wire_format, require_available=True)
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
            if self.deployment in ("vanilla", "crash-tolerant", "msmw", "decentralized"):
                reason = (
                    "it is a fault-oblivious baseline"
                    if self.deployment in ("vanilla", "crash-tolerant")
                    else "its server replicas have no replica-local ReputationBook"
                )
                raise ConfigurationError(
                    f"detector '{self.detector}' is not supported by deployment "
                    f"'{self.deployment}': {reason} (supported: ssmw, aggregathor)"
                )
        if self.gradient_gar not in GAR_REGISTRY:
            raise ConfigurationError(f"unknown gradient GAR '{self.gradient_gar}'")
        if self.model_gar not in GAR_REGISTRY:
            raise ConfigurationError(f"unknown model GAR '{self.model_gar}'")
        if not isinstance(self.shards, int) or isinstance(self.shards, bool) or self.shards < 1:
            raise ConfigurationError("shards must be a positive integer")
        if self.shards > 1:
            if self.deployment != "msmw":
                raise ConfigurationError(
                    f"sharded aggregation (shards={self.shards}) is only supported by the "
                    f"'msmw' deployment, not '{self.deployment}'"
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

        if self.deployment in ("vanilla", "aggregathor", "ssmw"):
            if self.num_servers != 1:
                raise ConfigurationError(f"{self.deployment} uses exactly one parameter server")
            if self.num_byzantine_servers != 0:
                raise ConfigurationError(f"{self.deployment} assumes a trusted server (f_ps = 0)")
        if self.deployment in ("crash-tolerant", "msmw"):
            if self.num_servers < 2:
                raise ConfigurationError(f"{self.deployment} needs at least two server replicas")
            if not 0 <= self.num_byzantine_servers < self.num_servers:
                raise ConfigurationError("need 0 <= f_ps < n_ps")
        if self.deployment == "decentralized" and self.num_servers != 0:
            # The decentralized app has no distinct servers; normalise silently.
            self.num_servers = 0

        # GAR resilience conditions on the gradient side.
        gar_cls = GAR_REGISTRY[self.gradient_gar]
        q_gradients = self.gradient_quorum()
        if q_gradients < gar_cls.minimum_inputs(self.num_byzantine_workers):
            raise ConfigurationError(
                f"GAR '{self.gradient_gar}' needs at least "
                f"{gar_cls.minimum_inputs(self.num_byzantine_workers)} gradients to tolerate "
                f"f_w={self.num_byzantine_workers}, but the deployment only collects {q_gradients}"
            )
        # ... and on the model side wherever replicas exchange models.
        if self.deployment in ("msmw", "decentralized"):
            needed = GAR_REGISTRY[self.model_gar].minimum_inputs(self.model_f())
            q_models = self.model_quorum() + 1  # peers plus own model
            if q_models < needed:
                raise ConfigurationError(
                    f"GAR '{self.model_gar}' needs at least {needed} models to tolerate "
                    f"f={self.model_f()} Byzantine replicas, but the deployment only "
                    f"aggregates {q_models}"
                )

    # ------------------------------------------------------------------ #
    def node_ids(self) -> Tuple[List[str], List[str]]:
        """The ``(worker ids, server ids)`` this deployment builds.

        The one place the roster is spelled.  The decentralized application
        has no distinct servers: every worker owns a server object.
        """
        num_servers = self.num_workers if self.deployment == "decentralized" else self.num_servers
        return (
            [f"worker-{index}" for index in range(self.num_workers)],
            [f"server-{index}" for index in range(num_servers)],
        )

    def gradient_quorum(self) -> int:
        """How many gradients a server waits for per iteration.

        Synchronous deployments wait for all workers; asynchronous ones (and
        the decentralized application, per Listing 3) wait only for the
        fastest ``n_w - f_w``.  The fault-oblivious baselines (vanilla,
        crash-tolerant) wait for everyone whatever the asynchronous flag says.
        """
        if self.deployment in ("vanilla", "crash-tolerant"):
            return self.num_workers
        if self.asynchronous or self.deployment == "decentralized":
            return self.num_workers - self.num_byzantine_workers
        return self.num_workers

    def resilience_config(self):
        """The validated :class:`repro.network.resilience.ResilienceConfig`."""
        from repro.network.resilience import ResilienceConfig

        return ResilienceConfig.from_value(self.resilience)

    def model_f(self) -> int:
        """The Byzantine replicas the model GAR tolerates: ``f_ps``, or ``f_w``
        where every node is a replica (decentralized)."""
        if self.deployment == "decentralized":
            return self.num_byzantine_workers
        return self.num_byzantine_servers

    def model_quorum(self) -> int:
        """How many peer models a server replica waits for per iteration."""
        if self.deployment == "decentralized":
            return max(1, self.num_workers - self.num_byzantine_workers - 1)
        if self.num_servers <= 1:
            return 0
        if self.asynchronous:
            return max(1, self.num_servers - self.num_byzantine_servers - 1)
        return self.num_servers - 1

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
