"""Declarative chaos scenarios: round-indexed failure/attack timelines.

GARFIELD's claim is that Byzantine-resilient SGD keeps converging under *real*
failure dynamics — crashes and recoveries mid-training, stragglers that come
and go, message loss, network partitions, attacks that switch on after warmup
— yet static configuration can only turn these on at startup.  This module
makes those regimes first-class, reproducible workloads:

* :class:`ScenarioSpec` — a validated, JSON-serializable description of a
  timeline of :class:`ScenarioEvent`\\ s (``crash``, ``recover``,
  ``straggler``, ``clear_straggler``, ``drop_rate``, ``partition``, ``heal``,
  ``attack_start``, ``attack_stop``, ``byzantine_count``, and — for
  detector-enabled deployments — ``evict`` / ``readmit``), plus the
  :class:`~repro.core.cluster.ClusterConfig` overrides the scenario expects.
* :class:`ScenarioDirector` — applies the events scheduled for a round at the
  round boundary by driving the deployment's
  :class:`~repro.network.failures.FailureInjector`, its Byzantine nodes'
  attack objects and the cluster state.  The session round engine
  (:mod:`repro.core.session`) calls ``deployment.begin_round(iteration)``
  before any phase of a round runs, which invokes the director; the round's
  :class:`~repro.core.metrics.Trace` entry is written once it completed, from
  its ``RoundResult``.
* :data:`SCENARIO_LIBRARY` — the bundled named scenarios
  (``calm_baseline``, ``crash_quorum_edge``, ``attack_onset_mid_training``,
  ``straggler_storm``, ``partition_heal``, ``churn_at_f_bound``,
  ``detection_evicts_attackers``) that the CLI exposes via
  ``repro run --scenario <name>`` and the golden-trace regression suite locks
  down.

Determinism: the director runs on the driving thread at round boundaries,
before any RPC of that round is planned; everything stochastic it introduces
(new attack objects) is seeded from the cluster seed.  A fixed seed therefore
yields a bit-identical :class:`~repro.core.metrics.Trace` under both the
serial and the threaded executor.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.attacks import available_attacks, build_attack
from repro.exceptions import ConfigurationError

#: Every action a scenario event may carry.
ACTIONS = frozenset(
    {
        "crash",
        "recover",
        "straggler",
        "clear_straggler",
        "drop_rate",
        "partition",
        "heal",
        "attack_start",
        "attack_stop",
        "byzantine_count",
        "evict",
        "readmit",
    }
)

#: Actions that must name a target node.
TARGETED_ACTIONS = frozenset(
    {"crash", "recover", "straggler", "clear_straggler", "evict", "readmit"}
)

#: Actions that require a detection manager on the deployment (a forced
#: transition pins the reputation book's score, which only detector runs have).
DETECTION_ACTIONS = frozenset({"evict", "readmit"})

#: Actions that must carry a value.
VALUED_ACTIONS = frozenset({"straggler", "drop_rate", "partition", "byzantine_count"})


@dataclass
class ScenarioEvent:
    """One round-indexed reconfiguration of the cluster."""

    round: int
    action: str
    target: Optional[str] = None
    value: Any = None

    def __post_init__(self) -> None:
        if isinstance(self.round, bool) or not isinstance(self.round, int) or self.round < 0:
            raise ConfigurationError(f"event round must be a non-negative int, got {self.round!r}")
        if self.action not in ACTIONS:
            raise ConfigurationError(
                f"unknown scenario action '{self.action}'; choose from {sorted(ACTIONS)}"
            )
        if self.action in TARGETED_ACTIONS and not self.target:
            raise ConfigurationError(f"action '{self.action}' requires a target node id")
        if self.action in VALUED_ACTIONS and self.value is None:
            raise ConfigurationError(f"action '{self.action}' requires a value")

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Compact dict form: ``None`` fields are omitted."""
        data: Dict[str, Any] = {"round": self.round, "action": self.action}
        if self.target is not None:
            data["target"] = self.target
        if self.value is not None:
            data["value"] = self.value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioEvent":
        unknown = set(data) - {"round", "action", "target", "value"}
        if unknown:
            raise ConfigurationError(f"unknown scenario event keys: {sorted(unknown)}")
        if "round" not in data or "action" not in data:
            raise ConfigurationError("scenario events need at least 'round' and 'action'")
        return cls(
            round=data["round"],
            action=data["action"],
            target=data.get("target"),
            value=data.get("value"),
        )


@dataclass
class ScenarioSpec:
    """A named, validated timeline of events plus its expected cluster shape.

    ``config`` holds :class:`~repro.core.cluster.ClusterConfig` field
    overrides describing the cluster the scenario was written for (sizes,
    quorums, GARs); :func:`config_for_scenario` merges them over caller
    defaults so the scenario's regime always wins.
    """

    name: str
    description: str = ""
    config: Dict[str, Any] = field(default_factory=dict)
    events: List[ScenarioEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenarios need a non-empty name")
        # Stable sort: rounds ascending, declaration order within a round.
        self.events = sorted(self.events, key=lambda e: e.round)

    # ------------------------------------------------------------------ #
    def events_at(self, round_index: int) -> List[ScenarioEvent]:
        return [event for event in self.events if event.round == round_index]

    @property
    def last_round(self) -> int:
        return max((event.round for event in self.events), default=-1)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "config": dict(self.config),
            "events": [event.to_dict() for event in self.events],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        unknown = set(data) - {"name", "description", "config", "events"}
        if unknown:
            raise ConfigurationError(f"unknown scenario keys: {sorted(unknown)}")
        events = data.get("events", [])
        if not isinstance(events, list):
            raise ConfigurationError("scenario 'events' must be a list")
        return cls(
            name=data.get("name", ""),
            description=data.get("description", ""),
            config=dict(data.get("config", {})),
            events=[ScenarioEvent.from_dict(event) for event in events],
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def _is_number(value: Any) -> bool:
    """A real number that is not a bool (``True`` is an ``int`` in Python)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def normalized_islands(value: Any) -> List[List[str]]:
    """Structurally validate a ``partition`` event value and normalize it.

    Accepts either one island (a flat list of node ids) or a list of islands
    and returns the list-of-islands form.  Raises
    :class:`~repro.exceptions.ConfigurationError` for anything
    :meth:`~repro.network.failures.FailureInjector.set_partition` would later
    reject at apply time (non-list values, empty islands, non-string members,
    one node claimed by two islands), so malformed partitions fail at
    validation time instead of mid-run.
    """
    islands = value
    if not isinstance(islands, (list, tuple)):
        raise ConfigurationError(
            "partition value must be a list of node ids or a list of islands"
        )
    if islands and isinstance(islands[0], str):
        islands = [islands]
    seen: Dict[str, int] = {}
    normalized: List[List[str]] = []
    for index, island in enumerate(islands):
        if not isinstance(island, (list, tuple)):
            raise ConfigurationError("partition islands must be lists of node ids")
        if not island:
            raise ConfigurationError("partition islands must be non-empty")
        members: List[str] = []
        for node_id in island:
            if not isinstance(node_id, str) or not node_id:
                raise ConfigurationError("partition islands must contain node ids")
            if node_id in seen and seen[node_id] != index:
                raise ConfigurationError(
                    f"node '{node_id}' appears in two partition islands"
                )
            seen[node_id] = index
            members.append(node_id)
        normalized.append(members)
    return normalized


def validate_timeline(
    spec: ScenarioSpec,
    known_nodes,
    *,
    byzantine_ids=(),
    max_byzantine_count: int = 0,
) -> None:
    """Validate a spec's whole timeline against a cluster roster.

    Performs the per-event structural checks (unknown targets, out-of-range
    values, unknown attack names) *and* stateful timeline-coherence checks by
    replaying the events in application order:

    * crashing a node that is already crashed (the earlier ``crash`` was
      never followed by a ``recover``) is rejected;
    * recovering a node that is not crashed is rejected;
    * malformed partitions (empty islands, a node in two islands, unknown
      members) are rejected here, at validation time, rather than surfacing
      as untyped ``ValueError``\\ s when the round boundary applies them.

    Raises :class:`~repro.exceptions.ConfigurationError` — the same loud,
    typed failure the rest of the configuration surface uses.  Pure function:
    callers that only hold a roster (the fuzzing harness, property tests) can
    validate without building a deployment.
    """
    known = set(known_nodes)
    byzantine = set(byzantine_ids)
    crashed: set = set()
    for event in spec.events:
        action = event.action
        if event.target is not None and event.target not in known:
            raise ConfigurationError(
                f"scenario '{spec.name}' targets unknown node '{event.target}'"
            )
        if action == "crash":
            if event.target in crashed:
                raise ConfigurationError(
                    f"scenario '{spec.name}' crashes '{event.target}' at round "
                    f"{event.round} but it is already crashed (missing recover)"
                )
            crashed.add(event.target)
        if action == "recover":
            if event.target not in crashed:
                raise ConfigurationError(
                    f"scenario '{spec.name}' recovers '{event.target}' at round "
                    f"{event.round} but it is not crashed at that point"
                )
            crashed.discard(event.target)
        if action == "straggler" and not (_is_number(event.value) and event.value >= 1.0):
            raise ConfigurationError("straggler events need a factor >= 1.0")
        if action == "drop_rate" and not (
            _is_number(event.value) and 0.0 <= event.value < 1.0
        ):
            raise ConfigurationError("drop_rate events need a probability in [0, 1)")
        if action == "partition":
            for island in normalized_islands(event.value):
                for node_id in island:
                    if node_id not in known:
                        raise ConfigurationError(
                            f"partition island names unknown node '{node_id}'"
                        )
        if action == "byzantine_count":
            if (
                isinstance(event.value, bool)
                or not isinstance(event.value, int)
                or not (0 <= event.value <= max_byzantine_count)
            ):
                raise ConfigurationError(
                    f"byzantine_count must be an int in [0, "
                    f"{max_byzantine_count}], got {event.value!r}"
                )
        if action in ("attack_start", "attack_stop"):
            if event.target is not None and event.target not in byzantine:
                raise ConfigurationError(
                    f"'{action}' target '{event.target}' is not a Byzantine node"
                )
            if event.target is None and not byzantine:
                raise ConfigurationError(
                    f"scenario '{spec.name}' toggles attacks but the "
                    "deployment declares no Byzantine nodes"
                )
        if action == "attack_start" and event.value is not None:
            if event.value not in available_attacks():
                raise ConfigurationError(
                    f"attack_start names unknown attack '{event.value}'"
                )


class ScenarioDirector:
    """Applies a :class:`ScenarioSpec` to a live deployment, round by round.

    The director validates the whole timeline against the deployment at
    construction (unknown targets, out-of-range values and impossible
    ``byzantine_count`` changes fail fast, before any training step runs) and
    then replays the events scheduled for each round when
    :meth:`apply` is called at the round boundary.
    """

    def __init__(self, spec: ScenarioSpec, deployment) -> None:
        # Imported lazily: byzantine -> server/worker -> transport does not
        # import this module, but keeping the director import-light lets
        # scenario specs be parsed without pulling in the full object model.
        from repro.core.byzantine import ByzantineServer, ByzantineWorker

        self.spec = spec
        self.deployment = deployment
        self.failures = deployment.transport.failures
        self.byzantine_workers = [
            w for w in deployment.workers if isinstance(w, ByzantineWorker)
        ]
        self.byzantine_servers = [
            s for s in deployment.servers if isinstance(s, ByzantineServer)
        ]
        #: Flat event log of everything applied so far (compact dict form).
        self.applied: List[Dict[str, Any]] = []
        self._validate()

    # ------------------------------------------------------------------ #
    @property
    def byzantine_nodes(self) -> List[Any]:
        return [*self.byzantine_workers, *self.byzantine_servers]

    def _byzantine_ids(self) -> List[str]:
        return [node.node_id for node in self.byzantine_nodes]

    def _validate(self) -> None:
        validate_timeline(
            self.spec,
            self.deployment.transport.known_nodes(),
            byzantine_ids=self._byzantine_ids(),
            max_byzantine_count=len(self.byzantine_workers),
        )
        # Membership events need the detection manager (and a worker target).
        # Statefulness (evicting an already-evicted worker) is deliberately
        # *not* checked here: detector-driven transitions interleave with the
        # forced ones, so the timeline cannot be replayed statically — the
        # manager treats redundant forced transitions as no-ops instead.
        detection_events = [
            event for event in self.spec.events if event.action in DETECTION_ACTIONS
        ]
        if detection_events:
            detection = getattr(self.deployment, "detection", None)
            if detection is None:
                raise ConfigurationError(
                    f"scenario '{self.spec.name}' uses evict/readmit events but "
                    "the deployment has no detector (set ClusterConfig.detector)"
                )
            roster = set(detection.roster)
            for event in detection_events:
                if event.target not in roster:
                    raise ConfigurationError(
                        f"'{event.action}' target '{event.target}' is not a "
                        "worker in the detection roster"
                    )

    # ------------------------------------------------------------------ #
    def apply(self, round_index: int) -> List[Dict[str, Any]]:
        """Apply every event scheduled for ``round_index``; return them."""
        applied: List[Dict[str, Any]] = []
        for event in self.spec.events_at(round_index):
            self._apply_event(event)
            applied.append(event.to_dict())
        self.applied.extend(applied)
        return applied

    @property
    def _backend(self):
        """The transport's delivery backend, target of process-level control.

        The in-process backend only drops a crashed node's delta streams; the
        socket backend maps ``crash`` onto snapshot + SIGKILL of the node's
        subprocess, ``recover`` onto respawn + state restore, and attack
        toggles onto control RPCs to the hosting process.
        """
        return self.deployment.transport.backend

    def _apply_event(self, event: ScenarioEvent) -> None:
        action = event.action
        if action == "crash":
            self.failures.crash(event.target)
            self._backend.apply_control(event.target, "crash")
        elif action == "recover":
            self.failures.recover(event.target)
            self._backend.apply_control(event.target, "recover")
        elif action == "straggler":
            self.failures.set_straggler(event.target, float(event.value))
        elif action == "clear_straggler":
            self.failures.clear_straggler(event.target)
        elif action == "drop_rate":
            self.failures.set_drop_rate(float(event.value))
        elif action == "partition":
            self.failures.set_partition(event.value)
        elif action == "heal":
            self.failures.heal_partition()
        elif action == "attack_start":
            self._set_attacks(event, active=True)
        elif action == "attack_stop":
            self._set_attacks(event, active=False)
        elif action == "byzantine_count":
            for index, worker in enumerate(self.byzantine_workers):
                active = index < event.value
                worker.attack_active = active
                self._backend.apply_control(worker.node_id, "set_attack", active=active)
        elif action == "evict":
            # Validated at construction: detection is present.  The manager
            # honours the quorum-safety guard, so a forced eviction that
            # would starve the GAR degrades to down-weighting.
            self.deployment.detection.force_evict(event.round, event.target)
        elif action == "readmit":
            self.deployment.detection.force_readmit(event.round, event.target)
        else:  # pragma: no cover - unreachable, ACTIONS is validated upstream
            raise ConfigurationError(f"unhandled scenario action '{action}'")

    def _set_attacks(self, event: ScenarioEvent, active: bool) -> None:
        all_nodes = self.byzantine_nodes
        nodes = all_nodes
        if event.target is not None:
            nodes = [node for node in nodes if node.node_id == event.target]
        seed = self.deployment.config.seed
        for node in nodes:
            attack_seed = None
            if active and event.value is not None:
                # Seed from the node's position in the full Byzantine roster
                # (not the filtered target list), so same-round per-target
                # events still give distinct nodes uncorrelated attack RNGs
                # while staying deterministic across executors.
                index = all_nodes.index(node)
                attack_seed = seed + 131 * event.round + 17 * index
                node.attack = build_attack(event.value, seed=attack_seed)
            node.attack_active = active
            # Mirror the toggle into the node's subprocess (no-op in-process);
            # the resolved seed ships with it so the remote attack RNG starts
            # from exactly the same state as the local rebuild above.
            self._backend.apply_control(
                node.node_id,
                "set_attack",
                active=active,
                attack=event.value if attack_seed is not None else None,
                seed=attack_seed if attack_seed is not None else 0,
            )


# ---------------------------------------------------------------------- #
# Bundled scenario library
# ---------------------------------------------------------------------- #

#: Cluster shape shared by the bundled scenarios: a logistic model on a small
#: synthetic MNIST so every scenario runs in well under a second.
_BASE_CONFIG: Dict[str, Any] = {
    "model": "logistic",
    "dataset": "mnist",
    "dataset_size": 200,
    "batch_size": 8,
    "learning_rate": 0.2,
    "num_iterations": 8,
    "accuracy_every": 4,
    "seed": 7,
}


def _spec(name: str, description: str, config: Dict[str, Any], events: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "name": name,
        "description": description,
        "config": {**_BASE_CONFIG, **config},
        "events": events,
    }


_LIBRARY_DATA: List[Dict[str, Any]] = [
    _spec(
        "calm_baseline",
        "No injected events: the reference trace every chaotic scenario is read against.",
        {
            "deployment": "ssmw",
            "num_workers": 6,
            "num_byzantine_workers": 1,
            "num_attacking_workers": 1,
            "worker_attack": "reversed",
            "gradient_gar": "multi-krum",
        },
        [],
    ),
    _spec(
        "crash_quorum_edge",
        "Crashes shrink the live-worker count to exactly the n - f asynchronous "
        "quorum, then the workers recover.",
        {
            "deployment": "ssmw",
            "asynchronous": True,
            "num_workers": 7,
            "num_byzantine_workers": 2,
            "gradient_gar": "median",
        },
        [
            {"round": 2, "action": "crash", "target": "worker-0"},
            {"round": 3, "action": "crash", "target": "worker-1"},
            {"round": 5, "action": "recover", "target": "worker-0"},
            {"round": 6, "action": "recover", "target": "worker-1"},
        ],
    ),
    _spec(
        "attack_onset_mid_training",
        "Byzantine workers behave honestly during warmup, then switch to the "
        "reversed-gradient attack mid-training.",
        {
            "deployment": "ssmw",
            "num_workers": 7,
            "num_byzantine_workers": 2,
            "num_attacking_workers": 2,
            "worker_attack": "reversed",
            "gradient_gar": "multi-krum",
        },
        [
            {"round": 0, "action": "attack_stop"},
            {"round": 4, "action": "attack_start", "value": "reversed"},
        ],
    ),
    _spec(
        "straggler_storm",
        "Two workers slow down by 25-40x while the link turns lossy, then the "
        "storm clears.",
        {
            "deployment": "ssmw",
            "asynchronous": True,
            "num_workers": 6,
            "num_byzantine_workers": 1,
            "gradient_gar": "median",
        },
        [
            {"round": 1, "action": "straggler", "target": "worker-0", "value": 40.0},
            {"round": 2, "action": "straggler", "target": "worker-1", "value": 25.0},
            {"round": 3, "action": "drop_rate", "value": 0.02},
            {"round": 5, "action": "clear_straggler", "target": "worker-0"},
            {"round": 5, "action": "clear_straggler", "target": "worker-1"},
            {"round": 6, "action": "drop_rate", "value": 0.0},
        ],
    ),
    _spec(
        "partition_heal",
        "Two workers are partitioned away from the replicated servers, then the "
        "partition heals.",
        {
            "deployment": "msmw",
            "asynchronous": True,
            "num_workers": 7,
            "num_byzantine_workers": 2,
            "num_servers": 3,
            "num_byzantine_servers": 0,
            "gradient_gar": "median",
            "model_gar": "median",
        },
        [
            {"round": 2, "action": "partition", "value": [["worker-5", "worker-6"]]},
            {"round": 5, "action": "heal"},
        ],
    ),
    _spec(
        "churn_at_f_bound",
        "Honest workers crash and recover while the number of actively malicious "
        "workers churns between 0 and the declared f.",
        {
            "deployment": "ssmw",
            "asynchronous": True,
            "num_workers": 8,
            "num_byzantine_workers": 2,
            "num_attacking_workers": 2,
            "worker_attack": "reversed",
            "gradient_gar": "median",
        },
        [
            {"round": 0, "action": "byzantine_count", "value": 1},
            {"round": 2, "action": "crash", "target": "worker-0"},
            {"round": 3, "action": "crash", "target": "worker-1"},
            {"round": 4, "action": "byzantine_count", "value": 2},
            {"round": 5, "action": "recover", "target": "worker-0"},
            {"round": 6, "action": "recover", "target": "worker-1"},
            {"round": 7, "action": "byzantine_count", "value": 0},
        ],
    ),
    _spec(
        "detection_evicts_attackers",
        "Online detection in front of a plain average: reversed-gradient "
        "attackers are scored, down-weighted and evicted mid-run, while forced "
        "evict/readmit events exercise the membership lifecycle on an honest "
        "worker.",
        {
            "deployment": "ssmw",
            "num_workers": 6,
            "num_byzantine_workers": 2,
            "num_attacking_workers": 2,
            "worker_attack": "reversed",
            "gradient_gar": "average",
            "detector": "distance",
            "num_iterations": 10,
            "accuracy_every": 5,
        },
        [
            {"round": 1, "action": "evict", "target": "worker-0"},
            {"round": 4, "action": "readmit", "target": "worker-0"},
        ],
    ),
]

SCENARIO_LIBRARY: Dict[str, ScenarioSpec] = {
    data["name"]: ScenarioSpec.from_dict(data) for data in _LIBRARY_DATA
}


def available_scenarios() -> List[str]:
    """Names of the bundled scenarios."""
    return sorted(SCENARIO_LIBRARY)


def load_scenario(ref: str) -> ScenarioSpec:
    """Resolve a scenario reference: a bundled name or a JSON file path."""
    if ref in SCENARIO_LIBRARY:
        return copy.deepcopy(SCENARIO_LIBRARY[ref])
    path = Path(ref)
    if path.is_file():
        return ScenarioSpec.load(path)
    raise ConfigurationError(
        f"unknown scenario '{ref}'; bundled scenarios: {available_scenarios()} "
        "(or pass a path to a scenario JSON file)"
    )


def config_for_scenario(ref: str, **overrides):
    """Build the :class:`~repro.core.cluster.ClusterConfig` for a scenario.

    Caller ``overrides`` are applied first, then the scenario's own ``config``
    section — the scenario defines the failure regime, so its cluster shape
    always wins.  The returned config carries ``scenario=ref`` so the
    Controller wires up the director and trace recorder automatically.
    """
    from repro.core.cluster import ClusterConfig

    spec = load_scenario(ref)
    data = {**overrides, **spec.config, "scenario": ref}
    return ClusterConfig.from_dict(data)
