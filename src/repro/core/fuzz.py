"""Generative scenario fuzzing: seeded timelines + machine-checkable invariants.

The six golden traces lock six hand-written chaos timelines, but GARFIELD's
claim is tolerance of *arbitrary* crash/Byzantine behaviour up to the f-bound
— exactly the regime hand-picked scenarios undersample.  This module turns
that claim into a harness:

* :class:`ScenarioGenerator` — samples valid :class:`~repro.core.scenario.\
ScenarioSpec` timelines (crash/recover, stragglers, drop rates, partitions,
  attack onset/stop, Byzantine churn) from a constrained grammar, then the
  feature layers of :data:`LAYERS` (wire format, detector, resilience,
  shards), each kept only if :meth:`~repro.core.cluster.ClusterConfig.\
validate` accepts it.  Every case is derived from
  ``random.Random(f"{seed}/{index}")``, so a (seed, index) pair names one
  scenario forever — across runs, processes and refactors that keep the
  grammar (the seed-stability fixtures lock this).
  Every size is drawn from what the strategy declares in its
  :class:`~repro.core.cluster.DeploymentShape`, never from its name, so a
  registered third-party strategy is fuzzed like a bundled one.
* a **budget** knob per case — ``below`` / ``at`` / ``beyond`` the shape's
  fault margin (``f_w`` simultaneous worker crashes for a Byzantine-tolerant
  shape, ``n_ps - 1`` server crashes for a fault-oblivious one with server
  replicas).  Tolerated budgets must complete and converge; ``beyond``
  budgets must fail *loudly* — a typed :class:`~repro.exceptions.\
GarfieldError` or an explicit divergence flag, never a silently poisoned
  model.
* :class:`InvariantChecker` — runs a case through a
  :class:`~repro.core.session.Session` and judges it by the ordered table
  :data:`INVARIANT_CHECKS` of properties instead of goldens: exact gradient
  quorums, finite-or-flagged update norms, bounded norms under attack with a
  robust GAR, liveness and convergence under tolerated schedules, loud typed
  failure beyond the bound, trace determinism (same seed ⇒ byte-identical
  canonical JSON, across the serial and threaded executors, and between a
  sharded case and its unsharded twin), pause/resume equivalence mid-chaos
  and the reputation properties of online detection.
* :func:`shrink_events` — ddmin over the event timeline: when a case fails,
  the shrinker bisects the events down to a minimal spec that still
  reproduces the same invariant violation; the result is a scenario JSON
  replayable via ``repro run --scenario <file>``.
* :func:`run_campaign` — drives N generated cases through the checker and
  summarises them as a :class:`CampaignResult` (the ``FUZZ_report.json``
  payload of ``make fuzz``); the ``repro fuzz`` CLI verb wraps it.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.aggregators.base import GAR_REGISTRY
from repro.core.cluster import ClusterConfig, DeploymentShape
from repro.core.controller import Controller
from repro.core.metrics import Trace
from repro.core.scenario import ScenarioEvent, ScenarioSpec, validate_timeline
from repro.core.session import RoundResult, Session, strategy_class
from repro.detection.membership import EVICTED
from repro.exceptions import ConfigurationError, GarfieldError
from repro.exceptions import TimeoutError as ReproTimeoutError

# ---------------------------------------------------------------------- #
# Tunables (empirically calibrated on the logistic/MNIST fuzz experiment)
# ---------------------------------------------------------------------- #
#: Robustly aggregated update norms under a tolerated fault schedule stay in
#: the honest range (~15 for the fuzz experiment); this bound gives headroom
#: for quorum churn while still catching an attacker's vector leaking through
#: the GAR (the random attack draws components from N(0, 100)).
UPDATE_NORM_BOUND = 75.0
#: Tolerated schedules must end no worse than ``max(FLOOR, SLACK * first
#: evaluated loss)`` — chaos may slow convergence but must not undo it.
CONVERGENCE_SLACK = 1.25
CONVERGENCE_FLOOR = 0.75

#: The budget knob: below the fault margin, exactly at it, deliberately past it.
BUDGETS = ("below", "at", "beyond")

#: The deployments a generator samples by default, in the order the case
#: index cycles them.  ``deployments=`` takes any registered strategy whose
#: shape leaves a fault margin to spend; vanilla's does not (f = 0 on one
#: server: every budget is "beyond"), so the directed negative-path tests
#: exercise it instead.
FUZZ_DEPLOYMENTS = ("ssmw", "aggregathor", "msmw", "decentralized", "crash-tolerant")

#: The feature layers every case draws after its timeline, in draw order: each
#: layer's default first, then its other values.  A case keeps the default
#: about half the time; a drawn value that ``ClusterConfig.validate`` refuses
#: (detection outside ssmw / aggregathor, shards outside msmw or above the
#: replica count) keeps the default too.
LAYERS: Dict[str, Tuple[Any, ...]] = {
    "wire_format": ("float64", "float32", "int8+delta", "float16"),
    "detector": ("", "distance", "mad", "variance"),
    "resilience": ({}, {"retry": True, "hedge": True, "supervise": True}),
    "shards": (1, 2, 3, 4),
}

#: Small logistic/MNIST experiment shared by every generated case: one round
#: runs in milliseconds, so campaigns of hundreds of scenarios stay cheap.
_EXPERIMENT: Dict[str, Any] = {
    "model": "logistic",
    "dataset": "mnist",
    "dataset_size": 144,
    "batch_size": 8,
    "learning_rate": 0.2,
}
#: What a case draws its gradient GAR and its workers' attack from.
_GRADIENT_GARS = ("median", "krum", "multi-krum")
_WORKER_ATTACKS = ("reversed", "random", "little-is-enough")
#: The smallest cluster a case runs; the shape's rules grow it from here.
_MIN_WORKERS = 3


# ---------------------------------------------------------------------- #
# Cases
# ---------------------------------------------------------------------- #
@dataclass
class FuzzCase:
    """One generated scenario plus the oracle metadata the checker needs."""

    index: int
    seed: int
    deployment: str
    budget: str
    #: Simultaneous-fault margin of this deployment/config (see generator).
    margin: int
    #: How the budget was spent: ``crash``, ``partition``, ``server-crash``,
    #: ``worker-crash`` or ``calm``.
    mechanism: str
    spec: ScenarioSpec
    #: Tolerated schedule with no probabilistic message loss: the run must
    #: complete (liveness) and converge.
    guarantees_completion: bool
    #: ``beyond`` budgets must end in a typed failure or a divergence flag.
    expects_loud_failure: bool
    #: Layers whose drawn value ``ClusterConfig.validate`` refused.
    refused: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.spec.name

    def layer(self, name: str) -> Any:
        """The value this case runs feature layer ``name`` with."""
        return self.spec.config.get(name, LAYERS[name][0])

    def to_dict(self) -> Dict[str, Any]:
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name != "refused"}
        return {**data, "spec": self.spec.to_dict()}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzCase":
        """A case recorded by :meth:`to_dict`, replayed whatever the generator now draws."""
        return cls(**{**data, "spec": ScenarioSpec.from_dict(data["spec"])})


# ---------------------------------------------------------------------- #
# The generator
# ---------------------------------------------------------------------- #
def _has_margin(shape: DeploymentShape) -> bool:
    """Whether a shape tolerates any fault a case could spend."""
    return shape.byzantine or shape.servers == "replicas"


def _fault_pool(shape: DeploymentShape, config: Dict[str, Any]) -> Tuple[int, List[str]]:
    """The simultaneous faults a case may spend, and the nodes it spends them on.

    A Byzantine-tolerant shape spends ``f_w`` on its workers (a per-worker
    layout keeps ``worker-0``, which hosts the reporting node); a
    fault-oblivious one with server replicas spends ``n_ps - 1`` on them.
    """
    if shape.byzantine:
        first = 1 if shape.servers == "per-worker" else 0
        return config["num_byzantine_workers"], [f"worker-{i}" for i in range(first, config["num_workers"])]
    return config["num_servers"] - 1, [f"server-{i}" for i in range(config["num_servers"])]


def _meets(rule: Optional[Tuple[str, int, int]]) -> bool:
    """Whether a shape's ``(name, n, f)`` rule has the inputs its GAR needs."""
    return rule is None or rule[1] >= GAR_REGISTRY[rule[0]].minimum_inputs(rule[2])


def _replicas_fit(shape: DeploymentShape, sizes: SimpleNamespace) -> bool:
    """Whether ``sizes`` meets the shape's replica rule and its model rule."""
    try:
        shape.check_replicas(sizes.num_servers, sizes.num_byzantine_servers)
    except ConfigurationError:
        return False
    return _meets(shape.model_rule(sizes))


class ScenarioGenerator:
    """Seeded, deterministic sampler of valid chaos timelines.

    ``case(index)`` derives everything from ``random.Random(f"{seed}/{index}")``
    (``random.Random`` is stable across Python versions, unlike numpy's
    distribution methods), cycles deployments and budgets so any contiguous
    index range covers all of them evenly, draws the feature layers last (so
    adding one leaves every earlier draw of a case where it was), and
    self-checks each emitted spec with
    :func:`~repro.core.scenario.validate_timeline` — an invalid spec is a
    generator bug and raises immediately.
    """

    def __init__(
        self,
        seed: int = 0,
        deployments: Sequence[str] = FUZZ_DEPLOYMENTS,
        budgets: Sequence[str] = BUDGETS,
    ) -> None:
        if not deployments:
            raise ConfigurationError("the generator needs at least one deployment")
        for deployment in deployments:
            if not _has_margin(strategy_class(deployment).shape):
                raise ConfigurationError(
                    f"cannot fuzz deployment '{deployment}': its shape is fault-oblivious "
                    "on one server, so it has no fault margin to spend"
                )
        bad = set(budgets) - set(BUDGETS)
        if bad:
            raise ConfigurationError(f"unknown budgets {sorted(bad)}; choose from {BUDGETS}")
        self.seed = int(seed)
        self.deployments = tuple(deployments)
        self.budgets = tuple(budgets)

    # ------------------------------------------------------------------ #
    def case(self, index: int) -> FuzzCase:
        """The (deterministic) case at ``index``."""
        if index < 0:
            raise ConfigurationError("case indices are non-negative")
        rng = random.Random(f"{self.seed}/{index}")
        deployment = self.deployments[index % len(self.deployments)]
        budget = self.budgets[(index // len(self.deployments)) % len(self.budgets)]
        shape = strategy_class(deployment).shape
        config = self._sample_config(rng, deployment, shape)
        margin, pool = _fault_pool(shape, config)
        events, mechanism, guaranteed = self._sample_events(rng, shape, budget, config, margin, pool)
        refused = self._sample_layers(rng, config)
        spec = ScenarioSpec(
            name=f"fuzz-{self.seed}-{index}-{deployment}-{budget}",
            description=(
                f"generated case {index} (seed {self.seed}): {deployment} at "
                f"budget '{budget}' via {mechanism} (margin {margin})"
            ),
            config=config,
            events=events,
        )
        cluster = ClusterConfig.from_dict(dict(config))
        validate_timeline(  # a generator bug, not a fuzz finding — fail here
            spec, [node for ids in cluster.node_ids() for node in ids],
            byzantine_ids=cluster.byzantine_ids(), max_byzantine_count=cluster.num_attacking_workers,
        )
        return FuzzCase(
            index=index, seed=self.seed, deployment=deployment, budget=budget, margin=margin,
            mechanism=mechanism, spec=spec, guarantees_completion=guaranteed and budget != "beyond",
            expects_loud_failure=budget == "beyond", refused=refused,
        )

    def cases(self, count: int, start: int = 0) -> List[FuzzCase]:
        return [self.case(start + i) for i in range(count)]

    # ------------------------------------------------------------------ #
    @staticmethod
    def _sample_config(rng: random.Random, deployment: str, shape: DeploymentShape) -> Dict[str, Any]:
        """A valid ClusterConfig dict whose every size the shape's rules set.

        ``n_w`` is the smallest cluster whose gradient rule (and, where every
        worker owns a replica, model rule) meets its GAR's minimum; on server
        replicas ``n_ps`` is the smallest count the replica rule and the model
        rule accept at the drawn ``f_ps``.  Each gets 0 or 1 spare on top.
        """
        config: Dict[str, Any] = dict(
            deployment=deployment, **_EXPERIMENT, num_iterations=rng.randint(8, 12),
            accuracy_every=rng.choice((4, 5)), seed=rng.randint(0, 9999), asynchronous=True,
            num_byzantine_workers=0, model_gar="median",
        )
        if shape.byzantine:  # a fault-oblivious shape averages at f_w = 0
            # Where every worker owns a replica a round costs O(n_w^2) pulls,
            # so that layout keeps f_w = 1 and its clusters small.
            f_w = 1 if shape.servers == "per-worker" else rng.choice((1, 2))
            config.update(
                num_byzantine_workers=f_w, num_attacking_workers=rng.randint(0, f_w),
                worker_attack=rng.choice(_WORKER_ATTACKS), gradient_gar=rng.choice(_GRADIENT_GARS),
            )
        # One server has no peers, so a replica layout's model rule holds
        # until its replicas are sized below.
        sizes = SimpleNamespace(**config, num_workers=_MIN_WORKERS, num_servers=1, num_byzantine_servers=0)
        while not (_meets(shape.gradient_rule(sizes)) and _meets(shape.model_rule(sizes))):
            sizes.num_workers += 1
        config["num_workers"] = sizes.num_workers + rng.randint(0, 1)
        if shape.servers == "replicas":
            sizes.num_byzantine_servers = f_ps = rng.choice((0, 1)) if shape.model_phase else 0
            while not _replicas_fit(shape, sizes):
                sizes.num_servers += 1
            config.update(
                num_servers=sizes.num_servers + rng.randint(0, 1),
                num_byzantine_servers=f_ps,
                num_attacking_servers=rng.randint(0, f_ps),
            )
        return config

    @staticmethod
    def _sample_layers(rng: random.Random, config: Dict[str, Any]) -> Tuple[str, ...]:
        """Draw every feature layer into ``config``, in :data:`LAYERS` order.

        ``ClusterConfig.validate`` referees each draw against the config as
        drawn so far; returns the layers whose draw it refused.
        """
        refused = []
        for layer, (_, *others) in LAYERS.items():
            if rng.random() < 0.5:
                continue
            value = copy.deepcopy(rng.choice(others))
            try:
                ClusterConfig.from_dict({**config, layer: value})
            except ConfigurationError:
                refused.append(layer)
            else:
                config[layer] = value
        return tuple(refused)

    @staticmethod
    def _sample_events(
        rng: random.Random, shape: DeploymentShape, budget: str, config: Dict[str, Any],
        margin: int, pool: List[str],
    ) -> Tuple[List[ScenarioEvent], str, bool]:
        """The event timeline for one case; returns (events, mechanism, guaranteed)."""
        rounds = int(config["num_iterations"])
        workers = [f"worker-{i}" for i in range(int(config["num_workers"]))]
        attacking = int(config.get("num_attacking_workers", 0))
        events: List[ScenarioEvent] = []
        guaranteed = True
        mechanism = "calm"
        # The pool holds workers exactly when the shape is Byzantine-tolerant.
        crash = "crash" if shape.byzantine else "server-crash"

        def add(round_: int, action: str, target: Optional[str] = None, value: Any = None) -> None:
            events.append(ScenarioEvent(round_, action, target, value))

        def crash_window(targets: Sequence[str], *, recover: bool) -> None:
            start = rng.randint(1, max(1, rounds // 2))
            duration = rng.randint(1, 2)
            for target in targets:
                add(start, "crash", target)
                if recover:
                    add(min(start + duration, rounds - 1), "recover", target)

        if budget == "beyond":
            if ClusterConfig.from_dict(config).gradient_quorum() == len(workers) and rng.random() < 0.5:
                # Variant: one crashed worker starves a quorum of every worker.
                crash_window([rng.choice(workers)], recover=False)
                mechanism = "worker-crash"
            else:
                crash_window(rng.sample(pool, min(margin + 1, len(pool))), recover=False)
                mechanism = crash
            guaranteed = False
        elif budget == "at":
            if shape.byzantine and rng.random() < 0.4:
                # Spend the margin on a partition instead of crashes.
                island = rng.sample(pool, margin)
                start = rng.randint(1, rounds - 3)
                add(start, "partition", value=[island])
                add(start + rng.randint(1, 2), "heal")
                mechanism = "partition"
            else:
                crash_window(rng.sample(pool, margin), recover=True)
                mechanism = crash
        else:  # below
            spend = rng.randint(0, max(0, margin - 1))
            if spend:
                crash_window(rng.sample(pool, spend), recover=True)
                mechanism = crash

        # Garnish tolerated budgets with faults that cost no margin.
        if budget != "beyond":
            for target in rng.sample(workers, rng.randint(0, min(2, len(workers)))):
                start = rng.randint(1, rounds - 2)
                add(start, "straggler", target, round(rng.uniform(2.0, 30.0), 2))
                add(rng.randint(start + 1, rounds - 1), "clear_straggler", target)
            if rng.random() < 0.25:
                # Probabilistic message loss: still deterministic per seed,
                # but completion is no longer analytically guaranteed.
                start = rng.randint(1, rounds - 2)
                add(start, "drop_rate", value=round(rng.uniform(0.005, 0.03), 3))
                add(rng.randint(start + 1, rounds - 1), "drop_rate", value=0.0)
                guaranteed = False

        if attacking > 0:
            pattern = rng.choice(("steady", "onset", "stop", "churn"))
            if pattern == "onset":
                add(0, "attack_stop")
                add(rng.randint(2, rounds - 2), "attack_start", value=config["worker_attack"])
            elif pattern == "stop":
                add(rng.randint(1, rounds - 1), "attack_stop")
            elif pattern == "churn":
                for _ in range(rng.randint(1, 2)):
                    add(rng.randint(0, rounds - 1), "byzantine_count", value=rng.randint(0, attacking))
        return events, mechanism, guaranteed


# ---------------------------------------------------------------------- #
# Executing generated specs
# ---------------------------------------------------------------------- #
def build_session_for_spec(spec: ScenarioSpec, **overrides: Any) -> Session:
    """A streaming :class:`Session` for an in-memory (unsaved) scenario spec.

    The Controller's scenario wiring (:meth:`Deployment.attach_scenario`) on
    the spec object itself, so generated scenarios need never touch disk.
    ``overrides`` replace config fields of the spec (a replay on another
    executor, a sharded case's unsharded twin).  Saved specs stay replayable
    through the normal ``repro run --scenario`` path.
    """
    deployment = Controller(ClusterConfig.from_dict({**spec.config, **overrides})).build()
    deployment.attach_scenario(spec)
    return Session(deployment)


@dataclass
class RunOutcome:
    """What one execution of a spec left beyond its :class:`RoundResult` stream."""

    #: The run's scenario trace as it ended (a round that raised left no entry).
    trace: Trace
    #: Every round the session streamed, in order.
    results: List[RoundResult] = field(default_factory=list)
    error: Optional[BaseException] = None
    #: Final membership / decayed suspicion, captured before session close.
    final_evicted: List[str] = field(default_factory=list)
    final_suspicion: Dict[str, float] = field(default_factory=dict)
    #: What the checker adds before judging: the canonical trace JSON of
    #: each replay it ran, by label, and the update-norm bound it judges by.
    replays: Dict[str, str] = field(default_factory=dict)
    norm_bound: float = UPDATE_NORM_BOUND

    @property
    def completed(self) -> bool:
        return self.error is None

    @property
    def diverged(self) -> bool:
        return any(result.diverged for result in self.results)

    @property
    def rounds_run(self) -> int:
        return len(self.results)

    @property
    def first_loss(self) -> Optional[float]:
        return next((r.loss for r in self.results if r.loss is not None), None)

    @property
    def final_loss(self) -> Optional[float]:
        return next((r.loss for r in reversed(self.results) if r.loss is not None), None)


def run_spec(spec: ScenarioSpec, *, pause_at: Optional[int] = None, **overrides: Any) -> RunOutcome:
    """Execute a spec to completion (or loud failure) and summarise the run.

    ``overrides`` replace config fields of the spec, as in
    :func:`build_session_for_spec`.  ``pause_at`` drives the session in two
    legs — ``run(until=pause_at)``, ``pause()``, ``resume()``, ``run()`` —
    which must be indistinguishable from an uninterrupted run (the
    pause/resume invariant).
    """
    session = build_session_for_spec(spec, **overrides)
    outcome = RunOutcome(trace=session.trace)
    session.on_round(outcome.results.append)
    try:
        if pause_at is not None:
            session.run(until=pause_at)
            session.pause()
            session.resume()
        session.run()
    except Exception as error:  # noqa: BLE001 - the checker types the failure
        outcome.error = error
    finally:
        detection = session.deployment.detection
        if detection is not None:
            outcome.final_evicted = list(session.deployment.membership.excluded(EVICTED))
            outcome.final_suspicion = {
                name: float(score) for name, score in detection.book.scores.items()
            }
        session.close()
    return outcome


# ---------------------------------------------------------------------- #
# The invariants
# ---------------------------------------------------------------------- #
#: What an invariant returns: nothing when it holds, else its message — with
#: the round it broke in, for the invariants judged round by round.
Finding = Optional[Union[str, Tuple[str, int]]]

#: The replay the pause-resume invariant judges; every other one is a
#: determinism replay.
_PAUSED = "paused/resumed run"


def _cluster(case: FuzzCase) -> ClusterConfig:
    return ClusterConfig.from_dict(dict(case.spec.config))


def _typed(error: Optional[BaseException]) -> bool:
    """Whether ``error`` is a runtime failure the library names."""
    return isinstance(error, GarfieldError) and not isinstance(error, ConfigurationError)


def _excluded_by_round(case: FuzzCase, outcome: RunOutcome) -> List[Set[str]]:
    """The workers out of the pull set as each round run began.

    Replays the deployment's worker membership from both recorded event
    streams: every ``evict`` (detection payload) and every ``dead`` (health
    payload) of a worker takes it out of the pull set, every ``readmit``
    returns it — a dead server replica changes nothing here.
    """
    workers = set(_cluster(case).node_ids()[0])
    out: Set[str] = set()
    excluded: List[Set[str]] = []
    for result in outcome.results:
        excluded.append(set(out))
        for payload in (result.detection, result.health):
            for event in (payload or {}).get("events", ()):
                # A dead server replica leaves the replica ledger, not this one.
                if event["target"] not in workers:
                    continue
                if event["action"] in ("evict", "dead"):
                    out.add(event["target"])
                elif event["action"] == "readmit":
                    out.discard(event["target"])
    return excluded


def _applied_norms(outcome: RunOutcome) -> List[Tuple[int, float]]:
    """``(round, norm)`` of every update applied without a divergence flag."""
    return [(r.iteration, r.update_norm) for r in outcome.results if r.update_norm is not None and not r.diverged]


def typed_failure_only(case: FuzzCase, outcome: RunOutcome) -> Finding:
    """Any exception is a :class:`~repro.exceptions.GarfieldError` — and not a
    :class:`~repro.exceptions.ConfigurationError`, which would mean the
    generator emitted an invalid spec."""
    error = outcome.error
    if error is None or _typed(error):
        return None
    return f"run raised {type(error).__name__} ({error}); every runtime failure must be a typed GarfieldError"


def quorum_exact(case: FuzzCase, outcome: RunOutcome) -> Finding:
    """Every round's gradient quorum is ``gradient_quorum()`` exactly, less one
    per worker excluded by round ``r - 1``'s decisions (with neither detection
    nor resilience on, nobody is)."""
    quorum = _cluster(case).gradient_quorum()
    for result, out in zip(outcome.results, _excluded_by_round(case, outcome)):
        expected = max(1, quorum - len(out))
        if result.quorum != expected:
            index = result.iteration
            return f"round {index} ran with quorum {result.quorum}, expected {expected}", index
    return None


def finite_or_flagged(case: FuzzCase, outcome: RunOutcome) -> Finding:
    """A non-finite update norm carries the divergence flag."""
    for index, norm in _applied_norms(outcome):
        if not math.isfinite(norm):
            return f"round {index} applied a non-finite update without a divergence flag", index
    return None


def bounded_update_norm(case: FuzzCase, outcome: RunOutcome) -> Finding:
    """Under a tolerated budget the robust GAR keeps update norms in the honest range."""
    for index, norm in _applied_norms(outcome):
        if case.budget != "beyond" and math.isfinite(norm) and norm > outcome.norm_bound:
            return f"round {index} update norm {norm:.2f} exceeds the bound {outcome.norm_bound:.0f}", index
    return None


def liveness(case: FuzzCase, outcome: RunOutcome) -> Finding:
    """A tolerated schedule with no probabilistic loss completes."""
    error = outcome.error
    if not (case.guarantees_completion and _typed(error)):
        return None
    return f"tolerated budget '{case.budget}' (margin {case.margin}) died with {type(error).__name__}: {error}"


def convergence(case: FuzzCase, outcome: RunOutcome) -> Finding:
    """A guaranteed schedule ends no worse than ``max(FLOOR, SLACK * first loss)``."""
    first, final = outcome.first_loss, outcome.final_loss
    if not case.guarantees_completion or outcome.error is not None or outcome.diverged or first is None:
        return None
    bound = max(CONVERGENCE_FLOOR, CONVERGENCE_SLACK * first)
    if final is not None and final <= bound:
        return None
    return f"final evaluated loss {final} exceeds the bound {bound:.3f} (first evaluated loss {first:.3f})"


def tolerated_divergence(case: FuzzCase, outcome: RunOutcome) -> Finding:
    """A tolerated schedule that completes never trips the divergence detector."""
    if case.expects_loud_failure or outcome.error is not None or not outcome.diverged:
        return None
    flagged = [result.iteration for result in outcome.results if result.diverged]
    return f"tolerated budget '{case.budget}' tripped the divergence detector at rounds {flagged}"


def loud_at_overbudget(case: FuzzCase, outcome: RunOutcome) -> Finding:
    """A ``beyond`` schedule ends in an error or the divergence flag — unless
    one of its margin + 1 crashes hit a worker already out of the pull set (a
    crash in round ``r`` lands after round ``r - 1``'s membership decisions),
    which leaves it within the margin."""
    if not case.expects_loud_failure or outcome.error is not None or outcome.diverged:
        return None
    out = _excluded_by_round(case, outcome)
    if any(e.action == "crash" and e.round < len(out) and e.target in out[e.round] for e in case.spec.events):
        return None
    return (
        f"budget 'beyond' ({case.mechanism}, margin {case.margin}) completed "
        f"{outcome.rounds_run} rounds with no typed failure and no divergence flag"
    )


def _differing_replays(outcome: RunOutcome, paused: bool) -> Finding:
    expected = outcome.trace.to_json()
    differ = [
        f"{label} ({len(trace)} vs {len(expected)} bytes)"
        for label, trace in outcome.replays.items()
        if (label == _PAUSED) == paused and trace != expected
    ]
    return f"{', '.join(differ)} produced a different trace" if differ else None


def determinism(case: FuzzCase, outcome: RunOutcome) -> Finding:
    """A serial rerun, a threaded run and a sharded case's unsharded twin
    reproduce the trace byte for byte (whichever of them the checker ran)."""
    return _differing_replays(outcome, paused=False)


def pause_resume(case: FuzzCase, outcome: RunOutcome) -> Finding:
    """A run paused and resumed mid-chaos reproduces the trace byte for byte."""
    return _differing_replays(outcome, paused=True)


def _judges_detection(case: FuzzCase, outcome: RunOutcome) -> bool:
    return bool(case.spec.config.get("detector")) and bool(outcome.final_suspicion)


def no_calm_eviction(case: FuzzCase, outcome: RunOutcome) -> Finding:
    """In a run with no attacking workers, an eviction (possible under a
    non-zero budget: a tiny heterogeneous shard looks like a moderate
    attacker) is not permanent — the evicted worker's suspicion decays
    toward the re-admission bar."""
    if not _judges_detection(case, outcome) or case.spec.config.get("num_attacking_workers", 0):
        return None
    at_eviction = {
        event["target"]: float(event["score"])
        for result in outcome.results
        for event in (result.detection or {}).get("events", ())
        if event["action"] == "evict"
    }
    # An event records its score to 6 decimals: judge the final one at that precision.
    final = {name: round(score, 6) for name, score in outcome.final_suspicion.items()}
    stuck = [
        f"'{name}' at {final.get(name, 0.0):.3f} above its eviction score {at_eviction[name]:.3f}"
        for name in outcome.final_evicted
        if name in at_eviction and final.get(name, 0.0) > at_eviction[name]
    ]
    return f"attack-free run left {', '.join(stuck)} evicted, not decaying toward re-admission" if stuck else None


def attacker_reputation(case: FuzzCase, outcome: RunOutcome) -> Finding:
    """A run that completed under a steady flagrant attack (reversed / random,
    no mid-run attack toggles) ends with every attacker's decayed suspicion
    above every honest worker's.  A run that died early may end inside the
    book's warm-up, so it is not judged."""
    config, scores = case.spec.config, outcome.final_suspicion
    toggles = ("attack_start", "attack_stop", "byzantine_count")
    if (
        not _judges_detection(case, outcome)
        or not config.get("num_attacking_workers", 0)
        or config.get("worker_attack") not in ("reversed", "random")
        or any(event.action in toggles for event in case.spec.events)
        or not outcome.completed
    ):
        return None
    attackers = set(_cluster(case).byzantine_ids())
    honest_max = max((score for name, score in scores.items() if name not in attackers), default=0.0)
    attacker_min = min((score for name, score in scores.items() if name in attackers), default=float("inf"))
    if attacker_min > honest_max:
        return None
    return (
        f"steady {config['worker_attack']} attack ended with attacker suspicion floor "
        f"{attacker_min:.3f} at or below honest ceiling {honest_max:.3f} ({scores})"
    )


def eviction_budget(case: FuzzCase, outcome: RunOutcome) -> Finding:
    """At most ``f`` workers are ever evicted at once: only ``f`` can be
    Byzantine, so an (f+1)-th eviction would provably hit an honest worker
    (with ``f == 0``, no eviction ever)."""
    evicted, f = outcome.final_evicted, int(case.spec.config.get("num_byzantine_workers", 0))
    if not _judges_detection(case, outcome) or len(evicted) <= f:
        return None
    return f"{len(evicted)} workers evicted ({evicted}) exceeds the declared budget f={f}"


def no_timeout_under_supervision(case: FuzzCase, outcome: RunOutcome) -> Finding:
    """The self-healing pitch, held as an invariant: with hedged pulls
    re-issuing lost / straggling requests and supervision respawning
    unscripted deaths, no within-budget schedule — probabilistic loss
    included — may end in a quorum timeout."""
    resilience = case.spec.config.get("resilience") or {}
    timed_out = isinstance(outcome.error, ReproTimeoutError)
    if case.expects_loud_failure or not (timed_out and resilience.get("hedge") and resilience.get("supervise")):
        return None
    return f"supervised tolerated budget '{case.budget}' (margin {case.margin}) timed out: {outcome.error}"


#: Every invariant, in report order: its name and its judge of ``(case, outcome)``.
INVARIANT_CHECKS: Tuple[Tuple[str, Callable[[FuzzCase, RunOutcome], Finding]], ...] = (
    ("typed-failure-only", typed_failure_only),
    ("quorum-exact", quorum_exact),
    ("finite-or-flagged", finite_or_flagged),
    ("bounded-update-norm", bounded_update_norm),
    ("liveness", liveness),
    ("convergence", convergence),
    ("tolerated-divergence", tolerated_divergence),
    ("loud-at-overbudget", loud_at_overbudget),
    ("determinism", determinism),
    ("pause-resume", pause_resume),
    ("no-calm-eviction", no_calm_eviction),
    ("attacker-reputation", attacker_reputation),
    ("eviction-budget", eviction_budget),
    ("no-timeout-under-supervision", no_timeout_under_supervision),
)

#: Every invariant the checker can report, for the campaign summary.
INVARIANTS = tuple(name for name, _ in INVARIANT_CHECKS)


# ---------------------------------------------------------------------- #
# The invariant checker
# ---------------------------------------------------------------------- #
@dataclass
class InvariantViolation:
    """One invariant broken by one case — the unit the campaign reports."""

    invariant: str
    message: str
    round: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"invariant": self.invariant, "message": self.message}
        if self.round is not None:
            data["round"] = self.round
        return data


@dataclass
class CaseReport:
    """The checker's verdict on one case."""

    case: FuzzCase
    violations: List[InvariantViolation] = field(default_factory=list)
    rounds_run: int = 0
    error: Optional[str] = None
    error_message: str = ""
    diverged: bool = False
    first_loss: Optional[float] = None
    final_loss: Optional[float] = None
    fingerprint: str = ""
    shrunk_spec: Optional[ScenarioSpec] = None
    saved_path: Optional[str] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "case": self.case.to_dict(),
            "passed": self.passed,
            "violations": [v.to_dict() for v in self.violations],
            "rounds_run": self.rounds_run,
            "error": self.error,
            "error_message": self.error_message,
            "diverged": self.diverged,
            "first_loss": self.first_loss,
            "final_loss": self.final_loss,
            "fingerprint": self.fingerprint,
        }
        if self.shrunk_spec is not None:
            data["shrunk_spec"] = self.shrunk_spec.to_dict()
        if self.saved_path is not None:
            data["saved_path"] = self.saved_path
        return data


class InvariantChecker:
    """Runs one :class:`FuzzCase`, then judges it by :data:`INVARIANT_CHECKS`.

    A spec that fails validation breaks ``typed-failure-only`` and is not
    run.  ``determinism`` reruns the case serially (and runs a sharded case's
    unsharded twin),
    ``cross_executor`` runs it threaded and
    ``pause_resume`` pauses it halfway; the determinism and pause-resume
    invariants compare those replays' traces with the run's.
    """

    def __init__(self, *, norm_bound: float = UPDATE_NORM_BOUND) -> None:
        self.norm_bound = norm_bound

    def check(
        self, case: FuzzCase, *, determinism: bool = True, cross_executor: bool = False, pause_resume: bool = False
    ) -> CaseReport:
        try:
            outcome = run_spec(case.spec)
        except ConfigurationError as error:
            return CaseReport(case, [InvariantViolation("typed-failure-only", f"spec failed validation: {error}")])
        replays: Dict[str, Dict[str, Any]] = {}
        if determinism:
            replays["serial rerun"] = {}
            if case.layer("shards") > 1:  # sharding is lossless: the twin runs the same
                replays["unsharded twin"] = {"shards": 1}
        if cross_executor:
            replays["threaded executor"] = {"executor": "threaded"}
        if pause_resume and outcome.rounds_run >= 2:
            replays[_PAUSED] = {"pause_at": max(1, outcome.rounds_run // 2)}
        outcome.replays = {label: run_spec(case.spec, **run).trace.to_json() for label, run in replays.items()}
        outcome.norm_bound = self.norm_bound
        violations = []
        for invariant, judge in INVARIANT_CHECKS:
            finding = judge(case, outcome)
            if finding is not None:
                message, round_ = (finding, None) if isinstance(finding, str) else finding
                violations.append(InvariantViolation(invariant, message, round_))
        error = outcome.error
        return CaseReport(
            case, violations, rounds_run=outcome.rounds_run, error=error and type(error).__name__,
            error_message="" if error is None else str(error),
            diverged=outcome.diverged, first_loss=outcome.first_loss, final_loss=outcome.final_loss,
            fingerprint=outcome.trace.fingerprint(),
        )


# ---------------------------------------------------------------------- #
# Shrinking
# ---------------------------------------------------------------------- #
def shrink_events(
    spec: ScenarioSpec, reproduces: Callable[[ScenarioSpec], bool]
) -> ScenarioSpec:
    """ddmin over the event timeline: a minimal spec still failing the oracle.

    ``reproduces(candidate)`` must return True when the candidate still
    triggers the original failure; candidates that fail validation count as
    non-reproducing.  The result is 1-minimal — removing any single remaining
    event no longer reproduces.
    """

    def still_fails(events: Sequence[Any]) -> bool:
        try:
            return reproduces(dataclasses.replace(spec, name=f"{spec.name}-shrunk", events=list(events)))
        except ConfigurationError:
            return False

    events = list(spec.events)
    # Fast path: the failure may not need the timeline at all (e.g. a broken
    # GAR under a steady attack) — the minimal spec is then the empty one.
    if events and still_fails([]):
        events = []
    granularity = 2
    while len(events) >= 2:
        chunk = math.ceil(len(events) / granularity)
        reduced = False
        for start in range(0, len(events), chunk):
            complement = events[:start] + events[start + chunk :]
            if still_fails(complement):
                events = complement
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(granularity * 2, len(events))
    if len(events) == 1 and still_fails([]):
        events = []
    return dataclasses.replace(
        spec,
        name=f"{spec.name}-shrunk",
        description=f"ddmin-reduced from {len(spec.events)} events: {spec.description}",
        config=dict(spec.config),
        events=events,
    )


def shrink_case(case: FuzzCase, report: CaseReport, *, checker: Optional[InvariantChecker] = None) -> ScenarioSpec:
    """Shrink a failing case to a minimal spec reproducing the same invariants."""
    checker = checker or InvariantChecker()
    signature = {violation.invariant for violation in report.violations}

    def reproduces(trial: ScenarioSpec) -> bool:
        trial_report = checker.check(
            dataclasses.replace(case, spec=trial),
            determinism="determinism" in signature,
            cross_executor="determinism" in signature,
            pause_resume="pause-resume" in signature,
        )
        return bool({v.invariant for v in trial_report.violations} & signature)

    return shrink_events(case.spec, reproduces)


# ---------------------------------------------------------------------- #
# Campaigns
# ---------------------------------------------------------------------- #
@dataclass
class CampaignResult:
    """All reports of one fuzzing campaign plus the summary the CLI prints."""

    seed: int
    count: int
    reports: List[CaseReport] = field(default_factory=list)

    @property
    def failures(self) -> List[CaseReport]:
        return [report for report in self.reports if not report.passed]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def layers(self) -> Dict[str, Dict[str, int]]:
        """Per layer: how many cases ran with each value, and how many draws
        ``ClusterConfig.validate`` refused (those cases ran the default)."""
        counts = {layer: Counter() for layer in LAYERS}
        for report in self.reports:
            for layer, tally in counts.items():
                tally[_layer_label(report.case.layer(layer))] += 1
                tally["refused"] += layer in report.case.refused
        return {layer: dict(tally) for layer, tally in counts.items()}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "count": self.count,
            "scenarios_run": len(self.reports),
            "invariants_checked": list(INVARIANTS),
            "deployments": dict(Counter(report.case.deployment for report in self.reports)),
            "budgets": dict(Counter(report.case.budget for report in self.reports)),
            "layers": self.layers,
            "passed": self.passed,
            "failures": [report.to_dict() for report in self.failures],
        }

    def save_report(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def _layer_label(value: Any) -> str:
    """A layer value as a report key: ``off`` for an empty detector or
    resilience, the enabled options joined by ``+`` for a resilience dict."""
    return ("+".join(value) if isinstance(value, dict) else str(value)) or "off"


def run_campaign(
    seed: int = 0,
    count: int = 30,
    *,
    deployments: Sequence[str] = FUZZ_DEPLOYMENTS,
    budgets: Sequence[str] = BUDGETS,
    start: int = 0,
    norm_bound: float = UPDATE_NORM_BOUND,
    determinism: bool = True,
    cross_executor_every: int = 3,
    pause_resume_every: int = 5,
    shrink: bool = True,
    save_dir: Optional[str] = None,
    on_report: Optional[Callable[[CaseReport], Any]] = None,
) -> CampaignResult:
    """Generate ``count`` cases, check every invariant, shrink+save failures.

    Replay comparisons are sampled (every ``cross_executor_every``-th case
    also runs threaded, every ``pause_resume_every``-th pauses mid-chaos) so
    a smoke campaign stays inside the tier-1 time budget; pass ``1`` to check
    every case.  Failing specs are ddmin-shrunk (``shrink=True``) and, with
    ``save_dir``, written as scenario JSON replayable via
    ``repro run --scenario <file>``.
    """
    generator = ScenarioGenerator(seed=seed, deployments=deployments, budgets=budgets)
    checker = InvariantChecker(norm_bound=norm_bound)
    result = CampaignResult(seed=seed, count=count)
    for offset in range(count):
        case = generator.case(start + offset)
        report = checker.check(
            case,
            determinism=determinism,
            cross_executor=cross_executor_every > 0 and offset % cross_executor_every == 0,
            pause_resume=pause_resume_every > 0 and offset % pause_resume_every == 0,
        )
        if not report.passed:
            if shrink:
                report.shrunk_spec = shrink_case(case, report, checker=checker)
            if save_dir is not None:
                directory = Path(save_dir)
                directory.mkdir(parents=True, exist_ok=True)
                spec_to_save = report.shrunk_spec or case.spec
                path = directory / f"{spec_to_save.name}.json"
                spec_to_save.save(path)
                report.saved_path = str(path)
        result.reports.append(report)
        if on_report is not None:
            on_report(report)
    return result
