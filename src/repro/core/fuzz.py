"""Generative scenario fuzzing: seeded timelines + machine-checkable invariants.

The six golden traces lock six hand-written chaos timelines, but GARFIELD's
claim is tolerance of *arbitrary* crash/Byzantine behaviour up to the f-bound
— exactly the regime hand-picked scenarios undersample.  This module turns
that claim into a harness:

* :class:`ScenarioGenerator` — samples valid :class:`~repro.core.scenario.\
ScenarioSpec` timelines (crash/recover, stragglers, drop rates, partitions,
  attack onset/stop, Byzantine churn) from a constrained grammar.  Every case
  is derived from ``random.Random(f"{seed}/{index}")``, so a (seed, index)
  pair names one scenario forever — across runs, processes and refactors that
  keep the grammar (the seed-stability fixtures lock this).
* a **budget** knob per case — ``below`` / ``at`` / ``beyond`` the
  deployment's fault margin (``f_w`` simultaneous worker crashes for the
  asynchronous deployments, ``n_ps - 1`` server crashes for the
  crash-tolerant baseline).  Tolerated budgets must complete and converge;
  ``beyond`` budgets must fail *loudly* — a typed :class:`~repro.exceptions.\
GarfieldError` or an explicit divergence flag, never a silently poisoned
  model.
* :class:`InvariantChecker` — consumes a :class:`~repro.core.session.Session`
  round by round and asserts properties instead of goldens: exact gradient
  quorums, finite-or-flagged update norms, bounded norms under attack with a
  robust GAR, liveness and convergence under tolerated schedules, loud typed
  failure beyond the bound, trace determinism (same seed ⇒ byte-identical
  canonical JSON, across the serial and threaded executors) and pause/resume
  equivalence mid-chaos.
* :func:`shrink_events` — ddmin over the event timeline: when a case fails,
  the shrinker bisects the events down to a minimal spec that still
  reproduces the same invariant violation; the result is a scenario JSON
  replayable via ``repro run --scenario <file>``.
* :func:`run_campaign` — drives N generated cases through the checker and
  summarises them as a :class:`CampaignResult` (the ``FUZZ_report.json``
  payload of ``make fuzz``); the ``repro fuzz`` CLI verb wraps it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.aggregators.base import GAR_REGISTRY
from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller
from repro.core.metrics import Trace
from repro.core.scenario import ScenarioEvent, ScenarioSpec, validate_timeline
from repro.core.session import RoundResult, Session
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

#: Deployments the generator samples (vanilla is exercised by the directed
#: negative-path tests instead: with ``f = 0`` every budget is "beyond").
FUZZ_DEPLOYMENTS = ("ssmw", "aggregathor", "msmw", "decentralized", "crash-tolerant")

#: Every invariant the checker can report, for the campaign summary.
INVARIANTS = (
    "typed-failure-only",
    "quorum-exact",
    "finite-or-flagged",
    "bounded-update-norm",
    "liveness",
    "convergence",
    "tolerated-divergence",
    "loud-at-overbudget",
    "determinism",
    "pause-resume",
    "no-calm-eviction",
    "attacker-reputation",
    "eviction-budget",
    "no-timeout-under-supervision",
)

#: Small logistic/MNIST experiment shared by every generated case: one round
#: runs in milliseconds, so campaigns of hundreds of scenarios stay cheap.
_EXPERIMENT: Dict[str, Any] = {
    "model": "logistic",
    "dataset": "mnist",
    "dataset_size": 144,
    "batch_size": 8,
    "learning_rate": 0.2,
}


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

    @property
    def name(self) -> str:
        return self.spec.name

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "seed": self.seed,
            "deployment": self.deployment,
            "budget": self.budget,
            "margin": self.margin,
            "mechanism": self.mechanism,
            "guarantees_completion": self.guarantees_completion,
            "expects_loud_failure": self.expects_loud_failure,
            "spec": self.spec.to_dict(),
        }


def roster_for_config(config: Mapping[str, Any]) -> Tuple[List[str], List[str]]:
    """The (worker ids, server ids) a config will deploy, without building it."""
    return ClusterConfig.from_dict(dict(config)).node_ids()


def byzantine_ids_for_config(config: Mapping[str, Any]) -> List[str]:
    """Node ids of the attacking (Byzantine-object) nodes a config deploys."""
    num_workers = int(config["num_workers"])
    attacking = int(config.get("num_attacking_workers", 0))
    ids = [f"worker-{i}" for i in range(num_workers - attacking, num_workers)]
    if config["deployment"] == "decentralized":
        ids += [f"server-{i}" for i in range(num_workers - attacking, num_workers)]
    return ids


# ---------------------------------------------------------------------- #
# The generator
# ---------------------------------------------------------------------- #
class ScenarioGenerator:
    """Seeded, deterministic sampler of valid chaos timelines.

    ``case(index)`` derives everything from ``random.Random(f"{seed}/{index}")``
    (``random.Random`` is stable across Python versions, unlike numpy's
    distribution methods), cycles deployments and budgets so any contiguous
    index range covers all of them evenly, and self-checks each emitted spec
    with :func:`~repro.core.scenario.validate_timeline` — an invalid spec is a
    generator bug and raises immediately.
    """

    def __init__(
        self,
        seed: int = 0,
        deployments: Sequence[str] = FUZZ_DEPLOYMENTS,
        budgets: Sequence[str] = BUDGETS,
        supervised: bool = False,
        sharded: bool = False,
    ) -> None:
        if not deployments:
            raise ConfigurationError("the generator needs at least one deployment")
        unknown = set(deployments) - set(FUZZ_DEPLOYMENTS)
        if unknown:
            raise ConfigurationError(
                f"cannot fuzz deployments {sorted(unknown)}; supported: {FUZZ_DEPLOYMENTS}"
            )
        bad = set(budgets) - set(BUDGETS)
        if bad:
            raise ConfigurationError(f"unknown budgets {sorted(bad)}; choose from {BUDGETS}")
        self.seed = int(seed)
        self.deployments = tuple(deployments)
        self.budgets = tuple(budgets)
        #: When true, every emitted spec runs under the self-healing runtime
        #: (retry + hedged pulls + supervision) — and the checker holds it to
        #: the stronger liveness bar: tolerated-fault runs must never end in
        #: a quorum timeout.
        self.supervised = bool(supervised)
        #: When true, msmw cases split the parameter vector into ``shards > 1``
        #: slices (shard-parallel aggregation) — the invariant bar is
        #: unchanged: sharded runs must satisfy exactly the invariants the
        #: full-``d`` pipeline does.
        self.sharded = bool(sharded)

    # ------------------------------------------------------------------ #
    def case(self, index: int) -> FuzzCase:
        """The (deterministic) case at ``index``."""
        if index < 0:
            raise ConfigurationError("case indices are non-negative")
        rng = random.Random(f"{self.seed}/{index}")
        deployment = self.deployments[index % len(self.deployments)]
        budget = self.budgets[(index // len(self.deployments)) % len(self.budgets)]
        config, margin, crash_pool = self._sample_config(rng, deployment)
        events, mechanism, guaranteed = self._sample_events(
            rng, deployment, budget, config, margin, crash_pool
        )
        if self.supervised:
            # Injected *after* sampling, so the RNG stream — and therefore
            # every (seed, index) spec of the default generator — is
            # untouched (the seed-stability fixtures lock that grammar).
            config["resilience"] = {"retry": True, "hedge": True, "supervise": True}
        if self.sharded and deployment == "msmw":
            # Same after-sampling discipline: the extra draw happens only on
            # sharded generators, so the default grammar stays pinned.  Both
            # msmw gradient GARs (median, multi-krum) shard.
            config["shards"] = rng.randint(2, int(config["num_servers"]))
        spec = ScenarioSpec(
            name=f"fuzz-{self.seed}-{index}-{deployment}-{budget}",
            description=(
                f"generated case {index} (seed {self.seed}): {deployment} at "
                f"budget '{budget}' via {mechanism} (margin {margin})"
            ),
            config=config,
            events=[ScenarioEvent.from_dict(event) for event in events],
        )
        workers, servers = roster_for_config(config)
        validate_timeline(  # a generator bug, not a fuzz finding — fail here
            spec,
            [*workers, *servers],
            byzantine_ids=byzantine_ids_for_config(config),
            max_byzantine_count=int(config.get("num_attacking_workers", 0)),
        )
        return FuzzCase(
            index=index,
            seed=self.seed,
            deployment=deployment,
            budget=budget,
            margin=margin,
            mechanism=mechanism,
            spec=spec,
            guarantees_completion=guaranteed and budget != "beyond",
            expects_loud_failure=budget == "beyond",
        )

    def cases(self, count: int, start: int = 0) -> List[FuzzCase]:
        return [self.case(start + i) for i in range(count)]

    # ------------------------------------------------------------------ #
    def _sample_config(
        self, rng: random.Random, deployment: str
    ) -> Tuple[Dict[str, Any], int, List[str]]:
        """A valid ClusterConfig dict plus the fault margin and crash pool."""
        config: Dict[str, Any] = {
            "deployment": deployment,
            **_EXPERIMENT,
            "num_iterations": rng.randint(8, 12),
            "accuracy_every": rng.choice((4, 5)),
            "seed": rng.randint(0, 9999),
        }
        if deployment in ("ssmw", "aggregathor"):
            f_w = rng.choice((1, 2))
            gar = rng.choice(("median", "krum", "multi-krum"))
            need = GAR_REGISTRY[gar].minimum_inputs(f_w)
            n_w = f_w + need + rng.randint(0, 2)
            config.update(
                num_workers=n_w,
                num_byzantine_workers=f_w,
                num_attacking_workers=rng.randint(0, f_w),
                worker_attack=rng.choice(("reversed", "random", "little-is-enough")),
                gradient_gar=gar,
                asynchronous=True,
                num_servers=1,
            )
            margin, pool = f_w, [f"worker-{i}" for i in range(n_w)]
        elif deployment == "msmw":
            f_w = rng.choice((1, 2))
            gar = rng.choice(("median", "multi-krum"))
            need = GAR_REGISTRY[gar].minimum_inputs(f_w)
            n_w = f_w + need + rng.randint(0, 1)
            n_ps, f_ps = rng.choice(((3, 0), (4, 1)))
            config.update(
                num_workers=n_w,
                num_byzantine_workers=f_w,
                num_attacking_workers=rng.randint(0, f_w),
                worker_attack=rng.choice(("reversed", "random")),
                num_servers=n_ps,
                num_byzantine_servers=f_ps,
                num_attacking_servers=rng.randint(0, f_ps),
                server_attack="random",
                gradient_gar=gar,
                model_gar="median",
                asynchronous=True,
            )
            margin, pool = f_w, [f"worker-{i}" for i in range(n_w)]
        elif deployment == "decentralized":
            n_w = rng.randint(4, 6)
            config.update(
                num_workers=n_w,
                num_byzantine_workers=1,
                num_attacking_workers=rng.randint(0, 1),
                worker_attack=rng.choice(("reversed", "random")),
                gradient_gar="median",
                model_gar="median",
                num_servers=0,
            )
            # worker-0 hosts the reporting node; crashing it is out of scope.
            margin, pool = 1, [f"worker-{i}" for i in range(1, n_w)]
        elif deployment == "crash-tolerant":
            n_w = rng.randint(3, 5)
            n_ps = rng.randint(2, 4)
            config.update(num_workers=n_w, num_servers=n_ps)
            # Server crashes are the tolerated fault; the synchronous quorum
            # means a single worker crash is already beyond the bound.
            margin, pool = n_ps - 1, [f"server-{i}" for i in range(n_ps)]
        else:  # pragma: no cover - guarded by __init__
            raise ConfigurationError(f"cannot fuzz deployment '{deployment}'")
        return config, margin, pool

    def _sample_events(
        self,
        rng: random.Random,
        deployment: str,
        budget: str,
        config: Dict[str, Any],
        margin: int,
        crash_pool: List[str],
    ) -> Tuple[List[Dict[str, Any]], str, bool]:
        """The event timeline for one case; returns (events, mechanism, guaranteed)."""
        rounds = int(config["num_iterations"])
        workers = [f"worker-{i}" for i in range(int(config["num_workers"]))]
        attacking = int(config.get("num_attacking_workers", 0))
        events: List[Dict[str, Any]] = []
        guaranteed = True
        mechanism = "calm"

        def crash_window(targets: Sequence[str], *, recover: bool) -> None:
            start = rng.randint(1, max(1, rounds // 2))
            duration = rng.randint(1, 2)
            for target in targets:
                events.append({"round": start, "action": "crash", "target": target})
                if recover:
                    events.append(
                        {"round": min(start + duration, rounds - 1), "action": "recover", "target": target}
                    )

        if budget == "beyond":
            if deployment == "crash-tolerant" and rng.random() < 0.5:
                # Variant: one crashed worker starves the synchronous quorum.
                crash_window([rng.choice(workers)], recover=False)
                mechanism = "worker-crash"
            else:
                targets = rng.sample(crash_pool, min(margin + 1, len(crash_pool)))
                crash_window(targets, recover=False)
                mechanism = "server-crash" if deployment == "crash-tolerant" else "crash"
            guaranteed = False
        elif budget == "at":
            if deployment != "crash-tolerant" and rng.random() < 0.4:
                # Spend the margin on a partition instead of crashes.
                island = rng.sample(crash_pool, margin)
                start = rng.randint(1, rounds - 3)
                events.append({"round": start, "action": "partition", "value": [island]})
                events.append({"round": start + rng.randint(1, 2), "action": "heal"})
                mechanism = "partition"
            else:
                crash_window(rng.sample(crash_pool, margin), recover=True)
                mechanism = "server-crash" if deployment == "crash-tolerant" else "crash"
        else:  # below
            spend = rng.randint(0, max(0, margin - 1))
            if spend:
                crash_window(rng.sample(crash_pool, spend), recover=True)
                mechanism = "crash"

        # Garnish tolerated budgets with faults that cost no margin.
        if budget != "beyond":
            for target in rng.sample(workers, rng.randint(0, min(2, len(workers)))):
                start = rng.randint(1, rounds - 2)
                events.append(
                    {
                        "round": start,
                        "action": "straggler",
                        "target": target,
                        "value": round(rng.uniform(2.0, 30.0), 2),
                    }
                )
                events.append(
                    {
                        "round": rng.randint(start + 1, rounds - 1),
                        "action": "clear_straggler",
                        "target": target,
                    }
                )
            if rng.random() < 0.25:
                # Probabilistic message loss: still deterministic per seed,
                # but completion is no longer analytically guaranteed.
                start = rng.randint(1, rounds - 2)
                events.append(
                    {"round": start, "action": "drop_rate", "value": round(rng.uniform(0.005, 0.03), 3)}
                )
                events.append(
                    {"round": rng.randint(start + 1, rounds - 1), "action": "drop_rate", "value": 0.0}
                )
                guaranteed = False

        if attacking > 0:
            pattern = rng.choice(("steady", "onset", "stop", "churn"))
            if pattern == "onset":
                attack = config.get("worker_attack", "random")
                events.append({"round": 0, "action": "attack_stop"})
                events.append(
                    {"round": rng.randint(2, rounds - 2), "action": "attack_start", "value": attack}
                )
            elif pattern == "stop":
                events.append({"round": rng.randint(1, rounds - 1), "action": "attack_stop"})
            elif pattern == "churn":
                for _ in range(rng.randint(1, 2)):
                    events.append(
                        {
                            "round": rng.randint(0, rounds - 1),
                            "action": "byzantine_count",
                            "value": rng.randint(0, attacking),
                        }
                    )
        return events, mechanism, guaranteed


# ---------------------------------------------------------------------- #
# Executing generated specs
# ---------------------------------------------------------------------- #
def build_session_for_spec(spec: ScenarioSpec, *, executor: Optional[str] = None) -> Session:
    """A streaming :class:`Session` for an in-memory (unsaved) scenario spec.

    The Controller's scenario wiring (:meth:`Deployment.attach_scenario`) on
    the spec object itself, so generated scenarios need never touch disk.
    Saved specs stay replayable through the normal ``repro run --scenario``
    path.
    """
    data = dict(spec.config)
    if executor is not None:
        data["executor"] = executor
    deployment = Controller(ClusterConfig.from_dict(data)).build()
    deployment.attach_scenario(spec)
    return Session(deployment)


@dataclass
class RunOutcome:
    """What one execution of a spec produced, for invariant checking."""

    #: The run's scenario trace as it ended (a round that raised left no entry).
    trace: Trace
    #: Every round the session streamed, in order.
    results: List[RoundResult] = field(default_factory=list)
    completed: bool = False
    diverged: bool = False
    error: Optional[BaseException] = None
    #: Final membership / decayed suspicion, captured before session close.
    final_evicted: List[str] = field(default_factory=list)
    final_suspicion: Dict[str, float] = field(default_factory=dict)

    @property
    def rounds_run(self) -> int:
        return len(self.results)

    @property
    def first_loss(self) -> Optional[float]:
        return next((r.loss for r in self.results if r.loss is not None), None)

    @property
    def final_loss(self) -> Optional[float]:
        return next((r.loss for r in reversed(self.results) if r.loss is not None), None)


def run_spec(
    spec: ScenarioSpec, *, executor: Optional[str] = None, pause_at: Optional[int] = None
) -> RunOutcome:
    """Execute a spec to completion (or loud failure) and summarise the run.

    ``pause_at`` drives the session in two legs — ``run(until=pause_at)``,
    ``pause()``, ``resume()``, ``run()`` — which must be indistinguishable
    from an uninterrupted run (the pause/resume invariant).
    """
    session = build_session_for_spec(spec, executor=executor)
    outcome = RunOutcome(trace=session.trace)
    session.on_round(outcome.results.append)
    try:
        if pause_at is not None:
            session.run(until=pause_at)
            session.pause()
            session.resume()
        session.run()
        outcome.completed = session.finished
    except Exception as error:  # noqa: BLE001 - the checker types the failure
        outcome.error = error
    finally:
        outcome.diverged = session.diverged
        detection = session.deployment.detection
        if detection is not None:
            outcome.final_evicted = list(session.deployment.membership.excluded(EVICTED))
            outcome.final_suspicion = {
                name: float(score) for name, score in detection.book.scores.items()
            }
        session.close()
    return outcome


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
    """Runs one :class:`FuzzCase` and asserts the machine-checkable properties.

    The oracle, per budget:

    * every completed round's gradient quorum equals
      :meth:`~repro.core.cluster.ClusterConfig.gradient_quorum` exactly, less
      one per worker the recorded membership events had excluded by then;
    * update norms are finite (or the round carries the divergence flag) and,
      under a tolerated budget, bounded by ``norm_bound``;
    * tolerated schedules with no probabilistic loss complete (liveness),
      never trip the divergence detector, and end converged;
    * ``beyond`` schedules end in a typed :class:`~repro.exceptions.\
GarfieldError` or an explicit divergence flag — never a silent completion;
    * any exception is a :class:`~repro.exceptions.GarfieldError` (and not a
      :class:`~repro.exceptions.ConfigurationError`, which would mean the
      generator emitted an invalid spec);
    * when the spec enables online detection: evictions never exceed the
      declared Byzantine budget (none at all with ``f = 0``), attack-free
      evictions decay toward re-admission, and a steady flagrant attack
      within budget leaves every attacker's suspicion strictly above every
      honest worker's;
    * optionally: a rerun (serial), a threaded run and a paused/resumed run
      all produce byte-identical canonical trace JSON.
    """

    def __init__(self, *, norm_bound: float = UPDATE_NORM_BOUND) -> None:
        self.norm_bound = norm_bound

    # ------------------------------------------------------------------ #
    def check(
        self,
        case: FuzzCase,
        *,
        determinism: bool = True,
        cross_executor: bool = False,
        pause_resume: bool = False,
    ) -> CaseReport:
        report = CaseReport(case=case)
        try:
            outcome = run_spec(case.spec)
        except ConfigurationError as error:
            report.violations.append(
                InvariantViolation("typed-failure-only", f"spec failed validation: {error}")
            )
            return report
        report.rounds_run = outcome.rounds_run
        report.diverged = outcome.diverged
        report.first_loss = outcome.first_loss
        report.final_loss = outcome.final_loss
        report.fingerprint = outcome.trace.fingerprint()
        self._check_rounds(case, outcome, report)
        self._check_detection(case, outcome, report)
        self._check_outcome(case, outcome, report)
        if determinism or cross_executor or pause_resume:
            self._check_replays(
                case,
                outcome,
                report,
                determinism=determinism,
                cross_executor=cross_executor,
                pause_resume=pause_resume,
            )
        return report

    # ------------------------------------------------------------------ #
    def _check_rounds(self, case: FuzzCase, outcome: RunOutcome, report: CaseReport) -> None:
        for result, expected in zip(outcome.results, self._expected_quorums(case, outcome)):
            if result.quorum != expected:
                report.violations.append(
                    InvariantViolation(
                        "quorum-exact",
                        f"round {result.iteration} completed with quorum {result.quorum}, "
                        f"expected {expected}",
                        round=result.iteration,
                    )
                )
                break
        for result in outcome.results:
            index, norm = result.iteration, result.update_norm
            if norm is None or result.diverged:
                continue
            if not math.isfinite(norm):
                report.violations.append(
                    InvariantViolation(
                        "finite-or-flagged",
                        f"round {index} applied a non-finite update without a divergence flag",
                        round=index,
                    )
                )
                break
            if case.budget != "beyond" and norm > self.norm_bound:
                report.violations.append(
                    InvariantViolation(
                        "bounded-update-norm",
                        f"round {index} update norm {norm:.2f} exceeds the tolerated-budget "
                        f"bound {self.norm_bound:.0f}",
                        round=index,
                    )
                )
                break

    def _expected_quorums(self, case: FuzzCase, outcome: RunOutcome) -> List[int]:
        """Per-round expected gradient quorums, membership-aware.

        Replays the deployment's worker membership from both recorded event
        streams: every ``evict`` (detection payload) and every ``dead``
        (health payload) of a worker takes one worker out of the pull set,
        every ``readmit`` returns one — a dead server replica changes nothing
        here — and round ``r`` waits for the quorum implied
        by the membership *after* round ``r - 1``'s decisions — the active
        count minus the configured reply slack, so each exclusion shrinks the
        wait by exactly one.  With neither layer on there are no events and
        every round must use
        :meth:`~repro.core.cluster.ClusterConfig.gradient_quorum` exactly.
        """
        config = ClusterConfig.from_dict(dict(case.spec.config))
        workers = set(config.node_ids()[0])
        active = int(config.num_workers)
        slack = active - config.gradient_quorum()
        change = {"evict": -1, "dead": -1, "readmit": 1}
        expected: List[int] = []
        for result in outcome.results:
            expected.append(max(1, active - slack))
            for payload in (result.detection, result.health):
                for event in (payload or {}).get("events", ()):
                    # A dead server replica leaves the replica ledger, not this one.
                    if event["target"] in workers:
                        active += change.get(event["action"], 0)
        return expected

    def _check_detection(self, case: FuzzCase, outcome: RunOutcome, report: CaseReport) -> None:
        """Detector-specific invariants; active only when the spec has one.

        * **eviction-budget** — at most ``f`` workers are ever evicted at
          once: only ``f`` can actually be Byzantine, so an (f+1)-th
          eviction would provably hit an honest worker.  With ``f == 0``
          this means no eviction ever (and the envelope normalisation makes
          every suspicion score identically zero).
        * **no-calm-eviction** — in a run with no attacking workers, any
          eviction (possible under a non-zero declared budget: a tiny
          heterogeneous shard is statistically indistinguishable from a
          moderate attacker) is *not permanent*: the evicted worker's
          suspicion decays monotonically toward the re-admission bar.
        * **attacker-reputation** — under a steady flagrant attack within
          budget (reversed / random, no mid-run attack toggles), every
          attacker's final decayed suspicion must exceed every honest
          worker's: reputation separates the populations.
        """
        spec_config = dict(case.spec.config)
        if not spec_config.get("detector") or not outcome.final_suspicion:
            return
        attackers = set(byzantine_ids_for_config(spec_config))
        attacking = int(spec_config.get("num_attacking_workers", 0))
        declared_f = int(spec_config.get("num_byzantine_workers", 0))
        if len(outcome.final_evicted) > declared_f:
            report.violations.append(
                InvariantViolation(
                    "eviction-budget",
                    f"{len(outcome.final_evicted)} workers evicted "
                    f"({outcome.final_evicted}) exceeds the declared budget f={declared_f}",
                )
            )
        if attacking == 0:
            eviction_scores: Dict[str, float] = {}
            for result in outcome.results:
                for event in (result.detection or {}).get("events", ()):
                    if event["action"] == "evict":
                        eviction_scores[event["target"]] = float(event["score"])
            for name in outcome.final_evicted:
                final = outcome.final_suspicion.get(name, 0.0)
                at_eviction = eviction_scores.get(name)
                if at_eviction is not None and final > at_eviction + 1e-9:
                    report.violations.append(
                        InvariantViolation(
                            "no-calm-eviction",
                            f"attack-free run left '{name}' evicted with suspicion "
                            f"{final:.3f} above its eviction score {at_eviction:.3f} — "
                            "not decaying toward re-admission",
                        )
                    )
            return
        steady = not any(
            event.action in ("attack_start", "attack_stop", "byzantine_count")
            for event in case.spec.events
        )
        flagrant = spec_config.get("worker_attack") in ("reversed", "random")
        if not (steady and flagrant):
            return
        honest_max = max(
            (score for name, score in outcome.final_suspicion.items() if name not in attackers),
            default=0.0,
        )
        attacker_min = min(
            (score for name, score in outcome.final_suspicion.items() if name in attackers),
            default=float("inf"),
        )
        if attacker_min <= honest_max:
            report.violations.append(
                InvariantViolation(
                    "attacker-reputation",
                    f"steady {spec_config.get('worker_attack')} attack ended with attacker "
                    f"suspicion floor {attacker_min:.3f} at or below honest ceiling "
                    f"{honest_max:.3f} ({outcome.final_suspicion})",
                )
            )

    def _check_outcome(self, case: FuzzCase, outcome: RunOutcome, report: CaseReport) -> None:
        error = outcome.error
        if error is not None:
            report.error = type(error).__name__
            report.error_message = str(error)
            if not isinstance(error, GarfieldError) or isinstance(error, ConfigurationError):
                report.violations.append(
                    InvariantViolation(
                        "typed-failure-only",
                        f"run raised {type(error).__name__} ({error}); every runtime failure "
                        "must be a non-configuration GarfieldError",
                    )
                )
                return
        if case.expects_loud_failure:
            loud = (error is not None and isinstance(error, GarfieldError)) or outcome.diverged
            if not loud:
                report.violations.append(
                    InvariantViolation(
                        "loud-at-overbudget",
                        f"budget 'beyond' ({case.mechanism}, margin {case.margin}) completed "
                        f"{outcome.rounds_run} rounds with no typed failure and no divergence flag",
                    )
                )
            return
        # Tolerated budgets from here on.
        if error is not None:
            resilience = dict(case.spec.config).get("resilience") or {}
            if (
                isinstance(error, ReproTimeoutError)
                and resilience.get("hedge")
                and resilience.get("supervise")
            ):
                # The self-healing pitch, held as an invariant: with hedged
                # pulls re-issuing lost/straggling requests and supervision
                # respawning unscripted deaths, no within-budget schedule —
                # probabilistic loss included — may end in a quorum timeout.
                report.violations.append(
                    InvariantViolation(
                        "no-timeout-under-supervision",
                        f"supervised tolerated schedule (budget '{case.budget}', margin "
                        f"{case.margin}) still timed out: {error}",
                    )
                )
            if case.guarantees_completion:
                report.violations.append(
                    InvariantViolation(
                        "liveness",
                        f"tolerated schedule (budget '{case.budget}', margin {case.margin}) died "
                        f"with {type(error).__name__}: {error}",
                    )
                )
            return
        if outcome.diverged:
            flagged = [result.iteration for result in outcome.results if result.diverged]
            report.violations.append(
                InvariantViolation(
                    "tolerated-divergence",
                    f"budget '{case.budget}' run tripped the divergence detector at rounds "
                    f"{flagged}: the GAR failed to tolerate a within-budget schedule",
                )
            )
            return
        if case.guarantees_completion and outcome.first_loss is not None:
            bound = max(CONVERGENCE_FLOOR, CONVERGENCE_SLACK * outcome.first_loss)
            if outcome.final_loss is None or outcome.final_loss > bound:
                report.violations.append(
                    InvariantViolation(
                        "convergence",
                        f"final evaluated loss {outcome.final_loss} exceeds the convergence "
                        f"bound {bound:.3f} (first evaluated loss {outcome.first_loss:.3f})",
                    )
                )

    def _check_replays(
        self,
        case: FuzzCase,
        outcome: RunOutcome,
        report: CaseReport,
        *,
        determinism: bool,
        cross_executor: bool,
        pause_resume: bool,
    ) -> None:
        replays: List[Tuple[str, str, Dict[str, Any]]] = []
        if determinism:
            replays.append(("determinism", "serial rerun", {}))
        if cross_executor:
            replays.append(("determinism", "threaded executor", {"executor": "threaded"}))
        if pause_resume and outcome.rounds_run >= 2:
            replays.append(
                ("pause-resume", "paused/resumed run", {"pause_at": max(1, outcome.rounds_run // 2)})
            )
        expected = outcome.trace.to_json()
        for invariant, label, kwargs in replays:
            replayed = run_spec(case.spec, **kwargs).trace.to_json()
            if replayed != expected:
                report.violations.append(
                    InvariantViolation(
                        invariant,
                        f"{label} produced a different trace "
                        f"({len(replayed)} vs {len(expected)} bytes)",
                    )
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
            trial = ScenarioSpec(
                name=f"{spec.name}-shrunk",
                description=f"ddmin-reduced from {len(spec.events)} events",
                config=dict(spec.config),
                events=list(events),
            )
        except ConfigurationError:
            return False
        try:
            return reproduces(trial)
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
    return ScenarioSpec(
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
        trial_case = FuzzCase(
            index=case.index,
            seed=case.seed,
            deployment=case.deployment,
            budget=case.budget,
            margin=case.margin,
            mechanism=case.mechanism,
            spec=trial,
            guarantees_completion=case.guarantees_completion,
            expects_loud_failure=case.expects_loud_failure,
        )
        trial_report = checker.check(
            trial_case,
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

    def to_dict(self) -> Dict[str, Any]:
        deployments: Dict[str, int] = {}
        budgets: Dict[str, int] = {}
        for report in self.reports:
            deployments[report.case.deployment] = deployments.get(report.case.deployment, 0) + 1
            budgets[report.case.budget] = budgets.get(report.case.budget, 0) + 1
        return {
            "seed": self.seed,
            "count": self.count,
            "scenarios_run": len(self.reports),
            "invariants_checked": list(INVARIANTS),
            "deployments": deployments,
            "budgets": budgets,
            "passed": self.passed,
            "failures": [report.to_dict() for report in self.failures],
        }

    def save_report(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def run_campaign(
    seed: int = 0,
    count: int = 30,
    *,
    deployments: Sequence[str] = FUZZ_DEPLOYMENTS,
    budgets: Sequence[str] = BUDGETS,
    supervised: bool = False,
    sharded: bool = False,
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
    generator = ScenarioGenerator(
        seed=seed, deployments=deployments, budgets=budgets, supervised=supervised,
        sharded=sharded,
    )
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
