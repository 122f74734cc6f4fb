"""Streaming training sessions: one round engine behind every deployment.

Garfield's headline contribution is its *API* — three short listings that make
any training loop Byzantine-resilient "transparently" (Section 5).  ByzSGD
shows the server/worker phases of every such loop share one
scatter→aggregate→apply skeleton, and this module is that skeleton made
first-class:

* :class:`RoundStrategy` — a declarative description of one deployment's
  round: ``scatter`` (collect gradients/models through the zero-copy matrix
  path), ``aggregate`` (run the GARs), ``apply`` (step the model).  Each of
  the six applications in :mod:`repro.apps` is a small strategy subclass
  registered with :func:`register_application`; third-party strategies plug
  into the same registry.
* :class:`Session` — the streaming driver.  ``for round_result in session:``
  executes one round per step and yields a :class:`RoundResult` (iteration,
  loss/accuracy, quorum sources, update norm) — the one per-round record:
  the scenario :class:`~repro.core.metrics.Trace` is a fold over it.
  Sessions support ``pause()`` / ``resume()``, ``run(until=...)``,
  early-stop predicates, user callbacks at round boundaries, and mid-run
  checkpoint / trace export.
* :func:`train` — the one-call entry point: a
  :class:`~repro.core.cluster.ClusterConfig` (or a chaos scenario's) driven
  to completion.

The engine reproduces the legacy ``run_*`` loops step for step: round
boundaries call :meth:`~repro.core.controller.Deployment.begin_round` (which
applies scenario events) *before* any user callback, the accountant brackets
exactly the same communication, and evaluation happens at the same
iterations — so the checked-in golden traces stay byte-identical on the
serial, threaded and process backends whether a run is streamed, paused and
resumed, or driven end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    Union,
)

import numpy as np

from repro.core.cluster import ClusterConfig
from repro.core.controller import Controller, Deployment, TrainingResult
from repro.core.metrics import IterationRecord
from repro.core.scenario import config_for_scenario
from repro.core.server import Server
from repro.exceptions import ConfigurationError


# ---------------------------------------------------------------------- #
# Round accounting (shared by every strategy)
# ---------------------------------------------------------------------- #
class RoundAccountant:
    """Builds an :class:`IterationRecord` for one training iteration.

    The record's three time components follow the Figure 7 breakdown:

    * *computation* — one worker's gradient-estimation time (workers compute
      in parallel, so the round pays the time of one estimate);
    * *communication* — the pull latencies observed by the reporting server
      plus the serialization / context-switch overhead of the messages it
      exchanged (zero for vanilla deployments, Section 4.1);
    * *aggregation* — the robust-aggregation time of every GAR invocation the
      reporting server performed this round.
    """

    def __init__(self, deployment: Deployment, reporting_server: Server) -> None:
        self.deployment = deployment
        self.server = reporting_server
        self._comm_start = 0.0
        self._messages_start = 0
        self._aggregation_time = 0.0
        self._resilience_start = 0
        self._explicit_bytes = 0
        self._explicit_messages = 0

    # ------------------------------------------------------------------ #
    def _resilience_messages(self) -> int:
        """Hedged + retried messages issued so far by the transport."""
        stats = self.deployment.transport.stats
        return stats.hedges_issued + stats.retries_issued

    def begin(self) -> None:
        self._comm_start = self.server.gradient_comm_time + self.server.model_comm_time
        self._messages_start = self.server.messages_exchanged
        self._aggregation_time = 0.0
        self._resilience_start = self._resilience_messages()
        self._explicit_bytes = 0
        self._explicit_messages = 0

    def add_wire_traffic(self, nbytes: int, messages: int) -> None:
        """Declare ``messages`` of this round's traffic as exactly ``nbytes``.

        By default :meth:`end` charges every exchanged message at the full
        model dimension.  Sharded rounds move most bytes as slice-sized
        messages plus small coordination frames; the strategy reports those
        through this hook so serialization is charged on the bytes actually
        framed, while any remaining (implicit) messages still pay full-``d``.
        """
        self._explicit_bytes += int(nbytes)
        self._explicit_messages += int(messages)

    def add_aggregation(self, gar, dimension: Optional[int] = None) -> None:
        """Account one GAR invocation at the given dimension (defaults to the model's)."""
        dimension = dimension if dimension is not None else self.server.dimension
        self._aggregation_time += self.deployment.cost_model.aggregation_time(gar, dimension)

    def add_detection(self, detection, num_scored: int) -> None:
        """Account one round of suspicion scoring over ``num_scored`` rows.

        Charged into the aggregation bucket — detection is server-side math
        over the same gradient matrix the GAR consumed.
        """
        self._aggregation_time += self.deployment.cost_model.detection_time(
            self.server.dimension, num_scored
        )

    def end(self, iteration: int, accuracy: Optional[float] = None) -> IterationRecord:
        config = self.deployment.config
        dimension = self.server.dimension
        comm = (self.server.gradient_comm_time + self.server.model_comm_time) - self._comm_start
        messages = self.server.messages_exchanged - self._messages_start
        vanilla = config.deployment == "vanilla"
        implicit = messages - self._explicit_messages
        comm += self.deployment.cost_model.serialization_time(dimension, implicit, vanilla=vanilla)
        if self._explicit_messages > 0:
            comm += self.deployment.cost_model.serialization_time_for_bytes(
                self._explicit_bytes, self._explicit_messages, vanilla=vanilla
            )
        resilience_messages = self._resilience_messages() - self._resilience_start
        if resilience_messages > 0:
            # Hedged and retried pulls are real extra traffic: charge their
            # serialization overhead into the communication bucket.  Guarded
            # so resilience-less rounds add literally nothing (goldens).
            comm += self.deployment.cost_model.hedge_time(dimension, resilience_messages)
        compute = self.deployment.cost_model.compute_time(dimension, config.batch_size)
        loss = None
        if accuracy is not None and self.deployment.trace is not None:
            # Scenario-driven runs also measure the test loss at evaluation
            # rounds, so golden traces lock down convergence, not just
            # accuracy plateaus (and the divergence check can read it).
            loss = self.server.compute_loss()
        record = IterationRecord(
            iteration=iteration,
            compute_time=compute,
            communication_time=comm,
            aggregation_time=self._aggregation_time,
            accuracy=accuracy,
            loss=loss,
        )
        self.deployment.metrics.add(record)
        return record


def should_evaluate(deployment: Deployment, iteration: int) -> bool:
    """Whether the reporting server measures accuracy at this iteration.

    The final iteration is always evaluated regardless of the interval, so a
    run whose ``num_iterations`` is not a multiple of ``accuracy_every`` can
    never end with a stale accuracy (locked by
    ``tests/core/test_session.py``).
    """
    every = deployment.config.accuracy_every
    last = deployment.config.num_iterations - 1
    return iteration % every == 0 or iteration == last


# ---------------------------------------------------------------------- #
# Divergence detection
# ---------------------------------------------------------------------- #
#: A round's evaluated loss exceeding ``max(FLOOR, FACTOR * first loss)``
#: marks the run as diverged; the floor keeps tiny-loss noise from tripping
#: the factor.  Non-finite losses/update norms always count as divergence.
DIVERGENCE_LOSS_FACTOR = 25.0
DIVERGENCE_LOSS_FLOOR = 50.0
#: Update norms beyond this are treated as numerical blow-up even if finite.
DIVERGENCE_NORM_BOUND = 1e9


# ---------------------------------------------------------------------- #
# Round context and per-round results
# ---------------------------------------------------------------------- #
@dataclass
class RoundContext:
    """Everything a :class:`RoundStrategy` phase needs for one round."""

    deployment: Deployment
    iteration: int
    #: The reporting server — metrics and evaluation come from this replica.
    server: Server
    accountant: RoundAccountant

    @property
    def config(self):
        return self.deployment.config

    def account(self, gar, dimension: Optional[int] = None) -> None:
        """Charge one GAR invocation performed by the reporting server."""
        self.accountant.add_aggregation(gar, dimension)

    def gradients(self, server: Server, shard_map=None):
        """``server``'s gradient pull for this round, over the current membership.

        The one place a strategy gets its gradient rows: the active workers
        are pulled and ``membership.quorum()`` replies awaited, so a worker
        evicted or declared dead costs no message and no waiting in any
        deployment.  With nobody excluded this is the whole roster and
        ``ClusterConfig.gradient_quorum``.  Returns the read-only ``(q, d)``
        view, or the staged per-shard buffer when ``shard_map`` is given;
        aggregate it with :attr:`f`.
        """
        membership = self.deployment.membership
        workers = list(membership.active())
        if shard_map is None:
            return server.get_gradient_matrix(self.iteration, membership.quorum(), workers)
        return server.get_sharded_gradient_matrices(
            self.iteration, shard_map, membership.quorum(), workers
        )

    def models(self, server: Server, aggregate: Optional[np.ndarray] = None) -> np.ndarray:
        """``server``'s replica pull for this round, over the replica membership.

        The model-phase twin of :meth:`gradients`: the active peer replicas
        are pulled and ``replicas.quorum() - 1`` replies awaited, then
        ``server``'s own row is appended — its model state, or with
        ``aggregate`` (Listing 3's contract step) that aggregate, after the
        peers' published ones.  A replica declared dead costs no message and
        no waiting, and with nobody dead this is the model GAR's static row
        count.  Returns the read-only ``(q, d)`` view.
        """
        replicas = self.deployment.replicas
        peers = [name for name in replicas.active() if name != server.node_id]
        pull = dict(iteration=self.iteration, peers=peers)
        if aggregate is None:
            return server.get_model_matrix(replicas.quorum() - 1, include_self=True, **pull)
        return server.get_aggr_grad_matrix(replicas.quorum() - 1, extra=aggregate, **pull)

    @property
    def f(self) -> int:
        """The Byzantine budget the gradient rule must assume this round."""
        return self.deployment.membership.effective_f()


@dataclass(frozen=True)
class RoundResult:
    """One streamed record per training round, yielded by :class:`Session`.

    The one per-round record: a scenario run's trace entry is this result,
    renamed (:meth:`~repro.core.metrics.Trace.record`).
    """

    iteration: int
    #: Scenario events applied at this round boundary (compact dict form).
    events: Tuple[Dict[str, Any], ...]
    #: Size and sources of the reporting server's last gradient quorum.
    quorum: int
    gradient_sources: Tuple[str, ...]
    #: Norm of the last aggregated update the reporting server applied.
    update_norm: Optional[float]
    accuracy: Optional[float]
    loss: Optional[float]
    #: The timing record appended to the deployment's metrics log.
    record: IterationRecord
    #: Whether this round tripped the divergence detector (non-finite or
    #: runaway loss / update norm) — the explicit counterpart to silently
    #: converging to a poisoned model.
    diverged: bool = False
    #: Detection payload for this round — decayed suspicion per worker,
    #: active membership and evict/re-admit events — or ``None`` when no
    #: detector is attached (the default, so detector-less results are
    #: unchanged).
    detection: Optional[Dict[str, Any]] = None
    #: Liveness payload for this round — per-peer health statuses, the dead
    #: set and typed health/supervisor events — or ``None`` when resilience
    #: is off or the round saw nothing noteworthy (so resilience-less
    #: results are unchanged).
    health: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "iteration": self.iteration,
            "events": [dict(event) for event in self.events],
            "quorum": self.quorum,
            "gradient_sources": list(self.gradient_sources),
            "update_norm": self.update_norm,
            "accuracy": self.accuracy,
            "loss": self.loss,
            "diverged": self.diverged,
        }
        if self.detection is not None:
            data["detection"] = dict(self.detection)
        if self.health is not None:
            data["health"] = dict(self.health)
        return data


# ---------------------------------------------------------------------- #
# RoundStrategy and the application registry
# ---------------------------------------------------------------------- #
class RoundStrategy:
    """One deployment's round, as scatter → aggregate → apply phases.

    The default phases implement the single-trusted-server round of
    Listing 1 (SSMW); strategies with more structure (replicated servers,
    decentralized contraction, primary/backup failover) override
    :meth:`run_round` and still aggregate every replica's rows through
    :meth:`aggregate` — one aggregation phase for every deployment.
    Strategy instances are created per session and may keep per-run state
    (e.g. the crash-tolerant primary index).
    """

    #: Registry name; assigned by :func:`register_application`.
    name: str = ""

    # ------------------------------------------------------------------ #
    def setup(self, deployment: Deployment) -> None:
        """One-time preparation before the first round (default: nothing)."""

    def reporting_server(self, deployment: Deployment, iteration: int) -> Server:
        """The replica that reports metrics for this round (default: primary,
        the first honest replica not declared dead)."""
        return deployment.primary

    # ------------------------------------------------------------------ #
    def run_round(self, ctx: RoundContext) -> None:
        """Execute one full round: the scatter → aggregate → apply template."""
        inputs = self.scatter(ctx)
        update = self.aggregate(ctx, inputs)
        self.apply(ctx, update)

    def scatter(self, ctx: RoundContext) -> np.ndarray:
        """Collect this round's inputs (default: a robust gradient quorum)."""
        return ctx.gradients(ctx.server)

    def aggregate(
        self, ctx: RoundContext, rows: np.ndarray, server: Optional[Server] = None, model: bool = False
    ) -> np.ndarray:
        """Robustly aggregate ``server``'s rows (default: the reporting server's).

        The one aggregation phase of every bundled deployment: the gradient
        GAR, or with ``model`` the model GAR.  The rule always runs sized for
        the rows it receives (:meth:`GAR.resized`) — the gradient rule at the
        budget still assumed among them (:attr:`RoundContext.f`, the declared
        f minus evictions), the model rule at its declared f — so a pull set
        shrunk by evictions or dead declarations is never scored by a rule
        built for the full quorum, and with nobody excluded the rule *is* the
        deployment's own instance.  The reporting server's sized rule is what
        the accountant charges, so a shrunk membership shows up as cheaper
        aggregation, not just fewer messages.  With a detection manager
        attached gradient rows are scored and reputation-weighted first
        (``detection.weigh_and_observe`` — the suspicion update lands in the
        same round).  Membership decisions happen at the end of the round
        (:meth:`Session.step` calls ``detection.finish_round``).
        """
        server = ctx.server if server is None else server
        detection = None if model else ctx.deployment.detection
        if detection is not None:
            rows = detection.weigh_and_observe(rows, tuple(server.last_gradient_sources))
        if model:
            gar = ctx.deployment.model_gar.resized(len(rows))
        else:
            gar = ctx.deployment.gradient_gar.resized(len(rows), ctx.f)
        update = gar.aggregate_matrix(rows)
        if server is ctx.server:
            ctx.account(gar)
            if detection is not None:
                ctx.accountant.add_detection(detection, len(rows))
        return update

    def apply(self, ctx: RoundContext, update: np.ndarray) -> None:
        """Apply the aggregated update (default: one SGD step, Equation 2)."""
        ctx.server.update_model(update)


#: Deployment name -> strategy class.  Populated by :func:`register_application`.
APPLICATION_REGISTRY: Dict[str, Type[RoundStrategy]] = {}


def register_application(name: str, *, replace: bool = False):
    """Class decorator registering a :class:`RoundStrategy` under ``name``.

    Third-party strategies use the same registry as the six bundled
    applications; once registered, the name is accepted by
    :class:`~repro.core.cluster.ClusterConfig`, :class:`Session` and
    :func:`train`.  Re-registering an existing name raises unless
    ``replace=True``.
    """

    if not name or not isinstance(name, str):
        raise ConfigurationError("application names must be non-empty strings")

    def decorator(cls: Type[RoundStrategy]) -> Type[RoundStrategy]:
        if not (isinstance(cls, type) and issubclass(cls, RoundStrategy)):
            raise ConfigurationError(
                f"@register_application('{name}') needs a RoundStrategy subclass, got {cls!r}"
            )
        # Load the bundled strategies first so a third-party registration
        # cannot silently claim a bundled name (no-op while they register
        # themselves during that very import).
        _ensure_builtin_strategies()
        if name in APPLICATION_REGISTRY and not replace:
            raise ConfigurationError(
                f"application '{name}' is already registered "
                f"({APPLICATION_REGISTRY[name].__name__}); pass replace=True to override"
            )
        cls.name = name
        APPLICATION_REGISTRY[name] = cls
        return cls

    return decorator


_BUILTINS_STATE = "unloaded"


def _ensure_builtin_strategies() -> None:
    # The six bundled strategies live in repro.apps and register themselves on
    # import; imported lazily so parsing configs/specs stays import-light.
    # The state guard makes the registrations happening *during* that import
    # re-entrant instead of recursive.
    global _BUILTINS_STATE
    if _BUILTINS_STATE != "unloaded":
        return
    _BUILTINS_STATE = "loading"
    try:
        import repro.apps  # noqa: F401
    except BaseException:
        _BUILTINS_STATE = "unloaded"
        raise
    _BUILTINS_STATE = "loaded"


def available_applications() -> List[str]:
    """Names of every registered application strategy (bundled + third-party)."""
    _ensure_builtin_strategies()
    return sorted(APPLICATION_REGISTRY)


def is_registered_application(name: str) -> bool:
    """Whether ``name`` resolves to a registered strategy (without erroring)."""
    if name in APPLICATION_REGISTRY:
        return True
    _ensure_builtin_strategies()
    return name in APPLICATION_REGISTRY


def resolve_application(name: str) -> RoundStrategy:
    """Instantiate the registered strategy for ``name``."""
    _ensure_builtin_strategies()
    if name not in APPLICATION_REGISTRY:
        raise ConfigurationError(
            f"no application registered for deployment '{name}'; "
            f"available: {available_applications()}"
        )
    return APPLICATION_REGISTRY[name]()


# ---------------------------------------------------------------------- #
# The streaming Session
# ---------------------------------------------------------------------- #
RoundCallback = Callable[[RoundResult], Any]
RoundStartCallback = Callable[["Session", int, List[Dict[str, Any]]], Any]
StopPredicate = Callable[[RoundResult], bool]


class Session(Iterator[RoundResult]):
    """A streaming, pausable training run over one deployment.

    Iterate it (``for round_result in session:``) to execute one round per
    step, or call :meth:`run` to drive it to completion.  The session owns no
    training state of its own — everything lives in the deployment — so a
    paused-and-resumed run is indistinguishable from an uninterrupted one.
    """

    def __init__(
        self,
        deployment: Optional[Deployment] = None,
        *,
        config=None,
        strategy: Optional[RoundStrategy] = None,
        early_stop: Optional[StopPredicate] = None,
    ) -> None:
        if deployment is None:
            if config is None:
                raise ConfigurationError("Session needs a deployment or a config")
            deployment = Controller(config).build()
        elif config is not None and config is not deployment.config:
            raise ConfigurationError("pass either a deployment or a config, not both")
        self.deployment = deployment
        self.strategy = strategy or resolve_application(deployment.config.deployment)
        self._early_stop = early_stop
        self._round_callbacks: List[RoundCallback] = []
        self._round_start_callbacks: List[RoundStartCallback] = []
        self._next_round = 0
        self._started = False
        self._paused = False
        self._finished = False
        self.stopped_early = False
        self._reporting: Optional[Server] = None
        self._last_result: Optional[RoundResult] = None
        self._diverged = False
        self._baseline_loss: Optional[float] = None

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def config(self):
        return self.deployment.config

    @property
    def next_round(self) -> int:
        """Index of the round the next step will execute."""
        return self._next_round

    @property
    def rounds_run(self) -> int:
        return self._next_round

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def trace(self):
        """The deterministic scenario trace (``None`` for scenario-less runs)."""
        return self.deployment.trace

    @property
    def last_result(self) -> Optional[RoundResult]:
        return self._last_result

    @property
    def diverged(self) -> bool:
        """Whether any round so far tripped the divergence detector (sticky)."""
        return self._diverged

    @property
    def reporting_server(self) -> Server:
        """The replica metrics are currently reported from."""
        return self._reporting if self._reporting is not None else self.deployment.primary

    # ------------------------------------------------------------------ #
    # Callbacks and flow control
    # ------------------------------------------------------------------ #
    def on_round(self, callback: RoundCallback) -> "Session":
        """Call ``callback(round_result)`` after every completed round."""
        self._round_callbacks.append(callback)
        return self

    def on_round_start(self, callback: RoundStartCallback) -> "Session":
        """Call ``callback(session, iteration, events)`` at each round boundary.

        Fires *after* the scenario director applied the round's events but
        before any phase of the round runs (the trace holds the previous
        rounds only) — the ordering ``tests/core/test_session.py`` locks down.
        """
        self._round_start_callbacks.append(callback)
        return self

    def pause(self) -> None:
        """Stop yielding rounds until :meth:`resume`; safe to call mid-stream."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False

    # ------------------------------------------------------------------ #
    # The round engine
    # ------------------------------------------------------------------ #
    def step(self) -> Optional[RoundResult]:
        """Execute exactly one round; ``None`` when the session is finished.

        Ignores the paused flag — pausing gates the *streaming* interfaces
        (iteration and :meth:`run`), not an explicit single step.
        """
        if self._finished:
            return None
        deployment = self.deployment
        iteration = self._next_round
        if not self._started:
            self.strategy.setup(deployment)
            self._started = True
        # Round boundary: scenario events first, exactly like the legacy
        # loops — a crash injected at round t must trigger failover within
        # the same round.
        events = deployment.begin_round(iteration)
        reporting = self.strategy.reporting_server(deployment, iteration)
        self._reporting = reporting
        if self._baseline_loss is None and deployment.trace is not None:
            # The divergence detector's reference point is the *pristine*
            # model, measured before any update is applied — a run that is
            # poisoned from round 0 must not get to define its own baseline.
            baseline = reporting.compute_loss()
            if np.isfinite(baseline):
                self._baseline_loss = float(baseline)
        for callback in self._round_start_callbacks:
            callback(self, iteration, events)
        accountant = RoundAccountant(deployment, reporting)
        accountant.begin()
        ctx = RoundContext(
            deployment=deployment, iteration=iteration, server=reporting, accountant=accountant
        )
        self.strategy.run_round(ctx)
        accuracy = reporting.compute_accuracy() if should_evaluate(deployment, iteration) else None
        record = accountant.end(iteration, accuracy=accuracy)
        diverged = self._detect_divergence(record, reporting)
        detection_payload = None
        if deployment.detection is not None:
            # Decide memberships on the round's updated scores once the
            # accountant closed the round.
            detection_payload = deployment.detection.finish_round(iteration)
        health_payload = None
        if deployment.health is not None:
            # Classify liveness after detection scored the round (its
            # evidence lands on the updated suspicion levels).
            health_payload = deployment.health.finish_round(iteration)
        result = RoundResult(
            iteration=iteration,
            events=tuple(events),
            quorum=len(reporting.last_gradient_sources),
            gradient_sources=tuple(reporting.last_gradient_sources),
            update_norm=reporting.last_update_norm,
            accuracy=record.accuracy,
            loss=record.loss,
            record=record,
            diverged=diverged,
            detection=detection_payload,
            health=health_payload,
        )
        if deployment.trace is not None:
            # The trace's one writer: a round that raised above leaves no entry.
            deployment.trace.record(result)
        self._last_result = result
        self._next_round += 1
        if self._next_round >= deployment.config.num_iterations:
            # Natural completion: a stop recorded by an earlier
            # run(until=predicate) no longer describes how this run ended
            # (an early_stop predicate firing below re-asserts it).
            self._finished = True
            self.stopped_early = False
        for callback in self._round_callbacks:
            callback(result)
        if self._early_stop is not None and self._early_stop(result):
            self._finished = True
            self.stopped_early = True
        return result

    def _detect_divergence(self, record: IterationRecord, reporting: Server) -> bool:
        """Flag numerical blow-up or runaway loss, loudly, in the round's result.

        Divergence means: a non-finite update norm or loss, an update norm
        beyond :data:`DIVERGENCE_NORM_BOUND`, or an evaluated loss exceeding
        ``max(DIVERGENCE_LOSS_FLOOR, DIVERGENCE_LOSS_FACTOR * baseline)``,
        where the baseline is the pristine model's loss measured before the
        first update (so a run poisoned from round 0 cannot define its own
        reference point).  Loss is only observed at evaluation rounds (and
        only for traced runs, which compute it there), so loss-based
        detection fires at the first evaluation after the run went bad;
        norm-based detection fires on any round.  Healthy runs are untouched
        — the golden traces carry no flag.
        """
        norm = reporting.last_update_norm
        loss = record.loss
        diverged = False
        if norm is not None and (not np.isfinite(norm) or norm > DIVERGENCE_NORM_BOUND):
            diverged = True
        if loss is not None:
            if not np.isfinite(loss):
                diverged = True
            elif self._baseline_loss is not None and loss > max(
                DIVERGENCE_LOSS_FLOOR, DIVERGENCE_LOSS_FACTOR * self._baseline_loss
            ):
                diverged = True
        if diverged:
            self._diverged = True
        return diverged

    def __iter__(self) -> "Session":
        return self

    def __next__(self) -> RoundResult:
        if self._paused or self._finished:
            raise StopIteration
        result = self.step()
        if result is None:  # pragma: no cover - guarded by _finished above
            raise StopIteration
        return result

    def run(self, until: Optional[Union[int, StopPredicate]] = None) -> TrainingResult:
        """Drive the session forward and return the :class:`TrainingResult`.

        * ``run()`` — to completion (or until a pause / early stop).
        * ``run(until=k)`` — executes rounds ``< k``: afterwards
          ``next_round == min(k, num_iterations)``.
        * ``run(until=predicate)`` — stops right after the first round whose
          :class:`RoundResult` satisfies the predicate.
        """
        bound: Optional[int] = None
        predicate: Optional[StopPredicate] = None
        if until is not None:
            if callable(until):
                predicate = until
            elif isinstance(until, int) and not isinstance(until, bool):
                if until < 0:
                    raise ConfigurationError("run(until=...) needs a non-negative round index")
                bound = until
            else:
                raise ConfigurationError(
                    f"run(until=...) takes a round index or a predicate, got {until!r}"
                )
        self.resume()
        while not self._finished and not self._paused:
            if bound is not None and self._next_round >= bound:
                break
            result = self.step()
            if predicate is not None and result is not None and predicate(result):
                self.stopped_early = True
                break
        return self.result()

    # ------------------------------------------------------------------ #
    # Mid-run artifacts
    # ------------------------------------------------------------------ #
    def checkpoint(self, path) -> None:
        """Persist the reporting server's model state mid-run (``.npz``)."""
        self.reporting_server.save_checkpoint(path)

    def export_trace(self, path) -> None:
        """Write the deterministic scenario trace collected so far to ``path``."""
        if self.deployment.trace is None:
            raise ConfigurationError(
                "this session records no trace; run it under a scenario "
                "(ClusterConfig.scenario or train(scenario=...))"
            )
        self.deployment.trace.save(path)

    def result(self) -> TrainingResult:
        """Snapshot of the run so far as a :class:`TrainingResult`."""
        return Controller.collect_result(self.deployment)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the deployment's runtime resources (idempotent)."""
        self.deployment.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "paused" if self._paused else ("finished" if self._finished else "ready")
        return (
            f"Session(deployment='{self.config.deployment}', "
            f"round={self._next_round}/{self.config.num_iterations}, {state})"
        )


# ---------------------------------------------------------------------- #
# One-call training
# ---------------------------------------------------------------------- #
def train(
    *,
    scenario: Optional[str] = None,
    until: Optional[Union[int, StopPredicate]] = None,
    early_stop: Optional[StopPredicate] = None,
    on_round: Optional[RoundCallback] = None,
    strategy: Optional[RoundStrategy] = None,
    **config_fields: Any,
) -> TrainingResult:
    """One-call Byzantine-resilient training: ``repro.train(...)``.

    Keyword arguments are :class:`~repro.core.cluster.ClusterConfig` fields
    (with ``scenario``, merged under the scenario's own config by
    :func:`~repro.core.scenario.config_for_scenario`); ``until`` /
    ``early_stop`` / ``on_round`` / ``strategy`` expose the session controls.
    Builds the cluster, streams the rounds, closes the deployment and returns
    the :class:`~repro.core.controller.TrainingResult`.
    """
    if scenario:
        config = config_for_scenario(scenario, **config_fields)
    else:
        config = ClusterConfig(**config_fields)
    with Session(config=config, strategy=strategy, early_stop=early_stop) as session:
        if on_round is not None:
            session.on_round(on_round)
        return session.run(until=until)
