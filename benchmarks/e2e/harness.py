"""Drive one workload through real ``Session.step()`` rounds and measure it.

A closed loop with one client: round *t+1* is issued only after round *t*
returned.  Everything here reads the program through its public objects
(``Controller``, ``Session``, ``Transport.stats``, ``ProcessDeployment.pids``)
and ``/proc``; nothing under ``src/`` is changed or monkeypatched here (the
traced pass does that, in ``tracing.py``).
"""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, List, Optional, Sequence

from tracing import percentile
from workloads import Workload

#: The reference box is a shared two-core VM: for seconds at a time, sometimes
#: for most of a run, something outside the benchmark slows the cores down by
#: a quarter to three quarters (a pure-Python loop goes from 13 to 24 ms), and
#: a run's median flips with the share of the run that was hit.  Interference
#: only ever adds time, so the timings are taken over the *quiet rounds*: the
#: timed rounds are cut into blocks of ``BLOCK`` consecutive rounds and the
#: ``QUIET_SHARE`` of the blocks with the least wall time is kept.  A slower
#: program slows its quiet blocks too.  A share, not the single best block:
#: pool threads make a program's own round time wander both ways, and the
#: best block of such a run is luck.
BLOCK = 10
QUIET_SHARE = 0.2
#: Never fewer blocks than this, so the 90th percentile has samples beyond it.
MIN_QUIET_BLOCKS = 3

#: A pass stops after this many failed rounds in a row: the deployment is
#: not coming back and every later round would fail the same way.
MAX_CONSECUTIVE_FAILURES = 3

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name may contain spaces; fields are counted after it.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def _host_pids(deployment) -> List[int]:
    pids = getattr(deployment, "pids", None)
    return [pid for pid in pids().values() if pid is not None] if pids else []


def _counters(deployment) -> Dict[str, float]:
    """The program's own public counters the per-layer ratios are built from."""
    from repro.aggregators.base import DISTANCE_CACHE

    stats = deployment.transport.stats
    return {
        "wire_bytes": stats.bytes_sent,
        "pulls_issued": stats.pulls_issued,
        "replies_served": stats.messages_sent
        - stats.per_kind_messages.get("shard-coordination", 0),
        "retries_issued": stats.retries_issued,
        "gradients_computed": sum(worker.gradients_computed for worker in deployment.workers),
        "distance_cache_hits": DISTANCE_CACHE.hits,
        "distance_cache_misses": DISTANCE_CACHE.misses,
    }


@dataclass
class Pass:
    """Everything one pass over a workload observed."""

    quorum: int
    setup_s: float = 0.0
    #: Per timed round: wall and coordinator-CPU seconds of ``Session.step()``.
    step_s: List[float] = field(default_factory=list)
    cpu_s: List[float] = field(default_factory=list)
    host_cpu_s: float = 0.0
    #: Wall time of the timed loop (steps plus the harness's bookkeeping,
    #: without the quality read-out).
    wall_s: float = 0.0
    #: ``update_norm`` of every round, warm-up included, in order.
    update_norms: List[Optional[float]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    gate_errors: List[str] = field(default_factory=list)
    pristine_loss: float = math.nan
    loss: float = math.nan
    accuracy: float = math.nan
    peak_rss_mb: float = 0.0
    host_rss_mb: float = 0.0
    #: Deltas of :func:`_counters` over the timed rounds.
    counters: Dict[str, float] = field(default_factory=dict)
    #: ``MetricsLog.breakdown()`` of the same run: the cost model's prediction.
    predicted: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def attempted(self) -> int:
        return len(self.step_s) + self.failed

    @property
    def correct(self) -> bool:
        return not self.failures and not self.gate_errors


def quiet_rounds(step_s: Sequence[float]) -> List[int]:
    """Indices of the timed rounds in the quietest blocks (all, if under one block)."""
    starts = list(range(0, len(step_s) - BLOCK + 1, BLOCK))
    if not starts:
        return list(range(len(step_s)))
    starts.sort(key=lambda start: sum(step_s[start : start + BLOCK]))
    keep = max(MIN_QUIET_BLOCKS, int(QUIET_SHARE * len(starts)))
    return [index for start in starts[:keep] for index in range(start, start + BLOCK)]


def run_pass(
    workload: Workload,
    seed: int,
    *,
    seconds: float,
    min_rounds: int,
    max_rounds: Optional[int] = None,
    tracer=None,
) -> Pass:
    """Build the deployment, warm it up, time rounds, check them, close it.

    Timed rounds run until ``seconds`` have passed *and* ``min_rounds`` are
    done (or ``max_rounds``, if given; 0 measures the set-up alone).  Quality is read right after timed
    round ``min_rounds`` — a fixed point, so it does not depend on how fast
    the box is — and outside the per-round timers.
    """
    from repro.core.controller import Controller
    from repro.core.session import Session

    config = workload.config(seed)
    result = Pass(quorum=config.gradient_quorum())
    started = perf_counter()
    deployment = Controller(config).build()
    try:
        session = Session(deployment)
        built = perf_counter()
        if tracer is not None:
            tracer.label_gars(deployment)
        # The benchmark's own reference point, not part of the program's set-up.
        result.pristine_loss = session.reporting_server.compute_loss()
        warmup_started = perf_counter()
        for _ in range(workload.warmup):
            result.update_norms.append(session.step().update_norm)
        result.setup_s = (built - started) + (perf_counter() - warmup_started)

        server = session.reporting_server
        hosts = _host_pids(deployment)
        before = _counters(deployment)
        host_cpu_before = sum(proc_cpu_s(pid) for pid in hosts)
        consecutive_failures = 0
        quality_s = 0.0
        loop_started = perf_counter()
        while True:
            done = result.attempted
            if max_rounds is not None and done >= max_rounds:
                break
            if done >= min_rounds and perf_counter() - loop_started >= seconds:
                break
            cpu_started = process_time()
            step_started = perf_counter()
            try:
                outcome = session.step()
            except Exception as exc:  # noqa: BLE001 - a failed round is a result
                result.failures.append(f"round {session.next_round}: {type(exc).__name__}: {exc}")
                consecutive_failures += 1
                if consecutive_failures >= MAX_CONSECUTIVE_FAILURES:
                    break
                continue
            result.step_s.append(perf_counter() - step_started)
            result.cpu_s.append(process_time() - cpu_started)
            consecutive_failures = 0
            result.update_norms.append(outcome.update_norm)
            _check_round(result, outcome)
            if len(result.step_s) == min_rounds:
                quality_started = perf_counter()
                result.loss = server.compute_loss()
                result.accuracy = server.compute_accuracy()
                quality_s = perf_counter() - quality_started
        result.wall_s = perf_counter() - loop_started - quality_s
        result.host_cpu_s = sum(proc_cpu_s(pid) for pid in hosts) - host_cpu_before
        after = _counters(deployment)
        result.counters = {key: after[key] - before[key] for key in after}
        result.predicted = deployment.metrics.breakdown()
        host_rss = [proc_peak_rss_mb(pid) for pid in hosts]
        result.host_rss_mb = statistics.mean(host_rss) if host_rss else 0.0
        result.peak_rss_mb = proc_peak_rss_mb(os.getpid()) + sum(host_rss)
    finally:
        deployment.close()
    return result


def _check_round(result: Pass, outcome) -> None:
    """The per-round half of the correctness gate."""
    if outcome.quorum != result.quorum:
        result.gate_errors.append(
            f"round {outcome.iteration}: {outcome.quorum} gradient sources, expected {result.quorum}"
        )
    if outcome.update_norm is None or not math.isfinite(outcome.update_norm):
        result.gate_errors.append(f"round {outcome.iteration}: update_norm {outcome.update_norm}")
    if outcome.diverged:
        result.gate_errors.append(f"round {outcome.iteration}: flagged diverged")


def end_to_end_metrics(result: Pass, setup_samples: Sequence[float]) -> Dict[str, float]:
    """The end-to-end metrics of an untraced pass, by their BENCHMARK.json names."""
    rounds = len(result.step_s)
    quiet = quiet_rounds(result.step_s)
    quiet_step_s = [result.step_s[index] for index in quiet]
    quiet_cpu_s = [result.cpu_s[index] for index in quiet]
    return {
        "rounds_per_s": 1.0 / statistics.fmean(quiet_step_s),
        "round_ms_p50": 1e3 * statistics.median(quiet_step_s),
        "round_ms_p90": 1e3 * percentile(quiet_step_s, 0.9),
        "setup_s": statistics.median(setup_samples),
        "cpu_s_per_round": statistics.fmean(quiet_cpu_s) + result.host_cpu_s / rounds,
        "peak_rss_mb": result.peak_rss_mb,
        "wire_bytes_per_round": result.counters["wire_bytes"] / rounds,
        "loss_reduction": 1.0 - result.loss / result.pristine_loss,
        "final_accuracy": result.accuracy,
    }
