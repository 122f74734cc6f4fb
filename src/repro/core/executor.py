"""Execution engines for issuing cluster RPCs concurrently.

The paper's throughput results hinge on one systems property: a server that
calls ``get_gradients(t, q)`` issues its requests to *all* workers at once
and returns as soon as the fastest ``q`` answers arrive (Section 3.2).  The
seed reproduction issued the underlying pulls one after the other, so the
wall-clock cost of a round was the *sum* of the per-worker service times
instead of (roughly) their *max*.

This module provides the abstraction that fixes that:

* :class:`SerialExecutor` — runs every task inline, in submission order.  It
  is fully deterministic and is the default for tests and small runs.
* :class:`ThreadedExecutor` — a caller-runs engine.  The calling thread and
  pool helpers claim a wave's tasks from one shared sequence and run them
  concurrently, the caller yielding results as they finish, which is what
  lets :meth:`repro.network.transport.Transport.pull_many` overlap the
  service times of independent peers without parking the caller.
* :class:`ProcessExecutor` — the engine of the multi-process socket backend.
  Handler work runs in the node subprocesses (:mod:`repro.network.rpc`) and
  the socket backend sends a whole wave and drains its replies on the calling
  thread, so there is nothing left to overlap here: tasks run inline.

Determinism contract
--------------------
Both executors expose the same API and — by design of the transport layer,
which samples every random quantity *before* dispatching work — produce
bit-identical training results for a fixed seed.  Tasks submitted to an
executor must therefore be pure with respect to shared randomness: anything
stochastic is pre-sampled by the caller.

``create_executor(name)`` instantiates an engine from :data:`EXECUTOR_REGISTRY`
(``"serial"``, ``"threaded"`` and ``"process"``), mirroring how GARs are built
via :func:`repro.aggregators.base.init`.
"""

from __future__ import annotations

import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple, Type

Task = Callable[[], Any]


class Executor:
    """Abstract engine running independent tasks and yielding completions.

    Subclasses implement :meth:`map_unordered`, which consumes a sequence of
    zero-argument callables and yields ``(index, result)`` pairs as each task
    completes.  The *index* is the task's position in the submitted sequence,
    so callers can reorder results deterministically regardless of completion
    order.
    """

    name: str = "abstract"

    def map_unordered(self, tasks: Sequence[Task]) -> Iterator[Tuple[int, Any]]:
        """Run ``tasks`` and yield ``(index, result)`` in completion order."""
        raise NotImplementedError

    def run_all(self, tasks: Sequence[Task]) -> List[Any]:
        """Run ``tasks`` and return their results in submission order."""
        results: List[Any] = [None] * len(tasks)
        for index, result in self.map_unordered(tasks):
            results[index] = result
        return results

    def shutdown(self) -> None:
        """Release any resources held by the engine (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Run every task inline, in submission order.

    This is the deterministic fallback: completion order equals submission
    order and no threads are involved, which makes failures trivially
    reproducible under a debugger.  It is also the fastest engine when the
    tasks themselves are tiny (no pool handoff overhead).
    """

    name = "serial"

    def map_unordered(self, tasks: Sequence[Task]) -> Iterator[Tuple[int, Any]]:
        for index, task in enumerate(tasks):
            yield index, task()


class ThreadedExecutor(Executor):
    """Caller-runs engine: the calling thread works a wave beside pool helpers.

    :meth:`map_unordered` starts ``max_workers - 1`` helpers on a shared
    :class:`~concurrent.futures.ThreadPoolExecutor`; they and the calling
    thread claim task indices from one shared sequence, so at most
    ``max_workers`` tasks run at once and the caller is one of them.  The
    caller yields each of its own results as it finishes it and, between its
    tasks, whatever the helpers have finished; once the sequence is empty it
    waits for the helpers' last results.  Independent RPC service times
    (gradient computation, simulated link wait) therefore overlap instead of
    accumulating, and the caller never parks while there is work to claim.

    The pool is created lazily on first use and reused across calls.
    """

    name = "threaded"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        # Fan-outs are wait-dominated (simulated link latency, handler work
        # that releases the GIL), so oversubscribe relative to the core count.
        self.max_workers = max_workers or max(8, min(32, (os.cpu_count() or 1) * 8))
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers - 1, thread_name_prefix="repro-exec"
                )
            return self._pool

    def map_unordered(self, tasks: Sequence[Task]) -> Iterator[Tuple[int, Any]]:
        tasks = list(tasks)
        # One claim sequence for every thread: ``next`` on a range iterator
        # is a single step under the GIL, so no index is handed out twice.
        claims = iter(range(len(tasks)))
        done: "queue.SimpleQueue[Tuple[int, bool, Any]]" = queue.SimpleQueue()

        def helper() -> None:
            for index in claims:
                try:
                    done.put((index, True, tasks[index]()))
                except BaseException as exc:
                    for _ in claims:  # start nothing new after a failure
                        pass
                    done.put((index, False, exc))

        def collect() -> Tuple[int, Any]:
            index, ok, value = done.get()
            if not ok:
                raise value
            return index, value

        helpers = min(self.max_workers, len(tasks)) - 1
        running = [self._ensure_pool().submit(helper) for _ in range(helpers)]
        pending = len(tasks)
        try:
            for index in claims:
                result = tasks[index]()
                pending -= 1
                yield index, result
                while not done.empty():  # the caller is the only consumer
                    pending -= 1
                    yield collect()
            while pending:
                pending -= 1
                yield collect()
        except BaseException:
            # A task failed or the consumer closed the generator: claim what
            # is left so nothing new starts, and wait for the helpers so no
            # background thread keeps mutating shared state after the caller
            # unwinds.
            for _ in claims:
                pass
            wait(running)
            raise

    def shutdown(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadedExecutor(max_workers={self.max_workers})"


class ProcessExecutor(SerialExecutor):
    """Engine paired with the multi-process socket backend.

    With ``executor="process"`` every node runs as its own OS subprocess
    (:mod:`repro.network.rpc`), so the *work* of a fan-out — gradient
    computation, model serving — happens outside this interpreter, and the
    socket backend keeps a whole wave in flight from the calling thread
    (:meth:`~repro.network.rpc.SocketBackend.deliver`) without a thread per
    peer.  No pull reaches this engine; anything else runs inline.
    Determinism is unchanged: the transport pre-samples all randomness
    before dispatch and every host serves the very node the coordinator
    built, so a fixed seed yields the same canonical trace as the serial
    engine.
    """

    name = "process"


EXECUTOR_REGISTRY: Dict[str, Type[Executor]] = {
    SerialExecutor.name: SerialExecutor,
    ThreadedExecutor.name: ThreadedExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def available_executors() -> List[str]:
    """Names of all registered execution engines."""
    return sorted(EXECUTOR_REGISTRY)


def create_executor(name: str, max_workers: int | None = None) -> Executor:
    """Instantiate an execution engine by registry name.

    ``max_workers`` only applies to pool-backed engines; the serial engine
    ignores it.
    """
    key = name.lower().replace("_", "-")
    if key not in EXECUTOR_REGISTRY:
        raise ValueError(
            f"unknown executor '{name}'; available: {available_executors()}"
        )
    cls = EXECUTOR_REGISTRY[key]
    if issubclass(cls, ThreadedExecutor):
        return cls(max_workers=max_workers)
    return cls()
