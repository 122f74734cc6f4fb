"""Outside-in span tracing for the end-to-end benchmark.

Nothing under ``src/`` knows about this file.  :class:`Tracer` replaces the
public entry points of each layer (a class attribute, or a module function in
every ``repro`` module that imported it by name) with a wrapper that records
one in-memory span per call — ``id, name, parent, round, start, end, counts``
— and :meth:`Tracer.uninstall` puts the originals back.  The spans are
analysed after the pass (:func:`layer_metrics`) and written out as JSON lines.

Rules the analysis relies on:

* A span's parent is the innermost open span *of the thread that caused it*.
  Tasks handed to ``Executor.map_unordered`` run on pool threads whose own
  stack is empty, so the wrapper binds each task to the ``map_unordered`` span
  that submitted it — otherwise the pool threads' work would float free and
  be counted a second time under their thread.
* Self time is a span's duration minus the *union* of its children's
  intervals (children on pool threads overlap each other).
* A boundary that re-enters itself (``Sequential.__call__`` calling its
  layers' ``__call__``, ``serialize_vector`` calling
  ``serialize_vector_parts``) records only the outermost call.
* Node-host subprocesses are not wrapped: on the process backend their time
  is visible only as the coordinator's ``wire.recv_wait`` span.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# Span record layout (a list, so a wrapper can fill END / COUNTS after the call).
ID, NAME, PARENT, ROUND, START, END, COUNTS = range(7)

#: Span-name prefix -> layer (the repo's module names).
LAYERS = {
    "session": "core.session",
    "server": "core.server",
    "worker": "core.worker",
    "nn": "nn",
    "datasets": "datasets",
    "attacks": "attacks",
    "executor": "core.executor",
    "transport": "network.transport",
    "serialization": "network.serialization",
    "wire": "network.wire",
    "rpc": "network.rpc",
    "aggregators": "aggregators",
    "sharding": "sharding",
}

#: Layer groups compared with the cost model's three buckets.
COST_GROUPS = {
    "compute": ("core.worker", "nn", "datasets", "attacks"),
    "comm": (
        "core.executor",
        "network.transport",
        "network.serialization",
        "network.wire",
        "network.rpc",
    ),
    "agg": ("aggregators", "sharding"),
}


def layer_of(span_name: str) -> str:
    return LAYERS[span_name.split(".", 1)[0]]


# ---------------------------------------------------------------------- #
# Counts taken at the same boundaries as the spans
# ---------------------------------------------------------------------- #
def _nbytes(parts: Any) -> int:
    if isinstance(parts, (bytes, bytearray, memoryview)):
        return len(parts)
    return sum(len(part) for part in parts)


def _count_encode(args: tuple, result: Any) -> Dict[str, int]:
    return {"in_bytes": 8 * int(np.size(args[0])), "framed_bytes": _nbytes(result)}


def _count_selected(args: tuple, result: Any) -> Dict[str, int]:
    return {"selected": len(result[0])}


def _count_resident(args: tuple, result: Any) -> Dict[str, int]:
    return {"resident_bytes": args[0].resident_nbytes}


def _count_sent_frame(args: tuple, result: Any) -> Dict[str, int]:
    return {"frames": 1, "frame_bytes": len(args[1]) + 8}


def _count_received_frame(args: tuple, result: Any) -> Dict[str, int]:
    return {"frames": 1, "frame_bytes": len(result) + 8}


class Tracer:
    """Installs the wrappers, holds the spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Round the coordinator is executing (-1 outside ``Session.step``);
        #: pool threads read it, which is safe in a closed loop of one client.
        self.round = -1
        #: ``id(gar) -> "gradient" | "model"``, set by :meth:`label_gars`.
        self.gar_roles: Dict[int, str] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Span primitives
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[list]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _begin(self, name: str, stack: List[list]) -> list:
        parent = stack[-1][ID] if stack else None
        span = [next(self._ids), name, parent, self.round, perf_counter(), 0.0, None]
        stack.append(span)
        return span

    def _end(self, span: list, stack: List[list]) -> None:
        span[END] = perf_counter()
        stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def _wrap(
        self,
        original: Callable,
        name: Any,
        count: Optional[Callable[[tuple, Any], Dict[str, int]]] = None,
    ) -> Callable:
        """``original`` recorded as one span per outermost call.

        ``name`` is the span name, or a callable taking the call's positional
        arguments and returning it (GARs are named by their role).
        """
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            stack = tracer._stack()
            if stack and stack[-1][NAME] == span_name:
                return original(*args, **kwargs)
            span = tracer._begin(span_name, stack)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._end(span, stack)
            if count is not None:
                span[COUNTS] = count(args, result)
            return result

        return wrapper

    def _wrap_step(self, original: Callable) -> Callable:
        traced = self._wrap(original, "session.step")
        tracer = self

        def step(session):
            tracer.round = session.next_round
            try:
                return traced(session)
            finally:
                tracer.round = -1

        return step

    def _wrap_map_unordered(self, original: Callable) -> Callable:
        """Span around the fan-out; each task becomes a child span of it."""
        tracer = self

        def bind(task: Callable, parent: list) -> Callable:
            def bound():
                stack = tracer._stack()
                floating = not stack  # a pool thread: adopt the submitter's span
                if floating:
                    stack.append(parent)
                span = tracer._begin("transport.serve", stack)
                try:
                    return task()
                finally:
                    tracer._end(span, stack)
                    if floating:
                        stack.pop()

            return bound

        def map_unordered(executor, tasks):
            stack = tracer._stack()
            span = tracer._begin("executor.map_unordered", stack)
            try:
                yield from original(executor, [bind(task, span) for task in tasks])
            finally:
                tracer._end(span, stack)

        return map_unordered

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def _patch_attr(self, owner: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _patch_function(self, module: Any, attr: str, name: str, count=None) -> None:
        """Wrap a module function in every ``repro`` module that looks it up.

        ``from repro.network.wire import send_frame`` binds the function in
        the importer's globals, so patching only the defining module would
        leave the importer calling the original.
        """
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> "Tracer":
        # Imported here so that importing this file starts nothing and needs
        # no particular import order.
        import repro.apps  # noqa: F401 - registers the strategies
        from repro.aggregators import base as gar_base
        from repro.attacks.base import Attack
        from repro.core.executor import SerialExecutor, ThreadedExecutor
        from repro.core.server import Server
        from repro.core.session import Session
        from repro.core.worker import Worker
        from repro.datasets.loader import DataLoader
        from repro.network import rpc, serialization, wire
        from repro.network.transport import RoundBuffer, Transport
        from repro.nn.layers import Module
        from repro.nn.losses import CrossEntropyLoss
        from repro.nn.optim import SGD
        from repro.nn.tensor import Tensor
        from repro.sharding import aggregation as shard_aggregation
        from repro.sharding.buffers import ShardedRoundBuffer

        def method(owner: type, attr: str, name: Any, count=None) -> None:
            self._patch_attr(owner, attr, lambda original: self._wrap(original, name, count))

        self._patch_attr(Session, "step", self._wrap_step)
        method(Server, "get_gradient_matrix", "server.pull_gradients")
        method(Server, "get_sharded_gradient_matrices", "server.pull_gradients")
        method(Server, "get_model_matrix", "server.pull_models")
        method(Server, "update_model", "server.update_model")
        method(Server, "write_model", "server.write_model")
        # The handler the transport invokes; ByzantineWorker's override calls
        # it through super(), then the attack, which is its own span.
        method(Worker, "_serve_gradient", "worker.gradient")
        method(Module, "__call__", "nn.forward")
        method(CrossEntropyLoss, "__call__", "nn.forward")
        method(Tensor, "backward", "nn.backward")
        method(SGD, "apply_flat_gradient", "nn.optim_apply")
        method(DataLoader, "next_batch", "datasets.next_batch")
        method(Attack, "__call__", "attacks.craft")
        for executor_cls in (SerialExecutor, ThreadedExecutor):  # process inherits threaded
            self._patch_attr(executor_cls, "map_unordered", self._wrap_map_unordered)
        method(Transport, "pull_many", "transport.pull_many", _count_selected)
        method(RoundBuffer, "write_row", "transport.roundbuffer_write")
        method(
            gar_base.GAR,
            "aggregate_matrix",
            lambda args: "aggregators." + self.gar_roles.get(id(args[0]), "gradient") + "_gar",
        )
        method(ShardedRoundBuffer, "materialize", "sharding.materialize", _count_resident)
        method(rpc.SocketBackend, "invoke", "rpc.invoke")
        method(rpc.SocketBackend, "sync_state", "rpc.sync_state")
        method(rpc.SocketBackend, "start", "rpc.spawn")

        self._patch_function(serialization, "serialize_vector_parts", "serialization.encode", _count_encode)
        self._patch_function(serialization, "serialize_vector", "serialization.encode", _count_encode)
        self._patch_function(serialization, "deserialize_vector", "serialization.decode")
        self._patch_function(wire, "encode_value", "wire.encode")
        self._patch_function(wire, "decode_value", "wire.decode")
        self._patch_function(wire, "send_frame", "wire.send", _count_sent_frame)
        self._patch_function(wire, "recv_frame", "wire.recv_wait", _count_received_frame)
        self._patch_function(gar_base, "pairwise_squared_distances", "aggregators.distance")
        self._patch_function(shard_aggregation, "partial_squared_distances", "aggregators.distance")
        self._patch_function(shard_aggregation, "aggregate_shards", "sharding.aggregate_shards")
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def label_gars(self, deployment) -> None:
        """Tell gradient-GAR calls from model-GAR calls by instance."""
        self.gar_roles[id(deployment.gradient_gar)] = "gradient"
        if deployment.model_gar is not None:
            self.gar_roles[id(deployment.model_gar)] = "model"

    # ------------------------------------------------------------------ #
    def write(self, path) -> None:
        """One JSON object per span, in completion order."""
        keys = ("id", "name", "parent", "round", "start", "end", "counts")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))))
                handle.write("\n")


# ---------------------------------------------------------------------- #
# Analysis
# ---------------------------------------------------------------------- #
def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span[ID], ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span[ID]] = (end - start) - covered
    return result


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 of nothing): a sample, never an interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Iterable[list],
    *,
    first_round: int,
    rounds: int,
    pass_wall_s: float,
    observed: Dict[str, float],
) -> Dict[str, float]:
    """Every span-derived per-layer metric, keyed by its BENCHMARK.json name.

    ``spans`` are filtered to rounds ``>= first_round`` (the warm-up is
    traced but not reported); ``rounds`` is how many timed rounds that leaves
    and ``pass_wall_s`` the wall time of the loop that drove them.
    ``observed`` carries what the harness read off the program's own public
    counters for the same rounds (see ``harness.counters``).
    """
    timed = [span for span in spans if span[ROUND] >= first_round]
    own = self_times(timed)
    inclusive: Dict[str, float] = {}
    self_by_name: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    durations: Dict[str, List[float]] = {}
    counts: Dict[str, Dict[str, int]] = {}
    for span in timed:
        name = span[NAME]
        duration = span[END] - span[START]
        inclusive[name] = inclusive.get(name, 0.0) + duration
        self_by_name[name] = self_by_name.get(name, 0.0) + own[span[ID]]
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(duration)
        if span[COUNTS]:
            bucket = counts.setdefault(name, {})
            for key, value in span[COUNTS].items():
                bucket[key] = bucket.get(key, 0) + value
    layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS.values()}
    for name, value in self_by_name.items():
        layer_self[layer_of(name)] += value
    step_wall = inclusive.get("session.step", 0.0)

    def ms(total_s: float) -> float:
        return 1e3 * total_s / rounds

    def inc(name: str) -> float:
        return ms(inclusive.get(name, 0.0))

    def own_ms(name: str) -> float:
        return ms(self_by_name.get(name, 0.0))

    def counted(name: str, key: str) -> int:
        return counts.get(name, {}).get(key, 0)

    gradient_gar = durations.get("aggregators.gradient_gar") or durations.get(
        "sharding.aggregate_shards", []
    )
    encode_s = inclusive.get("serialization.encode", 0.0)
    encode_in = counted("serialization.encode", "in_bytes")
    served = observed["replies_served"]
    pulls = calls.get("worker.gradient", 0)
    cache_lookups = observed["distance_cache_hits"] + observed["distance_cache_misses"]

    metrics = {
        "session.step_self_ms": own_ms("session.step"),
        "server.pull_gradients_ms": inc("server.pull_gradients"),
        "server.pull_models_ms": inc("server.pull_models"),
        "server.update_model_ms": inc("server.update_model"),
        "server.write_model_ms": inc("server.write_model"),
        "worker.gradient_ms": inc("worker.gradient"),
        "worker.gradients_computed": observed["gradients_computed"] / rounds,
        "worker.cache_hit_ratio": 1.0 - _ratio(observed["gradients_computed"], pulls) if pulls else 0.0,
        "nn.forward_ms": inc("nn.forward"),
        "nn.backward_ms": inc("nn.backward"),
        "nn.optim_apply_ms": inc("nn.optim_apply"),
        "datasets.next_batch_ms": inc("datasets.next_batch"),
        "attacks.craft_ms": inc("attacks.craft"),
        "executor.dispatch_self_ms": own_ms("executor.map_unordered"),
        "executor.overlap": _ratio(
            inclusive.get("transport.serve", 0.0), inclusive.get("executor.map_unordered", 0.0)
        ),
        "transport.pull_many_self_ms": own_ms("transport.pull_many"),
        "transport.pulls": observed["pulls_issued"] / rounds,
        "transport.replies": served / rounds,
        "transport.reply_use_ratio": _ratio(counted("transport.pull_many", "selected"), served),
        "transport.roundbuffer_write_ms": inc("transport.roundbuffer_write"),
        "serialization.encode_ms": ms(encode_s),
        "serialization.decode_ms": inc("serialization.decode"),
        "serialization.encode_mb_s": _ratio(encode_in / 1e6, encode_s),
        "serialization.bytes_ratio": _ratio(counted("serialization.encode", "framed_bytes"), encode_in),
        "wire.encode_ms": own_ms("wire.encode"),
        "wire.decode_ms": own_ms("wire.decode"),
        "wire.send_ms": inc("wire.send"),
        "wire.recv_wait_ms": inc("wire.recv_wait"),
        "wire.frames": (counted("wire.send", "frames") + counted("wire.recv_wait", "frames")) / rounds,
        "wire.frame_bytes": (
            counted("wire.send", "frame_bytes") + counted("wire.recv_wait", "frame_bytes")
        )
        / rounds,
        "rpc.invoke_ms_p50": 1e3 * percentile(durations.get("rpc.invoke", []), 0.5),
        "rpc.invoke_ms_p90": 1e3 * percentile(durations.get("rpc.invoke", []), 0.9),
        "rpc.sync_state_ms": inc("rpc.sync_state"),
        "rpc.retries": observed["retries_issued"],
        "aggregators.gradient_gar_ms_p50": 1e3 * percentile(gradient_gar, 0.5),
        "aggregators.model_gar_ms_p50": 1e3 * percentile(durations.get("aggregators.model_gar", []), 0.5),
        "aggregators.calls": (
            calls.get("aggregators.gradient_gar", 0)
            + calls.get("aggregators.model_gar", 0)
            + calls.get("sharding.aggregate_shards", 0)
        )
        / rounds,
        "aggregators.ms": ms(layer_self["aggregators"]),
        "aggregators.distance_ms": inc("aggregators.distance"),
        "aggregators.distance_cache_hit_ratio": _ratio(observed["distance_cache_hits"], cache_lookups),
        "sharding.aggregate_shards_ms": inc("sharding.aggregate_shards"),
        "sharding.materialize_ms": inc("sharding.materialize"),
        # Every call reports its buffer's staging block; all blocks are one size.
        "sharding.resident_mb": _ratio(
            counted("sharding.materialize", "resident_bytes"), calls.get("sharding.materialize", 0)
        )
        / 1e6,
        "trace.spans": len(timed) / rounds,
        "trace.unattributed_share": 1.0
        - _ratio(sum(s[END] - s[START] for s in timed if s[PARENT] is None), pass_wall_s),
    }
    for layer, value in layer_self.items():
        metrics["share." + layer] = _ratio(value, step_wall)
    group_total = sum(layer_self[layer] for group in COST_GROUPS.values() for layer in group)
    for group, layers in COST_GROUPS.items():
        metrics[f"cost.measured_{group}_share"] = _ratio(
            sum(layer_self[layer] for layer in layers), group_total
        )
    return metrics
