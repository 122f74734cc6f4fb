"""Hot-path microbenchmark: zero-copy flat pipeline vs the legacy copy chain.

One training round moves every gradient from a worker's backward pass to the
server's parameter update.  Before the flat-buffer pipeline each element was
copied 4-6 times along the way (per-layer gather -> flat vector, list of
arrays -> ``np.stack`` restack, per-layer scatter into ``param.grad``,
per-layer axpy temporaries, plus a parameter-vector concatenate for the next
round's payload).  The flat pipeline touches each element once: workers
accumulate straight into a flat gradient buffer and serve a read-only view,
the transport writes each selected reply into one row of a preallocated
:class:`~repro.network.transport.RoundBuffer`, the GAR consumes the sealed
matrix view, and the update is an in-place axpy on the flat parameter buffer.

This benchmark drives the shipped pipeline through the *real* transport
(``pull_many`` over registered handlers, planning and quorum selection
included) at n_w in {8, 16} and d in {1e4, 1e5}:

* ``legacy`` — the pre-flat copy chain above.  That code no longer exists:
  its rows are **frozen** — measured by the replica this file used to carry,
  committed under ``"legacy"`` in ``BENCH_hotpath.json`` and carried forward
  verbatim (:func:`frozen_legacy`).
* ``flat`` — the shipped path, measured on every run: a real
  :class:`~repro.core.server.Server`, ``get_gradient_matrix`` into the round
  buffer, ``GAR.aggregate_matrix``, ``update_model``'s flat axpy.

Reported per configuration: end-to-end rounds/sec and per-round allocated
bytes (transient tracemalloc peak over a round, averaged).  Results land in
``BENCH_hotpath.json`` at the repository root; ``make bench-hotpath`` runs
this file and the tier-1 smoke test (``tests/test_bench_hotpath.py``)
asserts the allocation contract on a small configuration against its frozen
legacy row.

The other half of a worker's round is the backward pass itself.
:func:`measure_nn` times one ``forward + backward`` of the two CNNs at batch 8
and 32; the ``"nn"`` key holds those rows as ``after`` beside ``before``, the
same rows measured on the index-gather / ``np.add.at`` window kernels, which
are frozen the same way (:func:`frozen_nn_before`).

The third part is the coordinate-wise order statistic every ``median`` call
runs (:func:`repro.aggregators.base.sorted_columns`).  :func:`measure_column_kernel`
times ``median`` at the shapes the end-to-end workloads and the paper's
Figure 3 use; the ``"gar"`` key holds those rows as ``after`` beside ``before``
— the same calls on ``np.median(matrix, axis=0)``, frozen
(:func:`frozen_column_kernel_before`) — and, under ``"cut"``, the
compare-exchange sweep against ``np.sort`` for k = 2..12
(:func:`measure_column_cut`): the table ``COMPARE_EXCHANGE_MAX_ROWS`` is read
from.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List, Tuple
from unittest import mock

import numpy as np

from repro.aggregators import base as gar_base
from repro.aggregators import init as init_gar
from repro.core.server import Server
from repro.network.transport import Transport
from repro.nn.layers import Linear, Sequential
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import build_model as build_named_model
from repro.nn.tensor import Tensor

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_hotpath.json"

#: Benchmark grid from the issue: workers x model dimension.
GRID: Tuple[Tuple[int, int], ...] = ((8, 10_000), (8, 100_000), (16, 10_000), (16, 100_000))

#: Aggregation rules timed per configuration.  ``average`` is the headline
#: (aggregation-light, so the copy chain dominates); ``multi-krum`` shows the
#: pipeline win persists under an O(q^2 d) rule.
GARS = ("average", "multi-krum")

#: The CNNs :func:`measure_nn` times, with the shape of one input sample.
NN_MODELS: Tuple[Tuple[str, Tuple[int, int, int]], ...] = (
    ("mnist_cnn", (1, 28, 28)),
    ("cifarnet", (3, 32, 32)),
)
NN_BATCHES = (8, 32)

#: ``median`` shapes (rows, d): the 3- and 4-replica model contractions of the
#: two end-to-end msmw workloads and one of the latter's four shard slices, then
#: larger quorums on the ``np.sort`` side, and three rows at the paper's
#: Figure 3 dimension.
COLUMN_KERNEL_SHAPES: Tuple[Tuple[int, int], ...] = (
    (3, 30_730), (4, 30_730), (4, 7_683), (9, 54_314), (13, 30_730), (23, 30_730), (3, 1_000_000),
)
#: Grid of the table the compare-exchange / ``np.sort`` cut is read from.
CUT_ROWS = tuple(range(2, 13))
CUT_DIMENSIONS = (7_683, 30_730, 250_000)


def make_worker_gradients(num_workers: int, dimension: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(num_workers, dimension)) / np.sqrt(dimension)


def build_model(dimension: int) -> Sequential:
    """A real Linear model with exactly ``dimension`` parameters."""
    out_features = 100
    in_features = dimension // out_features - 1
    model = Sequential(Linear(in_features, out_features, rng=np.random.default_rng(0)))
    assert model.num_parameters() == dimension, (model.num_parameters(), dimension)
    return model


def frozen_legacy() -> Dict[Tuple[int, int, str], Dict]:
    """The pre-flat pipeline's rows, as committed: that code no longer exists."""
    rows = json.loads(OUTPUT_PATH.read_text(encoding="utf-8"))["legacy"]
    return {(row["n_w"], row["d"], row["gar"]): row for row in rows}


def build_flat(num_workers: int, dimension: int, gradients: np.ndarray):
    """Real Server + workers serving zero-copy views."""
    transport = Transport(seed=7)
    worker_ids = [f"flat-worker-{index}" for index in range(num_workers)]
    for index, node_id in enumerate(worker_ids):
        transport.register_node(node_id, object())
        # The flat worker's backward pass accumulated straight into its flat
        # gradient buffer; serving is a read-only view of it.
        flat_grad = gradients[index].copy()
        flat_grad.setflags(write=False)
        transport.register_handler(
            node_id, "gradient", lambda ctx, flat_grad=flat_grad: flat_grad
        )
    server = Server(
        "flat-server",
        transport,
        build_model(dimension),
        workers=worker_ids,
        learning_rate=0.05,
    )
    return server, transport


def run_flat_round(server: Server, gar, iteration: int) -> None:
    matrix = server.get_gradient_matrix(iteration)
    aggregated = gar.aggregate_matrix(matrix)
    server.update_model(aggregated)


def measure(num_workers: int, dimension: int, gar_name: str, rounds: int) -> Dict[str, float]:
    """Time and byte-profile the flat pipeline at one grid point, beside its frozen legacy row."""
    gradients = make_worker_gradients(num_workers, dimension)
    gar = init_gar(gar_name, n=num_workers, f=1 if num_workers > 3 else 0)
    legacy = frozen_legacy()[(num_workers, dimension, gar_name)]
    results: Dict[str, float] = {
        "legacy_rounds_per_s": legacy["rounds_per_s"],
        "legacy_bytes_per_round": legacy["bytes_per_round"],
    }

    server, transport = build_flat(num_workers, dimension, gradients)
    run_flat_round(server, gar, 0)  # warmup: lazy allocations (round buffer, scratch) happen once
    start = time.perf_counter()
    for iteration in range(1, rounds + 1):
        run_flat_round(server, gar, iteration)
    results["flat_rounds_per_s"] = rounds / (time.perf_counter() - start)

    # Separate pass for allocation accounting: tracemalloc slows execution,
    # so bytes and time are never measured together.
    tracemalloc.start()
    peaks = []
    for iteration in range(rounds + 1, rounds + 4):
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        run_flat_round(server, gar, iteration)
        _, peak = tracemalloc.get_traced_memory()
        peaks.append(peak - before)
    tracemalloc.stop()
    results["flat_bytes_per_round"] = float(np.mean(peaks))

    results["speedup"] = results["flat_rounds_per_s"] / results["legacy_rounds_per_s"]
    results["bytes_ratio"] = results["flat_bytes_per_round"] / results["legacy_bytes_per_round"]
    transport.close()
    return results


def measure_nn(repeats: int = 30, warmup: int = 3) -> List[Dict]:
    """Median ms of one ``forward + backward`` of each CNN at each batch size."""
    rows = []
    loss_fn = CrossEntropyLoss()
    for name, sample_shape in NN_MODELS:
        model = build_named_model(name)
        model.train()
        for batch in NN_BATCHES:
            rng = np.random.default_rng(0)
            images = rng.normal(size=(batch,) + sample_shape)
            labels = rng.integers(0, 10, size=batch)
            samples = []
            for _ in range(warmup + repeats):
                start = time.perf_counter()
                model.zero_grad()
                loss_fn(model(Tensor(images)), labels).backward()
                samples.append(1e3 * (time.perf_counter() - start))
            rows.append(
                {
                    "model": name,
                    "batch": batch,
                    "forward_backward_ms": round(statistics.median(samples[warmup:]), 3),
                }
            )
    return rows


def frozen_nn_before() -> List[Dict]:
    """The index-gather / ``np.add.at`` window kernels' rows, as committed: that code no longer exists."""
    return json.loads(OUTPUT_PATH.read_text(encoding="utf-8"))["nn"]["before"]


def _best_ms(call, repeats: int) -> float:
    """Fastest of ``repeats`` timed calls, in ms: a kernel's cost without the box's noise."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return round(1e3 * min(samples), 4)


def measure_column_kernel(repeats: int = 30) -> List[Dict]:
    """Best-of-``repeats`` ms of one ``median`` aggregation at each of :data:`COLUMN_KERNEL_SHAPES`."""
    rows = []
    for k, d in COLUMN_KERNEL_SHAPES:
        matrix = np.random.default_rng([k, d]).standard_normal((k, d))
        matrix.setflags(write=False)
        gar = init_gar("median", n=k, f=0)
        rows.append(
            {"gar": "median", "k": k, "d": d, "ms": _best_ms(lambda: gar.aggregate_matrix(matrix), repeats)}
        )
    return rows


def frozen_column_kernel_before() -> List[Dict]:
    """``median`` as ``np.median(matrix, axis=0)``, as committed: that code no longer exists."""
    return json.loads(OUTPUT_PATH.read_text(encoding="utf-8"))["gar"]["before"]


def measure_column_cut(repeats: int = 30) -> List[Dict]:
    """Both sides of ``sorted_columns`` at every (k, d) of the cut grid, best-of-``repeats`` ms."""
    rows = []
    for d in CUT_DIMENSIONS:
        for k in CUT_ROWS:
            matrix = np.random.default_rng([k, d]).standard_normal((k, d))
            # The strategy depends on k alone, so the side that is not shipped
            # at this k is reached by moving the constant for the timed call.
            with mock.patch.object(gar_base, "COMPARE_EXCHANGE_MAX_ROWS", k):
                exchange = _best_ms(lambda: gar_base.sorted_columns(matrix), repeats)
            rows.append(
                {
                    "k": k,
                    "d": d,
                    "compare_exchange_ms": exchange,
                    "sort_ms": _best_ms(lambda: np.sort(matrix, axis=0), repeats),
                }
            )
    return rows


def run_benchmark(rounds_small: int = 40, rounds_large: int = 12) -> Dict:
    rows = []
    for num_workers, dimension in GRID:
        rounds = rounds_large if dimension >= 100_000 else rounds_small
        for gar_name in GARS:
            numbers = measure(num_workers, dimension, gar_name, rounds)
            rows.append(
                {
                    "n_w": num_workers,
                    "d": dimension,
                    "gar": gar_name,
                    "rounds": rounds,
                    **{key: round(value, 3) for key, value in numbers.items()},
                }
            )
            print(
                f"n_w={num_workers:3d} d={dimension:7d} gar={gar_name:11s} "
                f"legacy={numbers['legacy_rounds_per_s']:8.1f} r/s "
                f"flat={numbers['flat_rounds_per_s']:8.1f} r/s "
                f"speedup={numbers['speedup']:4.2f}x "
                f"bytes={numbers['bytes_ratio']:4.2f}x"
            )
    nn_before, nn_after = frozen_nn_before(), measure_nn()
    for before, after in zip(nn_before, nn_after):
        print(
            f"{after['model']:9s} batch={after['batch']:3d} forward+backward "
            f"before={before['forward_backward_ms']:7.2f} ms after={after['forward_backward_ms']:7.2f} ms"
        )
    gar_before, gar_after = frozen_column_kernel_before(), measure_column_kernel()
    gar_cut = measure_column_cut()
    for before, after in zip(gar_before, gar_after):
        print(
            f"median k={after['k']:2d} d={after['d']:7d} "
            f"before={before['ms']:7.3f} ms after={after['ms']:7.3f} ms"
        )
    for row in gar_cut:
        print(
            f"sorted_columns k={row['k']:2d} d={row['d']:6d} "
            f"compare-exchange={row['compare_exchange_ms']:7.3f} ms np.sort={row['sort_ms']:7.3f} ms"
        )
    return {
        "benchmark": "hotpath",
        "description": "zero-copy flat pipeline vs the (frozen) legacy list-of-arrays copy chain",
        "metrics": {
            "rounds_per_s": "end-to-end training rounds per second (real transport)",
            "bytes_per_round": "tracemalloc transient peak per round, averaged",
            "forward_backward_ms": "median wall ms of zero_grad + forward + loss + backward on one batch",
            "ms": "gar rows: fastest of 30 calls of median.aggregate_matrix on a read-only (k, d) matrix",
            "compare_exchange_ms / sort_ms": "cut rows: fastest of 30 calls of each side of sorted_columns",
        },
        "acceptance": {
            "target": "n_w=16, d=100000, gar=average",
            "speedup_min": 1.5,
            "bytes_ratio_max": 0.5,
        },
        "legacy": list(frozen_legacy().values()),
        "results": rows,
        "nn": {"before": nn_before, "after": nn_after},
        "gar": {"before": gar_before, "after": gar_after, "cut": gar_cut},
    }


def headline(report: Dict) -> Dict:
    """The acceptance row: n_w=16, d=1e5, average."""
    for row in report["results"]:
        if row["n_w"] == 16 and row["d"] == 100_000 and row["gar"] == "average":
            return row
    raise KeyError("headline configuration missing from report")


def test_hotpath_smoke():
    """Bench-suite smoke: flat must at least halve per-round allocations."""
    numbers = measure(num_workers=8, dimension=20_000, gar_name="average", rounds=5)
    assert numbers["bytes_ratio"] <= 0.5, numbers


def main() -> int:
    report = run_benchmark()
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    top = headline(report)
    print(f"\nwrote {OUTPUT_PATH}")
    print(
        f"headline (n_w=16, d=1e5, average): {top['speedup']:.2f}x rounds/sec, "
        f"{top['bytes_ratio']:.2f}x allocated bytes"
    )
    ok = top["speedup"] >= 1.5 and top["bytes_ratio"] <= 0.5
    print("acceptance:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
