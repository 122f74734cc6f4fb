"""Tier-1 smoke test for the hot-path allocation contract.

Loads the benchmark harness (``benchmarks/bench_hotpath.py``) and checks, on
a configuration small enough for CI, that the zero-copy flat pipeline
allocates at most half the bytes per round of the legacy list-of-arrays
pipeline — whose row for this configuration is frozen in
``BENCH_hotpath.json`` (that code no longer exists).  Timing is *not*
asserted here (CI machines are noisy); the full grid with rounds/sec lives in
``make bench-hotpath`` / ``BENCH_hotpath.json``.  The file's ``"nn"`` rows
(CNN ``forward + backward`` before and after the strided-window kernels) and
``"gar"`` rows (``median`` before and after the sorted-block column kernel,
and the table its row-count cut is read from) are checked for shape only, for
the same reason.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.aggregators.base import COMPARE_EXCHANGE_MAX_ROWS

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "benchmarks" / "bench_hotpath.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_hotpath", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_flat_path_allocates_at_most_half_the_bytes():
    bench = load_bench()
    numbers = bench.measure(num_workers=8, dimension=20_000, gar_name="average", rounds=5)
    assert numbers["bytes_ratio"] <= 0.5, numbers


def test_nn_rows_have_the_committed_shape():
    """``"nn"``: one ``forward + backward`` row per CNN and batch size, before and after.

    Shape only: whether ``after`` beats ``before`` is for ``make bench-hotpath``
    and the end-to-end benchmark to say, not for a noisy CI box.
    """
    bench = load_bench()
    committed = json.loads(bench.OUTPUT_PATH.read_text(encoding="utf-8"))["nn"]
    grid = [(name, batch) for name, _ in bench.NN_MODELS for batch in bench.NN_BATCHES]
    for rows in (committed["before"], committed["after"], bench.measure_nn(repeats=1, warmup=1)):
        assert [(row["model"], row["batch"]) for row in rows] == grid
        assert all(row["forward_backward_ms"] > 0 for row in rows)
    assert bench.frozen_nn_before() == committed["before"]


def test_gar_rows_have_the_committed_shape():
    """``"gar"``: one ``median`` row per shape before and after, and the cut table.

    No clock is held against a bar.  The one comparison is between committed
    numbers: every row count that ``sorted_columns`` orders by compare-exchange
    won its committed row at every dimension — the table the constant is read from.
    """
    bench = load_bench()
    committed = json.loads(bench.OUTPUT_PATH.read_text(encoding="utf-8"))["gar"]
    for rows in (committed["before"], committed["after"], bench.measure_column_kernel(repeats=1)):
        assert [(row["k"], row["d"]) for row in rows] == list(bench.COLUMN_KERNEL_SHAPES)
        assert all(row["gar"] == "median" and row["ms"] > 0 for row in rows)
    assert bench.frozen_column_kernel_before() == committed["before"]

    grid = [(k, d) for d in bench.CUT_DIMENSIONS for k in bench.CUT_ROWS]
    for rows in (committed["cut"], bench.measure_column_cut(repeats=1)):
        assert [(row["k"], row["d"]) for row in rows] == grid
        assert all(row["compare_exchange_ms"] > 0 and row["sort_ms"] > 0 for row in rows)
    assert min(bench.CUT_ROWS) <= COMPARE_EXCHANGE_MAX_ROWS < max(bench.CUT_ROWS)
    for row in committed["cut"]:
        if row["k"] <= COMPARE_EXCHANGE_MAX_ROWS:
            assert row["compare_exchange_ms"] < row["sort_ms"], row
