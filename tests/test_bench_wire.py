"""Tier-1 smoke test for the wire-format benchmark.

Loads the benchmark harness (``benchmarks/bench_wire.py``) and checks the
acceptance invariants on configurations small enough for CI: the int8 and
float32 byte ratios hold at a tiny dimension (they are data-independent for
every format), and a float32 session matches its float64 twin at
the model level within dequantize tolerance.  The full n_w=16, d=1e5 grid
with throughput and the robustness sweep lives in ``make bench-wire`` /
``BENCH_wire.json``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "benchmarks" / "bench_wire.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_wire", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_byte_ratios_hold_at_tiny_dimension():
    """int8 ships <= 0.15x and float32 <= 0.5x of float64's payload bytes."""
    bench = load_bench()
    rows = bench.measure_bytes(dimension=2_048, num_workers=4)
    assert bench.payload_ratio(rows, "int8") <= bench.INT8_MAX_RATIO
    assert bench.payload_ratio(rows, "float32") <= bench.FLOAT32_MAX_RATIO
    assert bench.check_acceptance(rows)


def test_nominal_bytes_match_framed_bytes():
    """The codec's framed length is the real framed size, even at tiny d."""
    bench = load_bench()
    for row in bench.measure_bytes(dimension=513, num_workers=3):
        assert row["framed_bytes"] == 3 * row["nominal_message_bytes"], row


def _run_session(wire_format: str):
    from repro.core.cluster import ClusterConfig
    from repro.core.session import Session

    config = ClusterConfig(
        deployment="vanilla",
        num_workers=4,
        num_byzantine_workers=0,
        gradient_gar="average",
        model="logistic",
        dataset="mnist",
        dataset_size=200,
        batch_size=8,
        learning_rate=0.2,
        num_iterations=6,
        accuracy_every=3,
        seed=5,
        wire_format=wire_format,
    )
    with Session(config=config) as session:
        session.run()
        params = session.reporting_server.flat_parameters().copy()
    return params, session.result()


def test_float32_session_matches_float64_at_model_level():
    """A float32-wire run reproduces the float64 run's model up to the
    precision the narrower format can carry: every shipped gradient survives
    a float64→float32→float64 round trip, so after six rounds the models
    agree within dequantize tolerance and the measured accuracies coincide."""
    params64, result64 = _run_session("float64")
    params32, result32 = _run_session("float32")
    assert params32.shape == params64.shape
    np.testing.assert_allclose(params32, params64, rtol=1e-5, atol=1e-6)
    # At this tolerance the reported accuracy trajectory is identical.
    assert [a for _, a in result32.accuracy_history] == [
        a for _, a in result64.accuracy_history
    ]
    assert result32.final_accuracy == result64.final_accuracy


def test_float64_wire_format_is_the_bit_exact_default():
    """Two float64 runs are byte-identical — the codec passthrough adds no
    emulation noise, which is what keeps the golden traces at the seed."""
    params_a, result_a = _run_session("float64")
    params_b, result_b = _run_session("float64")
    assert params_a.tobytes() == params_b.tobytes()
    assert result_a.accuracy_history == result_b.accuracy_history


def test_codec_block_has_before_and_after_rows_for_every_format():
    """``BENCH_wire.json`` carries the per-chunk codec's frozen rows next to
    the current kernels', and the harness still produces that row shape."""
    import json

    bench = load_bench()
    keys = {"format"} | {
        f"{op}_mb_s_{threads}_thread" for op in ("encode", "decode") for threads in (1, 2)
    }
    rows = bench.measure_codec(dimension=5_000, calls=2)
    assert [row["format"] for row in rows] == list(bench.CODEC_FORMATS)
    assert all(set(row) == keys and min(v for k, v in row.items() if k != "format") > 0 for row in rows)
    committed = json.loads(bench.OUTPUT_PATH.read_text(encoding="utf-8"))["codec"]
    assert bench.frozen_codec_before() == committed["before"]
    for side in ("before", "after"):
        assert {row["format"] for row in committed[side]} >= {"int8", "int8+delta"}
        assert all(set(row) == keys for row in committed[side])
