"""Wire-format benchmark: bytes on the wire, decode throughput, robustness.

The paper's evaluation charges every message at float32 width (4 B/element);
the negotiated wire formats let the codec actually ship that width — or half
(float16), or one byte per element (int8 with per-chunk scale/offset
quantization), optionally delta-encoded against the previous round's model.
This benchmark measures three things:

* **bytes on the wire** — the exact framed and payload sizes the codec
  produces for one n_w=16 round of d=1e5 gradients, per format.  Ratios are
  reported over *payload* bytes (the ~25-byte constant header excluded):
  framed float32 is 400025/800025 of float64, which rounds above the 0.5
  bound the payload ratio meets exactly.
* **rounds/sec** — end-to-end ``pull_many`` rounds through the real
  transport (planning, quorum selection, RoundBuffer hand-off, average +
  multi-krum aggregation) with the in-process backend emulating each format
  through the real codec — quantize, frame, decode every reply.
* **robustness** — an attack x GAR sweep of small real training sessions at
  float64/float16/int8: reduced-precision gradients pass through the same
  Byzantine-resilient aggregation, and the final accuracies show the GARs
  tolerate the quantization noise alongside the attacks.
* **codec** — encode and decode MB/s of the codec alone, per format, on one
  thread and with two threads contending for the interpreter.  The ``before``
  rows are the per-chunk int8 loops this repository shipped until the
  whole-vector kernels replaced them; that code is gone, so those rows are
  carried over from the committed file, and ``after`` is measured afresh.

Results land in ``BENCH_wire.json`` at the repository root; ``make
bench-wire`` runs this file and the tier-1 smoke test
(``tests/test_bench_wire.py``) asserts the byte ratios and a
float32-vs-float64 model-level tolerance check on a small configuration.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.aggregators import init as init_gar
from repro.core.cluster import ClusterConfig
from repro.core.session import Session
from repro.network.serialization import (
    deserialize_vector,
    parse_wire_format,
    serialize_vector,
    serialized_nbytes,
)
from repro.network.transport import RoundBuffer, Transport

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_wire.json"

#: Headline configuration from the issue: one n_w=16 round of d=1e5 gradients.
NUM_WORKERS = 16
DIMENSION = 100_000

#: Formats measured everywhere.
FORMATS: Tuple[str, ...] = ("float64", "float32", "float16", "int8")

#: Formats of the codec-only throughput block: the delta stream the
#: end-to-end benchmark ships joins the grid above.
CODEC_FORMATS: Tuple[str, ...] = FORMATS + ("int8+delta",)

#: Acceptance bounds on the payload-bytes ratio vs float64 (headers excluded).
INT8_MAX_RATIO = 0.15
FLOAT32_MAX_RATIO = 0.5

#: Robustness sweep: finite-valued attacks x robust GARs x formats.
SWEEP_ATTACKS = ("reversed", "little-is-enough", "fall-of-empires")
SWEEP_GARS = ("multi-krum", "median")
SWEEP_FORMATS = ("float64", "float16", "int8")


def make_gradients(num_workers: int, dimension: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(num_workers, dimension)) / np.sqrt(dimension)


# ---------------------------------------------------------------------- #
# Bytes on the wire
# ---------------------------------------------------------------------- #
def measure_bytes(dimension: int = DIMENSION, num_workers: int = NUM_WORKERS) -> List[Dict]:
    """Exact framed/payload byte sizes per format for one round's gradients.

    Every format's size is data-independent (validated against
    :func:`serialized_nbytes`, the framed length of the codec).
    """
    gradients = make_gradients(num_workers, dimension)
    header = serialized_nbytes(0, fmt="float64")  # the constant per-message frame
    baseline_payload = dimension * 8  # float64 passthrough
    rows: List[Dict] = []
    for spec in FORMATS:
        fmt = parse_wire_format(spec)
        framed = sum(len(serialize_vector(g, fmt)) for g in gradients)
        payload = framed - num_workers * header
        nominal = serialized_nbytes(dimension, fmt=fmt)
        assert framed == num_workers * nominal, (spec, framed, nominal)
        rows.append(
            {
                "format": spec,
                "framed_bytes": framed,
                "payload_bytes": payload,
                "nominal_message_bytes": nominal,
                "payload_ratio_vs_float64": round(
                    payload / (num_workers * baseline_payload), 5
                ),
                "framed_ratio_vs_float64": round(
                    framed / (num_workers * (baseline_payload + header)), 5
                ),
            }
        )
    return rows


# ---------------------------------------------------------------------- #
# Rounds per second
# ---------------------------------------------------------------------- #
def measure_rounds(
    spec: str,
    dimension: int = DIMENSION,
    num_workers: int = NUM_WORKERS,
    rounds: int = 10,
) -> Dict[str, float]:
    """End-to-end pull_many rounds/sec with the codec emulating ``spec``."""
    gradients = make_gradients(num_workers, dimension)
    transport = Transport(seed=7, wire_format=spec)
    worker_ids = []
    for index in range(num_workers):
        node_id = f"w{index}"
        worker_ids.append(node_id)
        transport.register_node(node_id, object())
        flat = gradients[index].copy()
        flat.setflags(write=False)
        transport.register_handler(node_id, "gradient", lambda ctx, flat=flat: flat)
    transport.register_node("server", object())
    sink = RoundBuffer(num_workers, dimension)
    gars = {name: init_gar(name, n=num_workers, f=1) for name in ("average", "multi-krum")}

    results: Dict[str, float] = {}
    for gar_name, gar in gars.items():
        def round_body(iteration: int) -> None:
            _, _ = transport.pull_many(
                "server", worker_ids, "gradient", quorum=num_workers,
                iteration=iteration, sink=sink,
            )
            gar.aggregate_matrix(sink.matrix())

        round_body(0)  # warmup: lazy allocations and delta-stream priming
        start = time.perf_counter()
        for iteration in range(1, rounds + 1):
            round_body(iteration)
        elapsed = time.perf_counter() - start
        results[f"{gar_name}_rounds_per_s"] = round(rounds / elapsed, 3)
    transport.close()
    return results


# ---------------------------------------------------------------------- #
# Codec throughput
# ---------------------------------------------------------------------- #
def _wall(task, threads: int, calls: int) -> float:
    """Wall seconds for ``threads`` threads to run ``task`` ``calls`` times each
    (the quietest of three repeats: the reference box is shared)."""

    def loop() -> None:
        for _ in range(calls):
            task()

    best = float("inf")
    for _ in range(3):
        workers = [threading.Thread(target=loop) for _ in range(threads)]
        start = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        best = min(best, time.perf_counter() - start)
    return best


def measure_codec(dimension: int = DIMENSION, calls: int = 200) -> List[Dict]:
    """Encode / decode MB/s per format, alone and with two contending threads.

    MB are float64 input megabytes (``8 * dimension`` per call), so formats
    compare on the work they do for one vector.  Decodes ask for an owned
    float64 array (``copy=True``) — what lands in a ``RoundBuffer`` row.  The
    two-thread figure is the aggregate of both threads.
    """
    reference = make_gradients(1, dimension, seed=1)[0]
    vector = reference + 0.01 * make_gradients(1, dimension, seed=2)[0]
    megabytes = 8 * dimension * calls / 1e6
    rows: List[Dict] = []
    for spec in CODEC_FORMATS:
        ref = reference if parse_wire_format(spec).delta else None
        blob = serialize_vector(vector, spec, reference=ref)
        tasks = {
            "encode": lambda: serialize_vector(vector, spec, reference=ref),
            "decode": lambda: deserialize_vector(blob, copy=True, reference=ref),
        }
        row: Dict = {"format": spec}
        for name, task in tasks.items():
            task()  # warmup
            for threads in (1, 2):
                seconds = _wall(task, threads, calls)
                row[f"{name}_mb_s_{threads}_thread"] = round(threads * megabytes / seconds, 1)
        rows.append(row)
    return rows


def frozen_codec_before() -> List[Dict]:
    """The per-chunk codec's rows, as committed: that code no longer exists."""
    if not OUTPUT_PATH.is_file():
        return []
    return json.loads(OUTPUT_PATH.read_text(encoding="utf-8")).get("codec", {}).get("before", [])


# ---------------------------------------------------------------------- #
# Robustness sweep
# ---------------------------------------------------------------------- #
def run_sweep_cell(
    attack: str, gar: str, spec: str, iterations: int = 12, seed: int = 3
) -> Dict:
    """One small real training session: attack x GAR at one wire format."""
    config = ClusterConfig(
        deployment="ssmw",
        num_workers=7,
        num_byzantine_workers=2,
        num_attacking_workers=2,
        worker_attack=attack,
        gradient_gar=gar,
        model="logistic",
        dataset="mnist",
        dataset_size=300,
        batch_size=8,
        learning_rate=0.2,
        num_iterations=iterations,
        accuracy_every=iterations,
        seed=seed,
        wire_format=spec,
    )
    with Session(config=config) as session:
        session.run()
    result = session.result()
    return {
        "attack": attack,
        "gar": gar,
        "format": spec,
        "final_accuracy": round(float(result.final_accuracy), 4),
        "bytes_sent": int(result.bytes_sent),
    }


def measure_robustness(iterations: int = 12) -> List[Dict]:
    rows = []
    for attack in SWEEP_ATTACKS:
        for gar in SWEEP_GARS:
            for spec in SWEEP_FORMATS:
                rows.append(run_sweep_cell(attack, gar, spec, iterations=iterations))
                cell = rows[-1]
                print(
                    f"sweep attack={attack:16s} gar={gar:10s} fmt={spec:8s} "
                    f"accuracy={cell['final_accuracy']:.3f}"
                )
    return rows


# ---------------------------------------------------------------------- #
# Acceptance
# ---------------------------------------------------------------------- #
def payload_ratio(rows: List[Dict], spec: str) -> float:
    for row in rows:
        if row["format"] == spec:
            return row["payload_ratio_vs_float64"]
    raise KeyError(f"format '{spec}' missing from byte measurements")


def check_acceptance(byte_rows: List[Dict]) -> bool:
    int8_ratio = payload_ratio(byte_rows, "int8")
    float32_ratio = payload_ratio(byte_rows, "float32")
    ok = int8_ratio <= INT8_MAX_RATIO and float32_ratio <= FLOAT32_MAX_RATIO
    print(
        f"acceptance: int8 payload ratio {int8_ratio:.4f} <= {INT8_MAX_RATIO} and "
        f"float32 payload ratio {float32_ratio:.4f} <= {FLOAT32_MAX_RATIO}: "
        + ("PASS" if ok else "FAIL")
    )
    return ok


def run_benchmark(rounds: int = 10, sweep_iterations: int = 12) -> Dict:
    byte_rows = measure_bytes()
    for row in byte_rows:
        print(
            f"bytes fmt={row['format']:14s} framed={row['framed_bytes']:9d} "
            f"payload_ratio={row['payload_ratio_vs_float64']:.4f}"
        )
    throughput_rows = []
    for spec in FORMATS:
        numbers = measure_rounds(spec, rounds=rounds)
        throughput_rows.append({"format": spec, **numbers})
        print(
            f"speed fmt={spec:14s} "
            f"average={numbers['average_rounds_per_s']:8.2f} r/s "
            f"multi-krum={numbers['multi-krum_rounds_per_s']:8.2f} r/s"
        )
    codec_rows = measure_codec()
    for row in codec_rows:
        print(
            f"codec fmt={row['format']:14s} "
            f"encode={row['encode_mb_s_1_thread']:8.1f} / {row['encode_mb_s_2_thread']:8.1f} MB/s "
            f"decode={row['decode_mb_s_1_thread']:8.1f} / {row['decode_mb_s_2_thread']:8.1f} MB/s "
            "(1 / 2 threads)"
        )
    sweep_rows = measure_robustness(iterations=sweep_iterations)
    return {
        "benchmark": "wire",
        "description": "negotiated wire formats: bytes on the wire, rounds/sec, robustness",
        "configuration": {"n_w": NUM_WORKERS, "d": DIMENSION},
        "metrics": {
            "payload_bytes": "framed bytes minus the constant per-message header",
            "rounds_per_s": "pull_many + aggregate rounds per second (real transport, codec emulation on)",
            "final_accuracy": "accuracy after the sweep's training rounds (7 workers, f=2 attacking)",
            "codec_mb_s": "float64 input MB encoded / decoded per second by the codec alone; 2 threads = both threads' total",
        },
        "acceptance": {
            "int8_payload_ratio_max": INT8_MAX_RATIO,
            "float32_payload_ratio_max": FLOAT32_MAX_RATIO,
        },
        "bytes_on_wire": byte_rows,
        "throughput": throughput_rows,
        "codec": {
            "before": frozen_codec_before(),
            "after": codec_rows,
        },
        "robustness_sweep": sweep_rows,
    }


def main() -> int:
    report = run_benchmark()
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {OUTPUT_PATH}")
    return 0 if check_acceptance(report["bytes_on_wire"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
