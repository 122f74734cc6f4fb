"""Process backend — per-round cost of crossing the OS process boundary.

Not a paper figure: this benchmark prices the systems step this repo's
process backend takes towards the paper's deployment model (one OS process
per node, RPC between them — Section 3).  It drives the same
``Server.get_gradient_matrix`` round on the threaded in-process engine and on the
multi-process socket backend and reports:

* **startup** — one-off cost of bringing the node hosts up (one zygote
  imports NumPy and the node classes while the coordinator builds the nodes,
  then forks a host per node; the ``restore`` requests handing each its node
  go out side by side);
* **round time** — steady-state wall-clock per gradient collection round,
  where the process backend additionally pays serialization and a TCP round
  trip per worker (the overhead the paper attributes to its gRPC/protobuf
  layer);
* the determinism contract — both backends return bit-identical gradients
  and identical simulated round times for the fixed seed.

On a multi-core machine the process backend's rounds overlap worker compute
across real cores; on a single-core CI box it mostly measures RPC overhead.
Skips (with the probe's reason) where subprocesses/sockets are forbidden.

Run directly (``PYTHONPATH=src python benchmarks/bench_process_backend.py``) or
through pytest (``PYTHONPATH=src python -m pytest benchmarks/bench_process_backend.py -s``).
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

from repro.core import ClusterConfig, Controller

NUM_WORKERS = 6
ROUNDS = 8
SEED = 7


def build(executor_name: str):
    config = ClusterConfig(
        deployment="ssmw",
        num_workers=NUM_WORKERS,
        num_byzantine_workers=1,
        num_attacking_workers=0,
        asynchronous=True,
        gradient_gar="median",
        model="logistic",
        dataset="mnist",
        dataset_size=240,
        batch_size=8,
        num_iterations=ROUNDS,
        executor=executor_name,
        seed=SEED,
    )
    start = time.perf_counter()
    deployment = Controller(config).build()
    startup = time.perf_counter() - start
    return deployment, startup


def run_rounds(deployment) -> Tuple[float, float, List[np.ndarray]]:
    """Drive ``ROUNDS`` collection+update rounds; return (wall/round, sim, grads)."""
    config = deployment.config
    server = deployment.servers[0]
    gar = deployment.gradient_gar
    quorum = config.gradient_quorum()
    aggregates: List[np.ndarray] = []
    simulated = 0.0
    start = time.perf_counter()
    for iteration in range(ROUNDS):
        comm_before = server.gradient_comm_time
        gradients = server.get_gradient_matrix(iteration, quorum)
        simulated += server.gradient_comm_time - comm_before
        aggregated = gar(gradients=gradients, f=config.num_byzantine_workers)
        server.update_model(aggregated)
        aggregates.append(aggregated)
    wall = time.perf_counter() - start
    return wall / ROUNDS, simulated, aggregates


def measure():
    threaded, threaded_startup = build("threaded")
    try:
        threaded_round, threaded_sim, threaded_grads = run_rounds(threaded)
    finally:
        threaded.close()

    process, process_startup = build("process")
    try:
        process_round, process_sim, process_grads = run_rounds(process)
    finally:
        process.close()

    # Determinism contract across the process boundary: bit-identical.
    assert process_sim == threaded_sim
    for a, b in zip(threaded_grads, process_grads):
        assert np.array_equal(a, b)

    overhead = process_round / threaded_round if threaded_round > 0 else float("inf")
    rows = [
        ("threaded", threaded_startup, threaded_round, 1.0),
        ("process", process_startup, process_round, overhead),
    ]
    return rows, overhead


def report(rows, printer) -> None:
    printer(
        f"Process backend — n_w={NUM_WORKERS}, {ROUNDS} rounds, logistic model",
        ["backend", "startup s", "wall s/round", "round-time ratio"],
        rows,
    )


def test_process_backend_round_time(benchmark, table_printer):
    """Round time vs the threaded backend, with bit-identical results."""
    import pytest

    from repro.network.rpc import process_backend_available

    available, reason = process_backend_available()
    if not available:
        pytest.skip(f"process backend unavailable: {reason}")

    rows, _ = measure()
    report(rows, table_printer)

    deployment, _ = build("process")
    try:
        server = deployment.servers[0]
        quorum = deployment.config.gradient_quorum()
        benchmark(lambda: server.get_gradient_matrix(0, quorum))
    finally:
        deployment.close()


if __name__ == "__main__":
    from conftest import print_table

    from repro.network.rpc import process_backend_available

    available, reason = process_backend_available()
    if not available:
        print(f"process backend unavailable: {reason}")
        raise SystemExit(0)
    rows, overhead = measure()
    report(rows, print_table)
    print(f"\nprocess/threaded round-time ratio: {overhead:.2f}x")
