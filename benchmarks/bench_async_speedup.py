"""Async executor speedup — pipelined gradient collection vs the serial path.

Not a paper figure: this benchmark validates the systems claim behind all of
them (Section 3.2) — that ``get_gradients(t, q)`` issues its worker RPCs
concurrently and completes when the fastest ``q`` replies arrive.  It drives
the same ``Server.get_gradient_matrix`` code path twice, once on the deterministic
:class:`~repro.core.executor.SerialExecutor` and once on the
:class:`~repro.core.executor.ThreadedExecutor`, with wall-clock fidelity
enabled on the transport (replies really wait their simulated latency) and
two straggling workers in an ``n_w = 8`` cluster.

Expected output:

* the *simulated* elapsed time of a round is the fastest-q replies folded
  first in, first out through the server's link after the model it shipped
  every worker — far below the sum of their latencies — under both engines,
  and both engines return bit-identical gradients for the fixed seed;
* the *wall-clock* time per round drops by >= 2x on the threaded engine,
  because the per-worker waits overlap instead of accumulating: the serial
  engine pays the sum over all peers, the threaded engine roughly the
  slowest single peer.

Run directly (``PYTHONPATH=src python benchmarks/bench_async_speedup.py``) or
through pytest (``PYTHONPATH=src python -m pytest benchmarks/bench_async_speedup.py -s``).
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

from repro.core import ClusterConfig, Controller

NUM_WORKERS = 8
NUM_BYZANTINE = 2
QUORUM = NUM_WORKERS - NUM_BYZANTINE  # fastest-q, asynchronous operation
ROUNDS = 6
#: Real seconds slept per simulated second of reply latency.  Keeps the
#: serial baseline around a quarter second per round — large enough to
#: dominate scheduling noise, small enough for a smoke test.
WALL_TIME_SCALE = 60.0
#: Two slow machines, as in the paper's straggler discussions: their replies
#: fall outside the fastest-q quorum (they never contribute to the simulated
#: round time), and under the threaded engine they cost at most their own
#: service time instead of serializing behind every other worker as on the
#: serial path.
STRAGGLERS = {"worker-6": 3.0, "worker-7": 4.0}


def build(executor_name: str):
    config = ClusterConfig(
        deployment="ssmw",
        num_workers=NUM_WORKERS,
        num_byzantine_workers=NUM_BYZANTINE,
        num_attacking_workers=0,
        asynchronous=True,
        gradient_gar="mda",  # needs q >= 2f + 1, satisfied by the fastest-q quorum
        model="logistic",
        dataset="mnist",
        dataset_size=240,
        batch_size=8,
        num_iterations=ROUNDS,
        executor=executor_name,
        seed=7,
        straggler_factors=dict(STRAGGLERS),
    )
    deployment = Controller(config).build()
    deployment.transport.wall_time_scale = WALL_TIME_SCALE
    return deployment


def run_rounds(deployment) -> Tuple[float, float, List[np.ndarray]]:
    """Drive ``ROUNDS`` gradient collections; return (wall/round, sim/round, gradients)."""
    server = deployment.servers[0]
    transport = deployment.transport
    gradients: List[np.ndarray] = []
    simulated = 0.0
    wall_start = time.perf_counter()
    for iteration in range(ROUNDS):
        replies, elapsed = transport.pull_many(
            server.node_id,
            server.workers,
            "gradient",
            quorum=QUORUM,
            iteration=iteration,
            payload=server.flat_parameters(),
        )
        latencies = [r.latency for r in replies]
        # The systems invariant under test: a parallel pull costs the fastest
        # q replies crossing the server's link one after another, each no
        # sooner than it arrives, not the sum of their latencies.
        bandwidth = transport.price.bandwidth
        finish = len(server.workers) * transport.vector_nbytes(server.dimension) / bandwidth
        for reply in replies:
            finish = max(reply.latency, finish + reply.nbytes / bandwidth)
        assert elapsed == finish
        assert elapsed < sum(latencies)
        assert len(replies) == QUORUM
        assert all(r.source not in STRAGGLERS for r in replies)
        simulated += elapsed
        gradients.append(np.mean([np.asarray(r.payload) for r in replies], axis=0))
    wall = time.perf_counter() - wall_start
    deployment.executor.shutdown()
    return wall / ROUNDS, simulated / ROUNDS, gradients


def measure():
    serial_wall, serial_sim, serial_grads = run_rounds(build("serial"))
    threaded_wall, threaded_sim, threaded_grads = run_rounds(build("threaded"))

    # Determinism contract: the engines must agree bit-for-bit.
    assert serial_sim == threaded_sim
    for a, b in zip(serial_grads, threaded_grads):
        assert np.array_equal(a, b)

    speedup = serial_wall / threaded_wall
    rows = [
        ("serial", serial_wall, serial_sim, 1.0),
        ("threaded", threaded_wall, threaded_sim, speedup),
    ]
    return rows, speedup


def report(rows, printer) -> None:
    printer(
        f"Async speedup — n_w={NUM_WORKERS}, q={QUORUM}, {len(STRAGGLERS)} stragglers",
        ["executor", "wall s/round", "simulated s/round", "speedup"],
        rows,
    )


def test_async_fastest_q_speedup(benchmark, table_printer):
    """Threaded fastest-q collection is >= 2x faster in wall-clock at n_w = 8."""
    rows, speedup = measure()
    report(rows, table_printer)
    assert speedup >= 2.0

    deployment = build("threaded")
    server = deployment.servers[0]
    benchmark(lambda: server.get_gradient_matrix(0, QUORUM))
    deployment.executor.shutdown()


if __name__ == "__main__":
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import print_table

    rows, speedup = measure()
    report(rows, print_table)
    print(f"\nwall-clock speedup (serial / threaded): {speedup:.2f}x")
