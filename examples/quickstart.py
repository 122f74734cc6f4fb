#!/usr/bin/env python3
"""Quickstart — Listing 1 of the paper, end to end, as a streamed Session.

Builds the SSMW application (one trusted parameter server, several workers of
which some are Byzantine) from a :class:`~repro.core.cluster.ClusterConfig`,
then *streams* the training rounds of a :class:`repro.Session`: ``for round_result in session:`` yields a
per-round record (iteration, quorum sources, update norm, loss/accuracy)
while the model trains on a synthetic MNIST-shaped dataset with Multi-Krum
aggregation.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Session
from repro.core import ClusterConfig


def main() -> None:
    config = ClusterConfig(
        deployment="ssmw",
        num_workers=8,
        num_byzantine_workers=2,               # declared f_w ...
        num_attacking_workers=2,               # ... and actually attacking
        worker_attack="reversed",              # the reversed-and-amplified vector attack
        gradient_gar="multi-krum",
        model="logistic",
        dataset="mnist",
        dataset_size=600,
        batch_size=16,
        learning_rate=0.2,
        num_iterations=50,
        accuracy_every=10,
        executor="threaded",                   # service the worker RPCs concurrently
        seed=1,
    )
    session = Session(config=config)

    print("SSMW with Multi-Krum under the reversed-vector attack (streamed)")
    print("-" * 64)
    with session:
        for round_result in session:
            if round_result.accuracy is not None:
                print(
                    f"  round {round_result.iteration:3d}   "
                    f"quorum {round_result.quorum}   "
                    f"update norm {round_result.update_norm:8.4f}   "
                    f"accuracy {round_result.accuracy:.3f}"
                )
    result = session.result()
    print("-" * 64)
    print(result.summary())
    print(f"simulated time    : {result.metrics.total_time:.3f} s")
    print(f"messages exchanged: {result.messages_sent}")
    breakdown = result.breakdown
    print(
        "per-iteration time: "
        f"compute {breakdown['computation'] * 1e3:.2f} ms, "
        f"communication {breakdown['communication'] * 1e3:.2f} ms, "
        f"aggregation {breakdown['aggregation'] * 1e3:.2f} ms"
    )


if __name__ == "__main__":
    main()
