"""The four benchmark workloads: a ``ClusterConfig`` each, made from the seed.

Why each one is here is recorded once, in ``BENCHMARK.json`` (``workloads[].why``)
and at length in ``README.md``; this file only holds what the program receives.
``--seed`` becomes ``ClusterConfig.seed`` (dataset, partition, attack RNG,
latency jitter) and nothing else reaches the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

#: Larger than any run: the session never finishes on its own and the
#: program's periodic evaluation stays out of the timed rounds.
NEVER = 10**9


@dataclass(frozen=True)
class Workload:
    name: str
    fields: Dict[str, Any]
    #: Rounds run before timing starts; charged to ``setup_s`` so that lazy
    #: first-round work (pool start, connection dials, delta references) is.
    warmup: int

    def config(self, seed: int):
        from repro.core.cluster import ClusterConfig

        return ClusterConfig(
            seed=seed, num_iterations=NEVER, accuracy_every=NEVER, **self.fields
        )

    @property
    def in_process(self) -> bool:
        return self.fields["executor"] != "process"


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "ssmw-cnn-serial",
            dict(
                deployment="ssmw",
                num_workers=8,
                num_byzantine_workers=2,
                num_attacking_workers=2,
                worker_attack="reversed",
                gradient_gar="multi-krum",
                model="mnist_cnn",
                dataset="mnist",
                dataset_size=600,
                # The issue's prototype used 1.6; at that noise the CNN is
                # still on its loss plateau at the quality checkpoint on some
                # seeds (accuracy 0.2 .. 0.95 across ten seeds), so neither
                # the progress gate nor a quality metric could hold.
                dataset_noise=0.8,
                batch_size=8,
                executor="serial",
            ),
            warmup=5,
        ),
        Workload(
            "ssmw-bulyan-wide",
            dict(
                deployment="ssmw",
                num_workers=23,
                num_byzantine_workers=5,
                num_attacking_workers=5,
                worker_attack="little-is-enough",
                gradient_gar="bulyan",
                model="logistic",
                dataset="cifar10",
                dataset_size=1200,
                dataset_noise=4.0,
                batch_size=8,
                executor="serial",
            ),
            warmup=20,
        ),
        Workload(
            "msmw-process-f64",
            dict(
                deployment="msmw",
                num_workers=6,
                num_byzantine_workers=1,
                num_attacking_workers=1,
                worker_attack="reversed",
                num_servers=3,
                num_byzantine_servers=1,
                num_attacking_servers=1,
                gradient_gar="multi-krum",
                model_gar="median",
                model="logistic",
                dataset="cifar10",
                dataset_size=800,
                dataset_noise=4.0,
                batch_size=16,
                executor="process",
                executor_workers=2,
                wire_format="float64",
            ),
            warmup=20,
        ),
        Workload(
            "msmw-sharded-int8-threaded",
            dict(
                deployment="msmw",
                num_workers=9,
                num_byzantine_workers=2,
                num_attacking_workers=2,
                worker_attack="reversed",
                num_servers=4,
                num_byzantine_servers=1,
                num_attacking_servers=1,
                gradient_gar="multi-krum",
                model_gar="median",
                model="logistic",
                dataset="cifar10",
                dataset_size=800,
                dataset_noise=4.0,
                batch_size=16,
                executor="threaded",
                executor_workers=2,
                asynchronous=True,
                shards=4,
                wire_format="int8+delta",
            ),
            warmup=20,
        ),
    )
}
