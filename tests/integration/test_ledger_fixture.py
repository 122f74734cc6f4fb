"""Characterisation of the communication ledger, round by round.

Nine small deployments — the six bundled applications, sharded msmw at two
and three shards, and msmw over the ``int8+delta`` wire format — each run
five rounds.  After every round the suite reads every
:class:`~repro.network.transport.TransportStats` field and the round's
``aggregation_time`` / ``communication_time``, and compares them with
``ledger_fixture.json``.  The numbers are pinned exactly, except
``communication_time``, which may differ by re-associating a float sum
(relative 1e-15).  Every backend is compared against the same file, so the
fixture also pins that the ledger does not depend on where handlers run.

Re-bless explicitly, from the serial backend, with ``--update-golden``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.cluster import ClusterConfig
from repro.core.session import Session

FIXTURE = Path(__file__).with_name("ledger_fixture.json")
ROUNDS = 5

_BASE = dict(
    model="logistic",
    dataset_size=200,
    batch_size=8,
    num_iterations=ROUNDS,
    accuracy_every=ROUNDS,
    seed=1,
)
_MSMW = dict(
    deployment="msmw",
    num_workers=7,
    num_byzantine_workers=2,
    num_attacking_workers=2,
    worker_attack="reversed",
    num_servers=3,
    gradient_gar="multi-krum",
    model_gar="median",
)
CONFIGS = {
    "vanilla": dict(deployment="vanilla", num_workers=4),
    "ssmw": dict(
        deployment="ssmw",
        num_workers=9,
        num_byzantine_workers=2,
        num_attacking_workers=2,
        worker_attack="reversed",
        gradient_gar="multi-krum",
        asynchronous=True,
    ),
    "aggregathor": dict(deployment="aggregathor", num_workers=7, num_byzantine_workers=2),
    "crash-tolerant": dict(deployment="crash-tolerant", num_servers=3, num_workers=4),
    "msmw": _MSMW,
    "decentralized": dict(
        deployment="decentralized",
        num_workers=5,
        num_servers=0,
        num_byzantine_workers=1,
        gradient_gar="median",
        model_gar="median",
    ),
    "msmw-shards-2": dict(_MSMW, shards=2),
    "msmw-shards-3": dict(_MSMW, shards=3),
    "msmw-int8-delta": dict(
        _MSMW, num_workers=9, wire_format="int8+delta", asynchronous=True
    ),
}

BACKEND_PARAMS = [
    pytest.param("serial", marks=pytest.mark.backend("serial")),
    pytest.param("threaded", marks=pytest.mark.backend("threaded")),
    pytest.param("process", marks=[pytest.mark.backend("process"), pytest.mark.slow]),
]


def ledger_rounds(name: str, executor: str) -> list:
    """Per round: the cumulative transport stats and the round's two costs."""
    config = ClusterConfig(**_BASE, **CONFIGS[name], executor=executor)
    rounds = []
    with Session(config=config) as session:
        for result in session:
            stats = session.deployment.transport.stats
            rounds.append(
                {
                    "messages_sent": stats.messages_sent,
                    "bytes_sent": stats.bytes_sent,
                    "pulls_issued": stats.pulls_issued,
                    "time_communicating": repr(stats.time_communicating),
                    "hedges_issued": stats.hedges_issued,
                    "hedged_bytes": stats.hedged_bytes,
                    "retries_issued": stats.retries_issued,
                    "per_kind_messages": dict(sorted(stats.per_kind_messages.items())),
                    "aggregation_time": repr(result.record.aggregation_time),
                    "communication_time": repr(result.record.communication_time),
                }
            )
    return rounds


@pytest.mark.parametrize("executor", BACKEND_PARAMS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_ledger_matches_the_fixture(name, executor, update_golden, require_process_backend):
    if update_golden and executor != "serial":
        pytest.skip("the ledger fixture is re-blessed from the serial backend only")
    if executor == "process":
        require_process_backend()
    observed = ledger_rounds(name, executor)
    if update_golden:
        fixture = json.loads(FIXTURE.read_text()) if FIXTURE.is_file() else {}
        fixture[name] = observed
        FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
        return
    expected = json.loads(FIXTURE.read_text())[name]
    assert len(observed) == len(expected) == ROUNDS
    for round_index, (got, want) in enumerate(zip(observed, expected)):
        comm = float(got.pop("communication_time"))
        pinned = float(want.pop("communication_time"))
        assert got == want, f"{name} round {round_index}"
        assert comm == pytest.approx(pinned, rel=1e-15, abs=0), f"{name} round {round_index}"
