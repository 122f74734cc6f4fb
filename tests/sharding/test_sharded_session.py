"""Session-level sharding gates: golden byte-identity and cost-model agreement.

The equivalence gate runs every bundled scenario with ``shards=1`` and the
msmw scenario with ``shards`` in {2, 3} and asserts the resulting trace is
**byte-identical** to the checked-in golden JSON — no re-blessing.  The cost
gate runs the same msmw workload sharded and unsharded and ties the byte and
message deltas, exactly, to the cost model's slice-framing and two-phase
coordination formulas.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core import Controller, available_scenarios, config_for_scenario
from repro.core.cluster import ClusterConfig
from repro.core.session import Session
from repro.exceptions import ConfigurationError
from repro.network.serialization import serialize_vector_parts, serialized_nbytes, sharded_nbytes
from repro.sharding import ShardMap

pytestmark = pytest.mark.sharding

GOLDEN_DIR = Path(__file__).parent.parent / "integration" / "golden"

#: The msmw golden scenario (asynchronous, median GARs) — the only bundled
#: scenario whose deployment supports ``shards > 1``.
MSMW_SCENARIO = "partition_heal"


def golden_json(name: str) -> str:
    path = GOLDEN_DIR / f"{name}.json"
    assert path.is_file(), f"missing golden trace {path}"
    return path.read_text(encoding="utf-8")


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name", available_scenarios())
    def test_shards_one_is_byte_identical_to_golden(self, name):
        """``shards=1`` must be the classic pipeline, bit for bit, everywhere."""
        config = config_for_scenario(name, shards=1)
        result = Controller(config).run()
        assert result.trace is not None
        assert result.trace.to_json() == golden_json(name)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharded_msmw_reproduces_the_golden_trace(self, shards):
        """Coordinate-wise sharding changes no semantics: same bytes out.

        ``partition_heal`` aggregates with median (exact at any shard width)
        over d=7850, so 2- and 3-shard runs must replay the golden trace
        byte-identically — events, quorums, update norms, accuracy and loss.
        """
        config = config_for_scenario(MSMW_SCENARIO, shards=shards)
        result = Controller(config).run()
        assert result.trace is not None
        assert result.trace.to_json() == golden_json(MSMW_SCENARIO)

    def test_sharded_msmw_matches_on_the_threaded_backend(self):
        config = config_for_scenario(MSMW_SCENARIO, shards=2, executor="threaded")
        result = Controller(config).run()
        assert result.trace is not None
        assert result.trace.to_json() == golden_json(MSMW_SCENARIO)


# ---------------------------------------------------------------------- #
# Configuration surface
# ---------------------------------------------------------------------- #
class TestShardConfigValidation:
    def base(self, **overrides):
        fields = dict(
            deployment="msmw",
            num_workers=7,
            num_servers=3,
            gradient_gar="median",
            model_gar="median",
        )
        fields.update(overrides)
        return fields

    def test_defaults_to_one_shard(self):
        assert ClusterConfig().shards == 1

    def test_rejects_non_positive_and_non_integer(self):
        for bad in (0, -1, 1.5, True, "2"):
            with pytest.raises(ConfigurationError):
                ClusterConfig(**self.base(shards=bad))

    def test_rejects_non_msmw_deployments(self):
        with pytest.raises(ConfigurationError, match="msmw"):
            ClusterConfig(deployment="ssmw", shards=2)

    def test_rejects_more_shards_than_servers(self):
        with pytest.raises(ConfigurationError, match="server replicas"):
            ClusterConfig(**self.base(shards=4))

    def test_rejects_unshardable_gar(self):
        with pytest.raises(ConfigurationError, match="does not shard"):
            ClusterConfig(**self.base(num_workers=9, gradient_gar="geometric-median", shards=2))

    def test_roundtrips_through_dict(self):
        config = ClusterConfig(**self.base(shards=3))
        assert ClusterConfig.from_dict(config.to_dict()).shards == 3

    def test_cli_exposes_the_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--deployment", "msmw", "--servers", "3", "--shards", "2"]
        )
        assert args.shards == 2


# ---------------------------------------------------------------------- #
# Cost-model agreement
# ---------------------------------------------------------------------- #
def run_msmw(shards: int, gar: str):
    config = ClusterConfig(
        deployment="msmw",
        num_workers=7,
        num_byzantine_workers=2,
        num_attacking_workers=2,
        worker_attack="reversed",
        num_servers=3,
        gradient_gar=gar,
        model_gar="median",
        model="logistic",
        dataset_size=200,
        num_iterations=4,
        accuracy_every=4,
        shards=shards,
        seed=3,
    )
    with Session(config=config) as session:
        session.run()
        deployment = session.deployment
        stats = deployment.transport.stats
        return {
            "params": np.array(session.reporting_server.flat_parameters()),
            "bytes": stats.bytes_sent,
            "messages": stats.messages_sent,
            "per_kind": dict(stats.per_kind_messages),
            "dimension": session.reporting_server.dimension,
            "honest": len(deployment.honest_servers),
            "cost_model": deployment.cost_model,
            "transport": deployment.transport,
            "rounds": config.num_iterations,
            "quorum": config.gradient_quorum(),
        }


class TestCostModelAgreement:
    @pytest.mark.parametrize("gar,shards", [("multi-krum", 2), ("multi-krum", 3), ("median", 3)])
    def test_sharded_byte_and_message_deltas_match_the_model(self, gar, shards):
        plain = run_msmw(1, gar)
        sharded = run_msmw(shards, gar)
        # Same training, same traffic pattern: only the framing differs.
        assert np.array_equal(plain["params"], sharded["params"])
        assert plain["per_kind"]["gradient"] == sharded["per_kind"]["gradient"]
        assert plain["per_kind"]["model"] == sharded["per_kind"]["model"]

        shard_map = ShardMap(plain["dimension"], shards)
        transport = sharded["transport"]
        per_reply_sharded = transport.sharded_reply_nbytes(shard_map)
        per_reply_plain = serialized_nbytes(
            plain["dimension"], transport.link.bytes_per_element
        )

        # One two-phase exchange: k - 1 partial (q, q) distance matrices in,
        # k - 1 selected-index broadcasts out, all at full float64 framing.
        two_phase = gar != "median"
        quorum = sharded["quorum"]
        coord_bytes = (shards - 1) * (
            serialized_nbytes(quorum * quorum) + serialized_nbytes(quorum)
        )
        coord_messages = 2 * (shards - 1)
        if not two_phase:
            assert "shard-coordination" not in sharded["per_kind"]
            coord_bytes = coord_messages = 0
        else:
            assert (
                sharded["per_kind"]["shard-coordination"]
                == sharded["rounds"] * sharded["honest"] * coord_messages
            )
        gradient_replies = plain["per_kind"]["gradient"]
        expected_byte_delta = (
            gradient_replies * (per_reply_sharded - per_reply_plain)
            + sharded["rounds"] * sharded["honest"] * coord_bytes
        )
        assert sharded["bytes"] - plain["bytes"] == expected_byte_delta
        assert (
            sharded["messages"] - plain["messages"]
            == sharded["rounds"] * sharded["honest"] * coord_messages
        )

    @pytest.mark.parametrize("dimension,shards", [(17, 4), (7850, 3), (1000, 7)])
    def test_model_bytes_equal_actual_framed_bytes(self, dimension, shards):
        """The slice-framing formula is the framer, not an estimate of it."""
        shard_map = ShardMap(dimension, shards)
        vector = np.random.default_rng(0).standard_normal(dimension)
        for fmt in ("float64", "float32"):  # float64 passthrough: 8 B/elem
            framed = sum(
                len(part)
                for _, sl in shard_map
                for part in serialize_vector_parts(vector[sl], fmt)
            )
            assert framed == sharded_nbytes(shard_map, fmt=fmt)

    def test_serialization_time_delegation_is_float_identical(self):
        plain = run_msmw(1, "median")
        cost_model = plain["cost_model"]
        dimension = plain["dimension"]
        for messages in (0, 1, 7, 24):
            whole = cost_model.serialization_time(dimension, messages)
            split = cost_model.serialization_time_for_bytes(
                messages * cost_model.message_bytes(dimension), messages
            )
            assert whole == split
