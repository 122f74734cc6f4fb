"""Tests for ClusterConfig validation and derived quantities."""

from __future__ import annotations

import pytest

from repro.core.cluster import ClusterConfig
from repro.exceptions import ConfigurationError


class TestValidation:
    def test_default_config_is_valid(self):
        config = ClusterConfig()
        assert config.deployment == "ssmw"

    def test_unknown_deployment(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(deployment="federated")

    def test_unknown_device_and_framework(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(device="tpu")
        with pytest.raises(ConfigurationError):
            ClusterConfig(framework="jax")

    def test_unknown_gar(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(gradient_gar="quantum-median")

    def test_byzantine_workers_bounds(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_workers=4, num_byzantine_workers=4)
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_workers=4, num_byzantine_workers=-1)

    def test_attacking_cannot_exceed_declared(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_workers=9, num_byzantine_workers=1, num_attacking_workers=2)

    def test_single_server_deployments_reject_replicas(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(deployment="ssmw", num_servers=3)
        with pytest.raises(ConfigurationError):
            ClusterConfig(deployment="vanilla", num_byzantine_servers=1)

    def test_replicated_deployments_need_replicas(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(deployment="msmw", num_servers=1)

    def test_wire_format_validated(self):
        assert ClusterConfig(wire_format="int8+delta+zlib").wire_format == "int8+delta+zlib"
        with pytest.raises(ConfigurationError):
            ClusterConfig(wire_format="float128")
        with pytest.raises(ConfigurationError):
            ClusterConfig(wire_format="int8+brotli")

    def test_gar_resilience_enforced(self):
        # Multi-Krum needs n >= 2f + 3; 5 workers cannot tolerate 2 Byzantine.
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_workers=5, num_byzantine_workers=2, gradient_gar="multi-krum")

    def test_bulyan_requires_4f_plus_3(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_workers=10, num_byzantine_workers=2, gradient_gar="bulyan")
        ClusterConfig(num_workers=11, num_byzantine_workers=2, gradient_gar="bulyan")

    def test_model_gar_condition_for_msmw(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(
                deployment="msmw",
                num_workers=9,
                num_byzantine_workers=1,
                num_servers=2,
                num_byzantine_servers=1,
                model_gar="median",
            )

    def test_paper_tensorflow_setup_is_valid(self):
        """18 workers (3 Byzantine), 6 servers (1 Byzantine), Bulyan + Median."""
        config = ClusterConfig(
            deployment="msmw",
            num_workers=18,
            num_byzantine_workers=3,
            num_servers=6,
            num_byzantine_servers=1,
            gradient_gar="bulyan",
            model_gar="median",
            asynchronous=True,
        )
        assert config.gradient_quorum() == 15

    def test_paper_pytorch_setup_is_valid(self):
        """10 workers (3 Byzantine), 3 servers (1 Byzantine), Multi-Krum, synchronous."""
        config = ClusterConfig(
            deployment="msmw",
            num_workers=10,
            num_byzantine_workers=3,
            num_servers=3,
            num_byzantine_servers=1,
            gradient_gar="multi-krum",
            model_gar="median",
            asynchronous=False,
        )
        assert config.gradient_quorum() == 10

    def test_decentralized_has_no_servers(self):
        config = ClusterConfig(deployment="decentralized", num_workers=6, num_servers=0)
        assert config.num_servers == 0

    def test_invalid_iterations_and_batch(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_iterations=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(batch_size=0)


    @pytest.mark.parametrize(
        "field,value",
        [
            ("accuracy_every", 0),  # was: ZeroDivisionError in the first round
            ("learning_rate", 0.0),  # was: bare ValueError from SGD inside build()
            ("learning_rate", -0.1),
            ("momentum", 1.5),
            ("momentum", -0.1),
            ("worker_momentum", -0.1),
            ("worker_momentum", 1.0),
            ("dataset_size", 0),
            ("test_fraction", 1.5),
            ("test_fraction", 0.0),
            ("num_attacking_workers", -1),
            ("num_attacking_servers", -1),
        ],
    )
    def test_out_of_range_hyperparameters_fail_at_config_time(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ClusterConfig(**{field: value})


class TestDerivedQuantities:
    def test_gradient_quorum_synchronous_waits_for_all(self):
        config = ClusterConfig(num_workers=8, num_byzantine_workers=2, gradient_gar="multi-krum")
        assert config.gradient_quorum() == 8

    def test_gradient_quorum_asynchronous(self):
        config = ClusterConfig(
            num_workers=9, num_byzantine_workers=2, gradient_gar="multi-krum", asynchronous=True
        )
        assert config.gradient_quorum() == 7

    def test_decentralized_quorum(self):
        config = ClusterConfig(
            deployment="decentralized", num_workers=7, num_byzantine_workers=1, gradient_gar="median"
        )
        assert config.gradient_quorum() == 6

    def test_model_quorum_single_server_is_zero(self):
        assert ClusterConfig(deployment="ssmw").model_quorum() == 0

    def test_model_quorum_msmw(self):
        config = ClusterConfig(
            deployment="msmw",
            num_workers=9,
            num_byzantine_workers=1,
            num_servers=4,
            num_byzantine_servers=1,
        )
        assert config.model_quorum() == 3

    def test_effective_batch_size(self):
        config = ClusterConfig(num_workers=6, batch_size=32)
        assert config.effective_batch_size == 192
