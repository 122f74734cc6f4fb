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
        assert ClusterConfig(wire_format="int8+delta").wire_format == "int8+delta"
        with pytest.raises(ConfigurationError):
            ClusterConfig(wire_format="float128")
        with pytest.raises(ConfigurationError, match="'zlib'"):
            ClusterConfig(wire_format="int8+delta+zlib")
        with pytest.raises(ConfigurationError):
            ClusterConfig(wire_format="int8+brotli")

    def test_fault_oblivious_shapes_are_checked_by_the_rule_they_run(self):
        """Vanilla and crash-tolerant average at f = 0, so the configured
        gradient GAR's precondition at the declared f_w does not apply."""
        base = dict(num_workers=5, num_byzantine_workers=2, model="logistic")
        assert ClusterConfig(deployment="vanilla", **base).gradient_quorum() == 5
        assert ClusterConfig(deployment="crash-tolerant", num_servers=3, **base).gradient_quorum() == 5

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

    def test_model_gar_condition_for_decentralized(self):
        """The same rule at the workers' f: krum needs 2f + 3 = 5 models, and
        five nodes with f = 1 aggregate only 4 (their own plus three peers).
        This used to pass validation and fail in Controller.build()."""
        with pytest.raises(ConfigurationError, match="krum' needs at least 5 models"):
            ClusterConfig(
                deployment="decentralized",
                num_workers=5,
                num_byzantine_workers=1,
                gradient_gar="median",
                model_gar="krum",
            )
        ClusterConfig(
            deployment="decentralized",
            num_workers=6,
            num_byzantine_workers=1,
            gradient_gar="median",
            model_gar="krum",
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


    @pytest.mark.parametrize(
        "field,value",
        [
            ("model", "resnet9000"),  # was: accepted, failed in Controller.build
            ("dataset", "imagenet"),
            ("worker_attack", "gentle-nudge"),
            ("server_attack", "gentle-nudge"),
            ("dirichlet_alpha", 0.0),  # was: a late DatasetError, and only when non_iid
            ("dirichlet_alpha", -1.0),
            ("contract_steps", -1),  # was: accepted, range() ran no steps
            ("dataset_noise", -0.5),  # was: accepted
        ],
    )
    def test_unknown_names_and_negative_knobs_fail_at_config_time(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field}|{value}"):
            ClusterConfig(**{field: value})

    @pytest.mark.parametrize(
        "model,dataset", [("mnist_cnn", "cifar10"), ("cifarnet", "mnist"), ("vgg", "mnist")]
    )
    def test_a_model_that_cannot_read_the_dataset_fails_at_config_time(self, model, dataset):
        # Was: accepted, then rejected by Experiment.build_model after the
        # dataset was built (and, on the process backend, the zygote forked).
        with pytest.raises(ConfigurationError, match="channel input"):
            ClusterConfig(model=model, dataset=dataset)

    def test_names_are_matched_the_way_their_builders_match_them(self):
        ClusterConfig(model="Logistic", worker_attack="little_is_enough", server_attack="Reversed")

    def test_gar_names_are_kept_as_init_gar_spells_them(self):
        config = ClusterConfig(num_workers=7, num_byzantine_workers=1, gradient_gar="Multi_Krum", model_gar="MEDIAN")
        assert (config.gradient_gar, config.model_gar) == ("multi-krum", "median")
        assert config == ClusterConfig(num_workers=7, num_byzantine_workers=1)

    def test_a_dataset_too_small_to_build_is_refused(self):
        # Both were accepted once, then Controller.build raised DatasetError.
        with pytest.raises(ConfigurationError, match="dataset_size must be >= 10, an example per class"):
            ClusterConfig(dataset_size=9)
        with pytest.raises(ConfigurationError, match="dataset_size=12 leaves 10 training examples for 11 workers"):
            ClusterConfig(num_workers=11, dataset_size=12)
        ClusterConfig(num_workers=10, dataset_size=12)

    def test_a_server_without_a_peer_to_pull_models_from_is_refused(self):
        # Accepted once, then round 0 raised "no peers to pull 'model' from".
        with pytest.raises(ConfigurationError, match="no peer to pull a model from"):
            ClusterConfig(deployment="decentralized", num_workers=1, gradient_gar="average", model_gar="average")
        ClusterConfig(deployment="decentralized", num_workers=2, gradient_gar="average", model_gar="average")


class TestStragglerFactors:
    """Every id is a node the deployment builds, every factor a real number
    >= 1.0 — checked when the config is made, not inside ``Controller.build``."""

    @pytest.mark.parametrize("node_id", ["wroker-1", "worker-99", "server-1", "worker-5"])
    def test_unknown_node_is_rejected_by_name(self, node_id):
        with pytest.raises(ConfigurationError, match=f"'{node_id}'"):
            ClusterConfig(straggler_factors={node_id: 2.0})

    @pytest.mark.parametrize("factor", [0.5, 0.0, -2.0, float("nan"), "3", None, True])
    def test_factor_below_one_or_not_a_number_is_rejected_by_name(self, factor):
        with pytest.raises(ConfigurationError, match="worker-1"):
            ClusterConfig(straggler_factors={"worker-1": factor})

    def test_valid_factors_are_accepted(self):
        ClusterConfig(straggler_factors={"worker-0": 1.0, "worker-4": 20, "server-0": 2.5})

    def test_decentralized_builds_one_server_per_worker(self):
        config = ClusterConfig(
            deployment="decentralized",
            num_workers=6,
            num_byzantine_workers=1,
            straggler_factors={"server-5": 3.0},
        )
        assert config.node_ids() == (
            [f"worker-{i}" for i in range(6)],
            [f"server-{i}" for i in range(6)],
        )
        with pytest.raises(ConfigurationError, match="server-6"):
            ClusterConfig(
                deployment="decentralized",
                num_workers=6,
                num_byzantine_workers=1,
                straggler_factors={"server-6": 3.0},
            )

    def test_roster_is_what_the_controller_builds(self):
        from repro.core.controller import Controller

        config = ClusterConfig(
            deployment="msmw",
            num_workers=4,
            num_servers=3,
            model="logistic",
            dataset_size=80,
            straggler_factors={"server-2": 2.0},
        )
        workers, servers = config.node_ids()
        with Controller(config).build() as deployment:
            assert [w.node_id for w in deployment.workers] == workers
            assert [s.node_id for s in deployment.servers] == servers
            assert deployment.transport.failures.latency_factor("server-2") == 2.0


class TestDerivedQuantities:
    def test_gradient_quorum_synchronous_waits_for_all(self):
        config = ClusterConfig(num_workers=8, num_byzantine_workers=2, gradient_gar="multi-krum")
        assert config.gradient_quorum() == 8

    def test_gradient_quorum_asynchronous(self):
        config = ClusterConfig(
            num_workers=9, num_byzantine_workers=2, gradient_gar="multi-krum", asynchronous=True
        )
        assert config.gradient_quorum() == 7
        # The fault-oblivious baselines wait for everyone regardless.
        for baseline in ("vanilla", "crash-tolerant"):
            config.deployment = baseline
            assert config.gradient_quorum() == 9

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
