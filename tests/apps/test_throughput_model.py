"""Tests for the analytic throughput model against the paper's claims."""

from __future__ import annotations

import pytest

from repro.apps.throughput import PAPER_TESTBEDS, ThroughputModel, messages_per_round
from repro.core.cluster import ClusterConfig
from repro.core.session import APPLICATION_REGISTRY, RoundStrategy, register_application
from repro.exceptions import ConfigurationError


def cpu_model(model="resnet50", dimension=None, **overrides):
    fields = {**PAPER_TESTBEDS["cpu"], "gradient_gar": "bulyan", "asynchronous": True, **overrides}
    return ThroughputModel(ClusterConfig(**fields), model=model, dimension=dimension)


def gpu_model(model="resnet50", dimension=None, **overrides):
    return ThroughputModel(ClusterConfig(**{**PAPER_TESTBEDS["gpu"], **overrides}), model=model, dimension=dimension)


class TestBasics:
    def test_breakdown_components_positive(self):
        breakdown = cpu_model().breakdown("ssmw")
        assert breakdown.computation > 0
        assert breakdown.communication > 0
        assert breakdown.aggregation > 0
        assert breakdown.total == pytest.approx(
            breakdown.computation + breakdown.communication + breakdown.aggregation
        )

    def test_as_dict_round_trip(self):
        data = cpu_model().breakdown("vanilla").as_dict()
        assert set(data) == {"computation", "communication", "aggregation", "total"}

    def test_invalid_deployment(self):
        with pytest.raises(ConfigurationError):
            cpu_model().communication_time("gossip")

    def test_a_replica_layout_is_priced_only_at_a_valid_replica_count(self):
        model = ThroughputModel(ClusterConfig(deployment="ssmw", num_workers=18, num_byzantine_workers=3))
        assert model.communication_time("ssmw") > 0  # a single server is priced on its own
        for deployment in ("msmw", "crash-tolerant"):
            with pytest.raises(ConfigurationError, match="at least two server replicas"):
                model.communication_time(deployment)

    def test_a_cluster_too_small_for_the_rule_is_refused(self):
        # Bulyan at n_w = 4, f_w = 3 was once priced at its 15-row minimum.
        with pytest.raises(ConfigurationError, match="GAR 'bulyan' needs at least 15 gradients to tolerate f=3, "
                                                     "but the deployment only collects 1"):
            cpu_model(num_workers=4, num_byzantine_workers=3)

    def test_a_deployment_the_cluster_does_not_fit_is_refused_by_breakdown(self):
        # The GPU testbed runs msmw; a decentralized node there waits for 7 gradients.
        model = gpu_model()
        assert model.breakdown("msmw").total > 0
        with pytest.raises(ConfigurationError, match="needs at least 9 gradients .* only collects 7"):
            model.breakdown("decentralized")

    def test_contract_steps_count_only_on_non_iid_data(self):
        iid = cpu_model(contract_steps=3)
        non_iid = cpu_model(contract_steps=3, non_iid=True)
        assert iid.breakdown("decentralized") == cpu_model().breakdown("decentralized")
        assert non_iid.aggregation_time("decentralized") > iid.aggregation_time("decentralized")
        assert non_iid.aggregation_time("msmw") == iid.aggregation_time("msmw")

    def test_explicit_dimension_overrides_model_name(self):
        small = cpu_model(model="vgg", dimension=1000)
        assert small.dimension == 1000


class TestPaperClaims:
    """Qualitative claims of Section 6 that the cost model must reproduce."""

    def test_vanilla_is_fastest(self):
        model = cpu_model()
        vanilla = model.breakdown("vanilla").total
        for deployment in ["aggregathor", "ssmw", "crash-tolerant", "msmw", "decentralized"]:
            assert model.breakdown(deployment).total > vanilla

    def test_ssmw_cheaper_than_crash_tolerance(self):
        """'the cost of workers' Byzantine resilience is always less than that of crash tolerance'."""
        model = cpu_model()
        assert model.breakdown("ssmw").total <= model.breakdown("crash-tolerant").total

    def test_byzantine_servers_cost_more_than_byzantine_workers(self):
        model = cpu_model()
        assert model.breakdown("msmw").total > model.breakdown("ssmw").total

    def test_decentralized_is_most_expensive(self):
        model = cpu_model()
        others = ["ssmw", "crash-tolerant", "msmw"]
        assert all(model.breakdown("decentralized").total > model.breakdown(d).total for d in others)

    def test_msmw_over_crash_overhead_below_50_percent(self):
        """Paper: MSMW overhead relative to crash tolerance ranges from 1% to 42% on CPUs."""
        model = cpu_model()
        msmw = model.breakdown("msmw").total
        crash = model.breakdown("crash-tolerant").total
        assert 0.0 < (msmw - crash) / crash < 0.5

    def test_communication_dominates_overhead(self):
        """Paper: communication accounts for more than 75% of the overhead."""
        model = cpu_model()
        vanilla = model.breakdown("vanilla")
        for deployment in ["ssmw", "msmw", "decentralized"]:
            b = model.breakdown(deployment)
            overhead = b.total - vanilla.total
            communication_share = (b.communication - vanilla.communication) / overhead
            assert communication_share > 0.75

    def test_aggregation_is_a_small_fraction_of_overhead(self):
        """Paper: robust aggregation contributes only ~11% of the overhead."""
        model = cpu_model()
        vanilla = model.breakdown("vanilla")
        for deployment in ["ssmw", "msmw"]:
            b = model.breakdown(deployment)
            overhead = b.total - vanilla.total
            assert (b.aggregation - vanilla.aggregation) / overhead < 0.15

    def test_aggregathor_slower_than_garfield_ssmw(self):
        """Figure 8a: Garfield's SSMW outperforms AggregaThor."""
        model = cpu_model(gradient_gar="multi-krum")
        assert model.breakdown("ssmw").total < model.breakdown("aggregathor").total

    def test_gpu_setup_faster_than_cpu_setup(self):
        """Section 1: GPUs give at least an order of magnitude higher throughput
        (with the paper's respective cluster sizes and models)."""
        cpu = cpu_model(model="cifarnet", gradient_gar="multi-krum", asynchronous=False)
        gpu = gpu_model(model="cifarnet")
        assert gpu.breakdown("msmw").total < cpu.breakdown("msmw").total

    def test_slowdown_grows_then_saturates_with_model_size(self):
        """Figure 6: overhead increases with model dimension only up to a point."""
        slowdowns = [
            cpu_model(model=name).slowdown("msmw")
            for name in ["mnist_cnn", "cifarnet", "resnet50", "vgg"]
        ]
        assert slowdowns[1] > slowdowns[0] * 0.9
        # The increase from ResNet-50 to VGG is small relative to the jump from
        # MNIST_CNN to CifarNet (saturation).
        assert abs(slowdowns[3] - slowdowns[2]) < abs(slowdowns[1] - slowdowns[0]) + 1.0

    def test_workers_scaling_decentralized_does_not_scale(self):
        """Figure 8: all systems scale with workers except decentralized learning."""
        throughput = {}
        for deployment in ["vanilla", "ssmw", "msmw", "decentralized"]:
            small = cpu_model(model="cifarnet", num_workers=6, num_byzantine_workers=0, gradient_gar="multi-krum").throughput_batches_per_s(deployment)
            large = cpu_model(model="cifarnet", num_workers=18, num_byzantine_workers=0, gradient_gar="multi-krum").throughput_batches_per_s(deployment)
            throughput[deployment] = (small, large)
        for deployment in ["vanilla", "ssmw", "msmw"]:
            small, large = throughput[deployment]
            assert large > 1.3 * small
        small, large = throughput["decentralized"]
        assert large < 1.3 * small

    def test_byzantine_workers_do_not_change_throughput_much(self):
        """Figure 10a: increasing f_w with fixed n_w leaves throughput almost unchanged."""
        base = cpu_model(num_byzantine_workers=0, gradient_gar="multi-krum", asynchronous=False)
        more = cpu_model(num_byzantine_workers=3, gradient_gar="multi-krum", asynchronous=False)
        ratio = more.breakdown("msmw").total / base.breakdown("msmw").total
        assert 0.9 < ratio < 1.1

    def test_byzantine_servers_reduce_throughput(self):
        """Figure 10b: tolerating more Byzantine servers costs throughput, but < 50%."""
        def updates_per_second(fps):
            nps = max(2, 3 * fps + 1)
            return 1.0 / cpu_model(num_servers=nps, num_byzantine_servers=fps).breakdown("msmw").total

        baseline = updates_per_second(0)
        for fps in [1, 2, 3]:
            assert updates_per_second(fps) < baseline
        assert (baseline - updates_per_second(3)) / baseline < 0.6

    def test_decentralized_communication_grows_faster_than_vanilla(self):
        """Figure 9a: decentralized communication degrades with n much faster than vanilla."""
        def comm(deployment, n):
            return gpu_model(dimension=1_000_000, num_workers=n, num_byzantine_workers=0, gradient_gar="median").communication_time(deployment)

        vanilla_growth = comm("vanilla", 6) / comm("vanilla", 2)
        decentralized_growth = comm("decentralized", 6) / comm("decentralized", 2)
        assert decentralized_growth > vanilla_growth

    def test_communication_linear_in_dimension(self):
        """Figure 9b: communication time grows linearly with the model dimension
        (on Figure 9's cluster: the GPU testbed's 10 workers at f_w = 3 leave a
        decentralized node too few gradients for Multi-Krum)."""
        cluster = dict(num_workers=6, num_byzantine_workers=0, gradient_gar="median")
        model_small = gpu_model(dimension=1_000_000, **cluster)
        model_large = gpu_model(dimension=10_000_000, **cluster)
        ratio = model_large.communication_time("decentralized") / model_small.communication_time("decentralized")
        assert 5.0 < ratio < 11.0


class DoublePullStrategy(RoundStrategy):
    """SSMW's shape, but every round pulls the gradient quorum twice."""

    def scatter(self, ctx):
        ctx.gradients(ctx.server)
        return ctx.gradients(ctx.server)


@pytest.fixture
def double_pull():
    name = "double-pull"
    register_application(name)(DoublePullStrategy)
    yield name
    APPLICATION_REGISTRY.pop(name, None)


class TestPricedFromTheRound:
    """The model prices the round a strategy runs, not a description of it."""

    def test_a_strategy_that_pulls_twice_is_priced_above_ssmw(self, double_pull):
        model = cpu_model(gradient_gar="multi-krum")
        assert model.communication_time(double_pull) > model.communication_time("ssmw")
        assert model.breakdown(double_pull).total > model.breakdown("ssmw").total

    def test_a_strategy_that_pulls_twice_sends_twice_the_messages(self, double_pull):
        ssmw = messages_per_round("ssmw", num_workers=6)
        assert messages_per_round(double_pull, num_workers=6) == {key: 2 * count for key, count in ssmw.items()}
