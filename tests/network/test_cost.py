"""Tests for the device abstraction and the analytic cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregators import init
from repro.core.cluster import DeploymentShape
from repro.exceptions import ConfigurationError
from repro.network.cost import (
    CPU,
    FABRIC_CAPACITY_FACTOR,
    GPU,
    P2P_FABRIC_CAPACITY_FACTOR,
    PYTORCH,
    TENSORFLOW,
    CostModel,
    Device,
    NetworkParameters,
    NetworkPrice,
)
from repro.network.ledger import Charge
from repro.network.serialization import message_nbytes, serialize_vector, serialized_nbytes
from repro.network.transport import Transport
from repro.nn.models import model_compute_intensity

#: A generic model's compute intensity (``model_compute_intensity`` of an unlisted model).
INTENSITY = model_compute_intensity("logistic")


class TestDevice:
    def test_gpu_is_faster_than_cpu(self):
        assert GPU.flops_per_second > CPU.flops_per_second
        assert GPU.aggregation_elements_per_second > CPU.aggregation_elements_per_second

    def test_gpu_compute_about_an_order_of_magnitude_faster(self):
        """Section 1: GPUs give at least one order of magnitude improvement."""
        assert GPU.flops_per_second / CPU.flops_per_second >= 10

    def test_invalid_device_rejected(self):
        with pytest.raises(ConfigurationError):
            Device("bad", flops_per_second=0, aggregation_elements_per_second=1, host_transfer_bytes_per_s=1)


class TestComputeTime:
    def test_scales_linearly_with_dimension_and_batch(self):
        model = CostModel(device=CPU)
        base = model.compute_time(1_000_000, 32, INTENSITY)
        assert model.compute_time(2_000_000, 32, INTENSITY) == pytest.approx(2 * base)
        assert model.compute_time(1_000_000, 64, INTENSITY) == pytest.approx(2 * base)

    def test_gpu_faster_than_cpu(self):
        d, b = 10_000_000, 32
        assert CostModel(device=GPU).compute_time(d, b, INTENSITY) < CostModel(device=CPU).compute_time(d, b, INTENSITY)

    def test_resnet50_cpu_iteration_near_paper_value(self):
        """Figure 7 reports roughly 1.6 s of computation per iteration."""
        seconds = CostModel(device=CPU).compute_time(23_539_850, 32, model_compute_intensity("resnet50"))
        assert 0.8 < seconds < 3.0

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(ConfigurationError):
            CostModel().compute_time(0, 32, INTENSITY)
        with pytest.raises(ConfigurationError):
            CostModel().compute_time(100, 0, INTENSITY)
        with pytest.raises(ConfigurationError):
            CostModel().compute_time(100, 32, 0.0)


def message_bytes(dimension: int, count: int = 1) -> int:
    return count * message_nbytes(dimension)


class TestSerialization:
    def test_vanilla_pays_nothing(self):
        model = CostModel(framework=TENSORFLOW)
        assert model.serialization_time(message_bytes(1_000_000, 10), 10, vanilla=True) == 0.0

    def test_tensorflow_pays_context_switch_per_message(self):
        model = CostModel(framework=TENSORFLOW)
        one = model.serialization_time(message_bytes(1_000), 1)
        ten = model.serialization_time(message_bytes(1_000, 10), 10)
        assert ten == pytest.approx(10 * one, rel=1e-6)

    def test_pytorch_cheaper_than_tensorflow(self):
        tf = CostModel(framework=TENSORFLOW).serialization_time(message_bytes(10_000_000, 5), 5)
        pt = CostModel(framework=PYTORCH).serialization_time(message_bytes(10_000_000, 5), 5)
        assert pt < tf

    def test_zero_messages_cost_nothing(self):
        assert CostModel().serialization_time(0, 0) == 0.0


def fifo(replies, bandwidth, prefix=0.0):
    """Reference FIFO link, written out: the first reply finishes on arrival
    (or after the prefix and its own transfer), each later one on arrival or
    one transfer after the previous finish, whichever is later."""
    finish = None
    for arrival, nbytes in sorted(replies):
        start = prefix if finish is None else finish
        if finish is None and not prefix:
            finish = arrival
        else:
            finish = max(arrival, start + nbytes / bandwidth)
    return finish


class TestNetworkPrice:
    """The one network rule: FIFO on the requester's link, plus the fabric."""

    def test_one_reply_costs_its_arrival(self):
        assert NetworkPrice(100.0).quorum([(0.7, 50)]) == 0.7

    def test_replies_queue_behind_each_other(self):
        price = NetworkPrice(100.0)
        # Three replies arrive together: each waits for the one before it.
        assert price.quorum([(1.0, 100)] * 3) == 3.0
        # A late reply finds the link idle and costs its own arrival.
        assert price.quorum([(1.0, 100), (5.0, 100)]) == 5.0

    def test_matches_the_reference_fold_in_any_order(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            replies = [(float(a), int(b)) for a, b in zip(rng.exponential(1.0, 6), rng.integers(1, 500, 6))]
            prefix = int(rng.integers(0, 2)) * int(rng.integers(1, 500))
            expected = fifo(replies, 100.0, prefix / 100.0)
            assert NetworkPrice(100.0).quorum(replies[::-1], prefix) == pytest.approx(expected, rel=1e-12)
            assert NetworkPrice(100.0).quorum(replies, prefix) >= max(arrival for arrival, _ in replies)

    def test_shipped_payloads_go_out_first(self):
        price = NetworkPrice(100.0)
        # 300 shipped bytes hold the link 3 s; the reply then crosses it in 1 s.
        assert price.quorum([(0.5, 100)], shipped_nbytes=300) == 4.0

    def test_transfer_factor_scales_link_and_fabric(self):
        plain, slow = NetworkPrice(100.0, 1_000.0), NetworkPrice(100.0, 1_000.0, transfer_factor=1.15)
        assert slow.quorum([(1.0, 100)] * 2) == 1.15 * plain.quorum([(1.0, 100)] * 2)
        assert slow.fabric(5_000) == 1.15 * plain.fabric(5_000) == 1.15 * 5.0

    def test_price_grows_with_the_message_count(self):
        price = CostModel().network_price(DeploymentShape())
        nbytes = message_nbytes(1_000_000)
        assert price.quorum([(0.01, nbytes)] * 20) > price.quorum([(0.01, nbytes)] * 10)
        assert price.fabric(20 * nbytes) > price.fabric(10 * nbytes)

    def test_vanilla_runtime_moves_bytes_faster(self):
        model = CostModel()
        garfield, vanilla = model.network_price(DeploymentShape()), model.network_price(DeploymentShape(native=True))
        network = model.network
        assert vanilla.bandwidth == garfield.bandwidth * network.vanilla_efficiency
        assert vanilla.fabric_bandwidth == garfield.fabric_bandwidth * network.vanilla_efficiency

    def test_vanilla_pays_no_serialization(self):
        model, charge = CostModel(framework=TENSORFLOW), Charge(messages=10, nbytes=message_bytes(1_000, 10), elapsed=0.5)
        vanilla = model.network_price(DeploymentShape(native=True))
        assert model.communication_time(vanilla, charge, 0, native=True) == 0.5
        garfield = model.network_price(DeploymentShape())
        assert model.communication_time(garfield, charge, 0, native=False) == 0.5 + model.serialization_time(
            charge.nbytes, charge.messages
        )

    def test_gpu_collectives_speed_up_pytorch(self):
        shape = DeploymentShape()
        on_gpu = CostModel(device=GPU, framework=PYTORCH).network_price(shape)
        on_cpu = CostModel(device=CPU, framework=PYTORCH).network_price(shape)
        assert on_gpu.bandwidth == on_cpu.bandwidth * NetworkParameters().gpu_direct_efficiency
        assert on_gpu.fabric_bandwidth == on_cpu.fabric_bandwidth

    def test_gpu_has_no_effect_for_tensorflow_rpc(self):
        shape = DeploymentShape()
        assert CostModel(device=GPU, framework=TENSORFLOW).network_price(shape) == CostModel(
            device=CPU, framework=TENSORFLOW
        ).network_price(shape)

    def test_all_to_all_uses_the_fabric_less_efficiently(self):
        model = CostModel()
        star, peer_to_peer = model.network_price(DeploymentShape()), model.network_price(DeploymentShape(servers="per-worker"))
        assert peer_to_peer.fabric_bandwidth == star.fabric_bandwidth * P2P_FABRIC_CAPACITY_FACTOR / FABRIC_CAPACITY_FACTOR
        assert peer_to_peer.bandwidth == star.bandwidth


class TestAggregationTime:
    def test_none_gar_costs_nothing(self):
        assert CostModel().aggregation_time(None, 1_000_000) == 0.0

    def test_pytorch_pipelines_half_of_it_except_natively(self):
        gar, d = init("median", n=7, f=1), 1_000_000
        tensorflow, pytorch = CostModel(framework=TENSORFLOW), CostModel(framework=PYTORCH)
        assert pytorch.aggregation_time(gar, d) == 0.5 * tensorflow.aggregation_time(gar, d)
        assert pytorch.aggregation_time(gar, d, native=True) == tensorflow.aggregation_time(gar, d)
        assert tensorflow.aggregation_time(gar, d, native=True) == tensorflow.aggregation_time(gar, d)

    def test_multikrum_more_expensive_than_average(self):
        model = CostModel(device=GPU)
        n, f, d = 17, 3, 10_000_000
        assert model.aggregation_time(init("multi-krum", n=n, f=f), d) > model.aggregation_time(
            init("average", n=n, f=0), d
        )

    def test_gpu_aggregation_faster_than_cpu(self):
        gar = init("bulyan", n=17, f=3)
        assert CostModel(device=GPU).aggregation_time(gar, 10_000_000) < CostModel(device=CPU).aggregation_time(
            gar, 10_000_000
        )

    def test_median_close_to_average_on_gpu(self):
        """Figure 3a: Median maintains performance very close to Average."""
        model = CostModel(device=GPU)
        d = 10_000_000
        median = model.aggregation_time(init("median", n=17, f=3), d)
        average = model.aggregation_time(init("average", n=17, f=0), d)
        assert median < 3 * average


class TestNetworkParameters:
    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkParameters(bandwidth_bytes_per_s=0)

    def test_message_bytes_uses_float32(self):
        assert message_nbytes(1_000) - message_nbytes(0) == 4_000


class TestWireWidthAccounting:
    """The paper ships float32; our codec ships float64.  The one byte count
    prices the float64 passthrough at the paper's width."""

    def test_cost_model_defaults_to_paper_float32(self):
        assert message_nbytes(1_000) == serialized_nbytes(1_000, "float32") == 4_025

    def test_wire_accurate_accounting_is_double_the_modeled_one(self):
        actual = serialized_nbytes(50_000)  # defaults to the codec's float64
        assert actual - message_nbytes(50_000) == 50_000 * 4

    def test_transport_accounting_uses_the_modeled_width(self):
        # The golden traces depend on this: simulated latencies charge the
        # paper's float32 wire, not the codec's float64.
        transport = Transport()
        try:
            assert transport._payload_nbytes(np.zeros(1_000)) == serialized_nbytes(1_000, "float32")
        finally:
            transport.close()


#: Every format spec: each base, with and without delta.
ALL_SPECS = [f"{base}{delta}" for base in ("float64", "float32", "float16", "int8") for delta in ("", "+delta")]


class TestOneByteCount:
    """One rule, :func:`message_nbytes`, prices every vector message: the
    transport charges it, the ledger folds it and the analytic model re-prices
    a round at it, for the one format it models, plain float64."""

    NARROW = ["float32", "float16", "int8"]
    DIMENSIONS = [0, 1, 1_000, 4_097, 100_000]

    @pytest.mark.parametrize("spec", NARROW)
    @pytest.mark.parametrize("dimension", DIMENSIONS)
    def test_message_bytes_equals_actual_framed_bytes(self, spec, dimension):
        """Outside a float64 base, the priced message is the framed blob."""
        blob = serialize_vector(np.zeros(dimension), spec)
        assert message_nbytes(dimension, spec) == len(blob)

    @pytest.mark.parametrize("dimension", DIMENSIONS)
    def test_float64_is_priced_four_bytes_an_element_below_its_blob(self, dimension):
        blob = serialize_vector(np.zeros(dimension), "float64")
        assert len(blob) - message_nbytes(dimension, "float64") == 4 * dimension

    @pytest.mark.parametrize("spec", ALL_SPECS)
    @pytest.mark.parametrize("dimension", [1, 1_000, 4_097])
    def test_transport_and_ledger_charge_the_one_rule(self, spec, dimension):
        rule = message_nbytes(dimension, spec)
        transport = Transport(seed=0, wire_format=spec)
        try:
            for node in ("a", "b"):
                transport.register_node(node, object())
            transport.register_handler("b", "gradient", lambda context: np.ones(dimension))
            # A request that ships a d-vector and its d-vector reply.
            transport.pull_many("a", ["b"], "gradient", quorum=1, payload=np.zeros(dimension))
            charged = transport._payload_nbytes(np.zeros(dimension))
            charge = transport.ledger.charge("a")
        finally:
            transport.close()
        # The retry charge is the same vector_nbytes the payload goes through.
        assert charged == transport.vector_nbytes(dimension) == rule
        assert (charge.messages, charge.nbytes) == (2, 2 * rule)
        assert transport.stats.bytes_sent == rule
