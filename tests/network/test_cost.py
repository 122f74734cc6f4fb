"""Tests for the device abstraction and the analytic cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregators import init
from repro.exceptions import ConfigurationError
from repro.network.cost import (
    CPU,
    GPU,
    PYTORCH,
    TENSORFLOW,
    CostModel,
    Device,
    NetworkParameters,
)
from repro.network.serialization import message_nbytes, serialize_vector, serialized_nbytes
from repro.network.transport import Transport


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
        base = model.compute_time(1_000_000, 32)
        assert model.compute_time(2_000_000, 32) == pytest.approx(2 * base)
        assert model.compute_time(1_000_000, 64) == pytest.approx(2 * base)

    def test_gpu_faster_than_cpu(self):
        d, b = 10_000_000, 32
        assert CostModel(device=GPU).compute_time(d, b) < CostModel(device=CPU).compute_time(d, b)

    def test_resnet50_cpu_iteration_near_paper_value(self):
        """Figure 7 reports roughly 1.6 s of computation per iteration."""
        seconds = CostModel(device=CPU).compute_time(23_539_850, 32)
        assert 0.8 < seconds < 3.0

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(ConfigurationError):
            CostModel().compute_time(0, 32)
        with pytest.raises(ConfigurationError):
            CostModel().compute_time(100, 0)


class TestSerialization:
    def test_vanilla_pays_nothing(self):
        model = CostModel(framework=TENSORFLOW)
        assert model.serialization_time(1_000_000, 10, vanilla=True) == 0.0

    def test_tensorflow_pays_context_switch_per_message(self):
        model = CostModel(framework=TENSORFLOW)
        one = model.serialization_time(1_000, 1)
        ten = model.serialization_time(1_000, 10)
        assert ten == pytest.approx(10 * one, rel=1e-6)

    def test_pytorch_cheaper_than_tensorflow(self):
        tf = CostModel(framework=TENSORFLOW).serialization_time(10_000_000, 5)
        pt = CostModel(framework=PYTORCH).serialization_time(10_000_000, 5)
        assert pt < tf

    def test_zero_messages_cost_nothing(self):
        assert CostModel().serialization_time(1_000_000, 0) == 0.0


class TestTransfer:
    def test_vanilla_runtime_is_faster(self):
        model = CostModel()
        garfield = model.transfer_time(10_000_000, 10, vanilla=False)
        vanilla = model.transfer_time(10_000_000, 10, vanilla=True)
        assert vanilla < garfield

    def test_gpu_collectives_speed_up_pytorch(self):
        model = CostModel(device=GPU, framework=PYTORCH)
        on_gpu = model.transfer_time(10_000_000, 10, on_gpu=True)
        off_gpu = model.transfer_time(10_000_000, 10, on_gpu=False)
        assert on_gpu < off_gpu

    def test_gpu_flag_has_no_effect_for_tensorflow_rpc(self):
        model = CostModel(device=GPU, framework=TENSORFLOW)
        assert model.transfer_time(1_000_000, 4, on_gpu=True) == pytest.approx(
            model.transfer_time(1_000_000, 4, on_gpu=False)
        )

    def test_scales_with_messages(self):
        model = CostModel()
        assert model.transfer_time(1_000_000, 20) > model.transfer_time(1_000_000, 10)

    def test_zero_messages(self):
        assert CostModel().transfer_time(1_000_000, 0) == 0.0


class TestAggregationTime:
    def test_none_gar_costs_nothing(self):
        assert CostModel().aggregation_time(None, 1_000_000) == 0.0

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
        model = CostModel()
        assert model.message_bytes(1_000) - model.message_bytes(0) == 4_000


class TestWireWidthAccounting:
    """The paper ships float32; our codec ships float64.  The one byte count
    prices the float64 passthrough at the paper's width."""

    def test_cost_model_defaults_to_paper_float32(self):
        assert CostModel().message_bytes(1_000) == serialized_nbytes(1_000, "float32") == 4_025

    def test_wire_accurate_accounting_is_double_the_modeled_one(self):
        actual = serialized_nbytes(50_000)  # defaults to the codec's float64
        assert actual - CostModel().message_bytes(50_000) == 50_000 * 4

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
    transport charges it, the ledger folds it and the cost model prices it
    for the one format it models, plain float64."""

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

    @pytest.mark.parametrize("dimension", DIMENSIONS)
    def test_the_cost_model_prices_the_one_rule(self, dimension):
        assert CostModel().message_bytes(dimension) == message_nbytes(dimension)

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
