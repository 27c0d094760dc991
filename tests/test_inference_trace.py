"""Tests for the inference simulator and Chrome-trace export."""

import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

import repro.alloc.pool as pool_module
from repro.core import (
    AlgoConfig,
    baseline_inference_bytes,
    evaluate,
    simulate_inference,
)
from repro.core.plan import compiled_plan
from repro.graph import NetworkBuilder
from repro.hw import PAPER_SYSTEM
from repro.sim import EventKind, save_trace, timeline_to_trace_events
from repro.zoo import available, build

from conftest import make_linear_cnn
from test_properties import random_dag_network, random_linear_network


class TestInferenceSimulation:
    def test_far_below_training_footprint(self):
        net = build("vgg16", 64)
        algos = AlgoConfig.memory_optimal(net)
        inference = simulate_inference(net, PAPER_SYSTEM, algos)
        training = evaluate(net, policy="none", algo="m")
        assert inference.max_usage_bytes < training.max_usage_bytes / 2

    def test_below_network_wide_inference_allocation(self):
        net = build("vgg16", 64)
        algos = AlgoConfig.memory_optimal(net)
        layer_wise = simulate_inference(net, PAPER_SYSTEM, algos)
        network_wide = baseline_inference_bytes(net, algos)
        assert layer_wise.managed_max_bytes < network_wide

    def test_forward_events_only(self, linear_cnn):
        algos = AlgoConfig.memory_optimal(linear_cnn)
        result = simulate_inference(linear_cnn, PAPER_SYSTEM, algos)
        kinds = {e.kind for e in result.timeline.events}
        assert kinds == {EventKind.FORWARD}

    def test_no_transfers(self, linear_cnn):
        algos = AlgoConfig.memory_optimal(linear_cnn)
        result = simulate_inference(linear_cnn, PAPER_SYSTEM, algos)
        assert result.offload_bytes == 0
        assert result.pinned_peak_bytes == 0

    def test_pool_drains_to_weights(self, linear_cnn):
        algos = AlgoConfig.memory_optimal(linear_cnn)
        result = simulate_inference(linear_cnn, PAPER_SYSTEM, algos)
        final = result.usage.curve()[-1][1]
        weights = sum(n.weight_bytes for n in linear_cnn
                      if n.is_feature_extraction)
        assert weights <= final < weights + 4096 * len(linear_cnn.nodes)

    def test_very_deep_network_inference_fits(self):
        """Even VGG-416 runs inference within 12 GB layer-wise."""
        net = build("vgg416", 32)
        algos = AlgoConfig.memory_optimal(net)
        result = simulate_inference(net, PAPER_SYSTEM, algos)
        assert result.trainable  # here: "runnable"


def _assert_walk_peak_is_plan_peak(network, algo):
    """The inference walk's pool peak is the compiled plan's forward
    peak plus the feature-extraction weights.

    Exact at byte granularity; at the default 256-byte granule the pool
    reserves a little more than each request, never less.
    """
    algos = AlgoConfig.named(network, algo)
    plan = compiled_plan(network, PAPER_SYSTEM, algos)
    expected = plan.forward_peak_bytes + sum(
        weights.nbytes for weights in plan.persistent)
    with mock.patch.object(pool_module, "ALIGNMENT", 1):
        exact = simulate_inference(network, PAPER_SYSTEM, algos)
    assert exact.managed_max_bytes == expected
    granular = simulate_inference(network, PAPER_SYSTEM, algos)
    assert granular.managed_max_bytes >= expected


class TestForwardPeak:
    @pytest.mark.parametrize("algo", ["m", "p"])
    @pytest.mark.parametrize("name", available())
    def test_zoo(self, name, algo):
        for batch in (1, 8):
            _assert_walk_peak_is_plan_peak(build(name, batch), algo)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(network=random_linear_network())
    def test_random_linear(self, network):
        for algo in ("m", "p"):
            _assert_walk_peak_is_plan_peak(network, algo)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(network=random_dag_network())
    def test_random_dag(self, network):
        for algo in ("m", "p"):
            _assert_walk_peak_is_plan_peak(network, algo)


class TestReleaseOrder:
    """A join that releases a dead input and an input needed backward
    frees them in input order, not candidates-first."""

    @staticmethod
    def _network():
        b = NetworkBuilder("mixed-release", (2, 3, 8, 8))
        b.conv(4, kernel=3, pad=1, name="stem")
        fork = b.tap()
        # Read only by the join: dead once the join has run.
        b.conv(4, kernel=1, name="dead", after=fork)
        left = b.tap()
        # The in-place ReLU's backward reads this Y: needed backward.
        b.conv(8, kernel=1, name="kept", after=fork).relu(name="kept_relu")
        right = b.tap()
        b.concat([left, right], name="join")
        b.fc(10, name="fc").softmax(name="softmax")
        return b.build()

    def test_plan_and_walk_free_in_input_order(self):
        network = self._network()
        algos = AlgoConfig.memory_optimal(network)
        plan = compiled_plan(network, PAPER_SYSTEM, algos)
        join = next(step for step in plan.forward if step.name == "join")
        assert [rec.name for rec in join.releases] == ["dead", "kept"]
        assert [rec.info.needed_backward for rec in join.releases] == \
            [False, True]
        dead, kept = (rec.nbytes for rec in join.releases)
        assert dead != kept

        with mock.patch.object(pool_module, "ALIGNMENT", 1):
            result = simulate_inference(network, PAPER_SYSTEM, algos)
        live = [nbytes for _time, nbytes in result.usage.curve()]
        steps = list(zip(live, live[1:], live[2:]))

        def frees(first, second):
            return any(a - b == first and b - c == second
                       for a, b, c in steps)

        assert frees(dead, kept) and not frees(kept, dead)


class TestTraceExport:
    def test_events_reference_all_streams(self, linear_cnn):
        result = evaluate(linear_cnn, policy="all", algo="m")
        events = timeline_to_trace_events(result.timeline, result.usage)
        names = {e["args"]["name"] for e in events if e["ph"] == "M"
                 and e["name"] == "thread_name"}
        assert names == {"stream_compute", "stream_memory"}

    def test_durations_in_microseconds(self, linear_cnn):
        result = evaluate(linear_cnn, policy="all", algo="m")
        events = timeline_to_trace_events(result.timeline)
        spans = [e for e in events if e["ph"] == "X"]
        assert spans
        for span in spans:
            assert span["dur"] >= 0
            assert span["cat"] in ("compute", "transfer", "stall")

    def test_counter_events_from_usage(self, linear_cnn):
        result = evaluate(linear_cnn, policy="all", algo="m")
        events = timeline_to_trace_events(result.timeline, result.usage)
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == len(result.usage.samples)

    def test_save_trace_roundtrip(self, linear_cnn, tmp_path):
        result = evaluate(linear_cnn, policy="all", algo="m")
        path = tmp_path / "trace.json"
        save_trace(str(path), result.timeline, result.usage)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) > 10

    def test_transfer_category_on_offloads(self, linear_cnn):
        result = evaluate(linear_cnn, policy="all", algo="m")
        events = timeline_to_trace_events(result.timeline)
        offloads = [e for e in events
                    if e["ph"] == "X" and e["name"].startswith("OFF")]
        assert offloads
        assert all(e["cat"] == "transfer" for e in offloads)
