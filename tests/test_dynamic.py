"""Tests for the vDNN_dyn profiling-pass planner."""

import pytest

from repro.core import (
    AlgoConfig,
    PolicyKind,
    TransferPolicy,
    UntrainableError,
    plan_dynamic,
    simulate_dynamic,
)
from repro.hw import PAPER_SYSTEM

from conftest import make_deep_cnn, make_linear_cnn


class TestPassSelection:
    def test_plenty_of_memory_picks_no_offload_fastest(self, deep_cnn):
        plan = plan_dynamic(deep_cnn, PAPER_SYSTEM)
        assert plan.policy.kind is PolicyKind.NONE
        assert plan.algos.label == "p"
        # Only two probes were needed: feasibility + best-performance.
        assert len(plan.passes) == 2

    def test_pass1_always_runs_first(self, deep_cnn):
        plan = plan_dynamic(deep_cnn, PAPER_SYSTEM)
        assert "pass1" in plan.passes[0].description
        assert plan.passes[0].policy.kind is PolicyKind.ALL

    def test_tight_memory_falls_back_to_offloading(self):
        net = make_deep_cnn(depth=8, batch=8, size=32)
        # Find a budget between the all(m) peak and the none(p) peak.
        from repro.core import simulate_vdnn
        floor = simulate_vdnn(net, PAPER_SYSTEM, TransferPolicy.vdnn_all(),
                              AlgoConfig.memory_optimal(net)).max_usage_bytes
        ceiling = simulate_vdnn(net, PAPER_SYSTEM, TransferPolicy.none(),
                                AlgoConfig.performance_optimal(net)).max_usage_bytes
        assert floor < ceiling
        system = PAPER_SYSTEM.with_gpu_memory((floor + ceiling) // 2)
        plan = plan_dynamic(net, system)
        assert plan.result.trainable
        assert plan.policy.kind is not PolicyKind.NONE or plan.algos.label != "p"

    def test_untrainable_raises(self, deep_cnn):
        tiny = PAPER_SYSTEM.with_gpu_memory(1 << 12)
        with pytest.raises(UntrainableError):
            plan_dynamic(deep_cnn, tiny)

    def test_adopted_result_is_trainable(self, linear_cnn):
        plan = plan_dynamic(linear_cnn, PAPER_SYSTEM)
        assert plan.result.trainable

    def test_probe_history_records_failures(self):
        net = make_deep_cnn(depth=8, batch=8, size=32)
        from repro.core import simulate_vdnn
        floor = simulate_vdnn(net, PAPER_SYSTEM, TransferPolicy.vdnn_all(),
                              AlgoConfig.memory_optimal(net)).max_usage_bytes
        system = PAPER_SYSTEM.with_gpu_memory(int(floor * 1.05))
        plan = plan_dynamic(net, system)
        assert any(not p.trainable for p in plan.passes)
        assert plan.result.trainable


class TestGreedyDowngrade:
    def test_downgrade_reduces_workspace(self, deep_cnn):
        algos = AlgoConfig.performance_optimal(deep_cnn)
        target = max(algos.profiles, key=lambda i: algos.profiles[i].workspace_bytes)
        before = algos.profiles[target].workspace_bytes
        assert before > 0
        assert algos.downgrade(deep_cnn, target)
        assert algos.profiles[target].workspace_bytes < before
        # The downgrade pass owns the label; one step leaves it alone.
        assert algos.label == "p"

    def test_downgrade_stops_at_zero_workspace(self, deep_cnn):
        algos = AlgoConfig.memory_optimal(deep_cnn)
        conv = deep_cnn.conv_layers[0].index
        assert not algos.downgrade(deep_cnn, conv)

    def test_downgrade_rejects_non_conv(self, deep_cnn):
        algos = AlgoConfig.performance_optimal(deep_cnn)
        with pytest.raises(ValueError):
            algos.downgrade(deep_cnn, deep_cnn.node("fc").index)


class TestSimulateDynamic:
    def test_relabels_result(self, linear_cnn):
        result = simulate_dynamic(linear_cnn, PAPER_SYSTEM)
        assert result.policy_label == "vDNN_dyn"
        assert result.trainable


class TestAlgoConfig:
    def test_memory_optimal_has_zero_workspace(self, deep_cnn):
        algos = AlgoConfig.memory_optimal(deep_cnn)
        assert algos.max_workspace_bytes() == 0
        assert algos.total_workspace_bytes() == 0

    def test_performance_optimal_covers_every_conv(self, deep_cnn):
        algos = AlgoConfig.performance_optimal(deep_cnn)
        assert set(algos.profiles) == {n.index for n in deep_cnn.conv_layers}

    def test_workspace_limit_respected(self, deep_cnn):
        algos = AlgoConfig.performance_optimal(deep_cnn, workspace_limit=0)
        assert algos.max_workspace_bytes() == 0

    def test_copy_is_independent(self, deep_cnn):
        algos = AlgoConfig.performance_optimal(deep_cnn)
        clone = algos.copy()
        target = deep_cnn.conv_layers[0].index
        clone.downgrade(deep_cnn, target)
        assert algos.profiles[target].workspace_bytes >= \
            clone.profiles[target].workspace_bytes
