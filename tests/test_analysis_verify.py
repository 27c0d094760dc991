"""End-to-end sanitizer runs over real executor and scheduler output.

The clean half of the contract: every schedule the executor actually
produces must verify with zero findings.  The mutation half: breaking
one safety mechanism (a sync point, the Fig. 10 window bound) must make
the verifier flag the mutant while the untouched schedule stays clean.
"""

import pytest
from conftest import make_fork_join_cnn, make_linear_cnn

from repro.analysis.hb import check_races
from repro.analysis.trace import OpKind
from repro.analysis.diagnostics import Report
from repro.analysis.verify import (analyze_trace, verify_point,
                                   verify_result, verify_schedule,
                                   verify_zoo)
from repro.core.algo_config import AlgoConfig
from repro.core.executor import simulate_baseline, simulate_vdnn
from repro.core.policy import TransferPolicy
from repro.sched.job import Job
from repro.sched.scheduler import schedule_jobs


def traced_vdnn(network, system, **kwargs):
    return simulate_vdnn(
        network, system, TransferPolicy.vdnn_all(),
        AlgoConfig.performance_optimal(network), verify=True, **kwargs)


class TestCleanSchedules:
    @pytest.mark.parametrize("policy", ["base", "conv", "all", "dyn"])
    def test_linear_network_verifies_clean(self, system, policy):
        report = verify_point(make_linear_cnn(), policy, "p", system)
        assert report.ok and not report.warnings, report.render_text()

    @pytest.mark.parametrize("policy", ["base", "conv", "all", "dyn"])
    def test_fork_join_network_verifies_clean(self, system, policy):
        report = verify_point(make_fork_join_cnn(), policy, "m", system)
        assert report.ok and not report.warnings, report.render_text()

    def test_untraced_result_is_rejected(self, system, linear_cnn):
        result = simulate_vdnn(linear_cnn, system, TransferPolicy.vdnn_all(),
                               AlgoConfig.performance_optimal(linear_cnn))
        assert result.schedule_trace is None
        with pytest.raises(ValueError, match="no schedule trace"):
            verify_result(result, linear_cnn)

    def test_tracing_does_not_perturb_the_simulation(self, system,
                                                     linear_cnn):
        algos = AlgoConfig.performance_optimal(linear_cnn)
        plain = simulate_vdnn(linear_cnn, system,
                              TransferPolicy.vdnn_all(), algos)
        traced = simulate_vdnn(linear_cnn, system,
                               TransferPolicy.vdnn_all(), algos, verify=True)
        # The timeline gains zero-duration SYNC markers; every simulated
        # quantity must be bit-identical.
        assert traced.total_time == plain.total_time
        assert traced.managed_max_bytes == plain.managed_max_bytes
        assert traced.managed_avg_bytes == plain.managed_avg_bytes
        assert traced.compute_stall_seconds == plain.compute_stall_seconds
        assert traced.offload_bytes == plain.offload_bytes
        assert traced.prefetch_bytes == plain.prefetch_bytes
        assert traced.usage.samples == plain.usage.samples

    def test_baseline_trace_covers_whole_iteration(self, system, linear_cnn):
        result = simulate_baseline(
            linear_cnn, system, AlgoConfig.memory_optimal(linear_cnn),
            verify=True)
        trace = result.schedule_trace
        kernels = trace.of_kind(OpKind.KERNEL)
        # forward + backward kernel per non-input layer
        assert len(kernels) == 2 * (len(linear_cnn) - 1)
        assert verify_result(result, linear_cnn).ok


class TestMutations:
    def test_dropping_offload_sync_flags_hb002(self, system, deep_cnn):
        result = traced_vdnn(deep_cnn, system, sync_after_offload=False)
        report = verify_result(result, deep_cnn, subject="nosync")
        assert any(d.rule == "HB002" for d in report.errors)

    def test_unbounded_prefetch_window_flags_hb004(self, system, deep_cnn):
        result = traced_vdnn(deep_cnn, system,
                             bounded_prefetch_window=False)
        report = verify_result(result, deep_cnn, subject="unbounded")
        # A window violation is a WARNING: eager restore wastes memory
        # but corrupts nothing, exactly Fig. 10's distinction.
        assert report.ok
        assert any(d.rule == "HB004" for d in report.warnings)

    def test_bounded_window_has_no_hb004(self, system, deep_cnn):
        result = traced_vdnn(deep_cnn, system)
        report = verify_result(result, deep_cnn)
        assert not report.by_rule("HB004")

    def test_surgically_removing_one_sync_flags_the_mutant(self, system,
                                                           deep_cnn):
        result = traced_vdnn(deep_cnn, system)
        clean = result.schedule_trace
        assert check_races(clean) == []
        sync_seq = next(op.seq for op in clean.of_kind(OpKind.SYNC)
                        if "offload-sync" in op.label)
        mutant = clean.without(sync_seq)
        findings = check_races(mutant)
        assert any(d.rule in ("HB001", "HB002") for d in findings)

    def test_untouched_trace_stays_clean(self, system, deep_cnn):
        result = traced_vdnn(deep_cnn, system)
        report = analyze_trace(result.schedule_trace, network=deep_cnn,
                               subject="untouched")
        assert report.ok and not report.warnings


class TestZooSweep:
    """The grid row (network, batch) is the sweep's task unit."""

    NAMES = ["alexnet", "rnn"]
    POINTS = (("base", "m"), ("all", "p"), ("dyn", "-"))

    def subjects(self, reports):
        return [r.subject.split(" (", 1)[0] for r in reports]

    def test_one_build_per_row_in_grid_order(self, monkeypatch):
        import repro.zoo as zoo

        built = []
        real_build = zoo.build

        def counting_build(name, batch=None):
            built.append(name)
            return real_build(name, batch)

        monkeypatch.setattr(zoo, "build", counting_build)
        reports = verify_zoo(names=self.NAMES, batch=8, policies=self.POINTS)
        assert built == self.NAMES
        assert self.subjects(reports) == [
            "AlexNet(8) base(m)", "AlexNet(8) all(p)", "AlexNet(8) dyn",
            "RNN-T16(8) base(m)", "RNN-T16(8) all(p)", "RNN-T16(8) dyn"]
        assert all(r.ok for r in reports)

    def test_pooled_rows_match_serial(self):
        serial = verify_zoo(names=self.NAMES, batch=8, policies=self.POINTS)
        pooled = verify_zoo(names=self.NAMES, batch=8, policies=self.POINTS,
                            jobs=2)
        assert [r.to_dict() for r in pooled] == \
            [r.to_dict() for r in serial]

    def test_pool_takes_longest_rows_first(self, monkeypatch):
        import repro.analysis.verify as verify

        dispatched = []

        class InlinePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, rows):
                dispatched.extend(name for name, _batch, _points in rows)
                return [fn(row) for row in rows]

        monkeypatch.setattr(verify, "ProcessPoolExecutor", InlinePool)
        names = ["alexnet", "resnet18", "rnn", "vgg16"]
        reports = verify_zoo(names=names, batch=8,
                             policies=(("base", "m"),), jobs=2)
        # 81, 70, 46 and 24 layers.
        assert dispatched == ["rnn", "resnet18", "vgg16", "alexnet"]
        assert self.subjects(reports) == [
            "AlexNet(8) base(m)", "ResNet-18(8) base(m)",
            "RNN-T16(8) base(m)", "VGG-16(8) base(m)"]

    def test_hybrid_reverifies_only_static_dirty_points(self, monkeypatch):
        import repro.analysis.static_plan as static_plan
        import repro.analysis.verify as verify

        dirty = {("alexnet", "all"), ("rnn", "base"), ("rnn", "dyn")}

        def fake_static(names, batch, policies):
            reports = []
            for name in names:
                for policy, _algo in policies:
                    report = Report(subject=f"{name} {policy} [static]")
                    if (name, policy) in dirty:
                        report.add("SP402", "synthetic static failure")
                    reports.append(report)
            return reports

        simulated = []
        real_point = verify.verify_point

        def counting_point(network, policy, algo):
            simulated.append((network.name, policy))
            return real_point(network, policy=policy, algo=algo)

        monkeypatch.setattr(static_plan, "verify_zoo_static", fake_static)
        monkeypatch.setattr(verify, "verify_point", counting_point)
        reports = verify_zoo(names=self.NAMES, batch=8, policies=self.POINTS,
                             mode="hybrid")
        assert simulated == [("AlexNet(8)", "all"), ("RNN-T16(8)", "base"),
                             ("RNN-T16(8)", "dyn")]
        assert self.subjects(reports) == [
            "alexnet base [static]", "AlexNet(8) all(p)",
            "alexnet dyn [static]", "RNN-T16(8) base(m)",
            "rnn all [static]", "RNN-T16(8) dyn"]


class TestMultiTenant:
    def make_result(self):
        jobs = [Job(name=f"j{i}", network="alexnet", iterations=5,
                    submit_time=0.0) for i in range(3)]
        return schedule_jobs(jobs)

    def test_clean_schedule_verifies(self):
        report = verify_schedule(self.make_result())
        assert report.ok, report.render_text()

    def test_leaked_pool_bytes_fire_mt303(self):
        result = self.make_result()
        result.final_pool_live_bytes = 4096
        assert verify_schedule(result).by_rule("MT303")

    def test_budget_excess_fires_mt301(self):
        result = self.make_result()
        # Shrink after the fact: the budget step function is the
        # sanitizer's source of truth.
        result.budget_bytes = 1
        result.budget_timeline = [(0.0, 1)]
        report = verify_schedule(result)
        assert report.by_rule("MT301")

    def test_budget_step_function_judges_each_instant(self):
        result = self.make_result()
        # A shrink timed *after* the last event legalises everything
        # that ran before it; the sanitizer must not apply it
        # retroactively.
        last = max(e.end for e in result.timeline.events)
        result.budget_bytes = 1
        result.budget_timeline = [(0.0, result.peak_pool_bytes),
                                  (last + 1.0, 1)]
        assert verify_schedule(result).ok

    def test_finish_before_admit_fires_mt304(self):
        result = self.make_result()
        record = result.finished[0]
        record.finish_time = record.admit_time - 1.0
        assert verify_schedule(result).by_rule("MT304")

    def test_overlapping_residency_fires_mt302(self):
        result = self.make_result()
        record = result.finished[0]
        (start, end, tenants) = record.residency[0]
        record.residency.append((start, end, tenants))  # duplicate interval
        assert verify_schedule(result).by_rule("MT302")
