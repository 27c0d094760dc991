"""Differential & mutation wall for compressed DMA and the joint planner.

Layers of pinning, mirroring the repo's existing walls:

* **Bit-neutral instrumentation** — a ``comp`` or ``joint`` run with an
  :class:`repro.obs.Instrumentation` attached is byte-identical to the
  same run without one.
* **Sanitizer-clean** — every joint schedule (mixed offload + compress
  + drop) replays clean through the race and memory-safety passes, and
  recording the trace does not perturb the simulation.
* **Static/dynamic parity** — the static joint ladder adopts the exact
  configuration the simulating ladder adopts, and the abstract walk's
  accounting matches the simulator bit-for-bit on every metric the
  planner decides by.
* **Random-graph parity** — on random linear and DAG networks under
  random decision vectors, algorithms and budgets, the simulator and
  the abstract walk agree on the verdict and on every byte count, and
  neither verifier reports an error.
* **Config validation** — a config that drops a trigger whose
  candidates cannot be recomputed (the INPUT batch's consumer) is
  rejected with a typed error instead of "rematerializing" garbage,
  and so is a config that gives one trigger two actions.
* **Mutations** — surgically corrupting a known-good artifact (drop a
  rematerialization ALLOC from a traced schedule, overstate a record's
  compression ratio) makes the matching verifier rule fire; the wall
  proves the checkers can actually lose.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.diagnostics import Report
from repro.analysis.safety import check_memory_safety
from repro.analysis.static_plan import (
    audit_compression,
    interpret_joint_plan,
    plan_joint_static,
    verify_joint_plan,
)
from repro.analysis.trace import OpKind
from repro.analysis.verify import verify_point, verify_result
from repro.core import AlgoConfig, TransferPolicy, UntrainableError, \
    evaluate
from repro.core.joint import JointConfig, UndroppableTriggerError, \
    plan_joint, simulate_joint_config
from repro.core.plan import compiled_plan
from repro.graph.layer import LayerKind
from repro.hw import PAPER_SYSTEM
from repro.obs import Instrumentation
from repro.zoo import build

from test_properties import random_dag_network, random_linear_network

GB = 1 << 30

#: Budget-constrained points where the adopted joint plan genuinely
#: mixes strategies (offload + compress + drop), per the frontier bench.
MIXED_POINTS = (("googlenet", 128, 2.0), ("googlenet", 128, 2.6),
                ("resnet50", 32, 1.2))


#: Points whose ladders run the greedy algorithm-downgrade pass: the
#: dyn ladder's ``greedy[vDNN_conv]`` (23 and 10 probes) and joint
#: pass 5 (37 and 16 probes).
DOWNGRADE_POINTS = (("vgg16", 64, 3.8), ("overfeat", 128, 1.6))


def _system(budget_gb):
    return PAPER_SYSTEM.with_gpu_memory(int(budget_gb * GB))


def _assert_identical(plain, instrumented):
    assert instrumented == plain
    assert instrumented.timeline.events == plain.timeline.events
    assert instrumented.usage.curve() == plain.usage.curve()


# ----------------------------------------------------------------------
# Instrumentation is bit-neutral for the new policies
# ----------------------------------------------------------------------
class TestObsBitNeutral:
    @pytest.mark.parametrize("algo", ["m", "p"])
    def test_comp_policy_bit_neutral(self, algo):
        network = build("alexnet", 128)
        plain = evaluate(network, policy="comp", algo=algo,
                         use_cache=False)
        obs = Instrumentation()
        instrumented = evaluate(network, policy="comp", algo=algo,
                                use_cache=False, obs=obs)
        _assert_identical(plain, instrumented)
        assert len(obs.registry) > 0

    @pytest.mark.parametrize("name,batch,budget", MIXED_POINTS[:1])
    def test_joint_policy_bit_neutral(self, name, batch, budget):
        network = build(name, batch)
        system = _system(budget)
        plain = evaluate(network, system, policy="joint", use_cache=False)
        obs = Instrumentation()
        instrumented = evaluate(network, system, policy="joint",
                                use_cache=False, obs=obs)
        _assert_identical(plain, instrumented)
        assert len(obs.registry) > 0

    def test_mixed_config_bit_neutral(self):
        name, batch, budget = MIXED_POINTS[-1]
        network = build(name, batch)
        system = _system(budget)
        config = plan_joint(network, system, use_cache=False).config
        algos = AlgoConfig.performance_optimal(network)
        plain = simulate_joint_config(network, system, config, algos)
        obs = Instrumentation()
        instrumented = simulate_joint_config(network, system, config,
                                             algos, obs=obs)
        _assert_identical(plain, instrumented)


# ----------------------------------------------------------------------
# Every mixed schedule replays clean through the sanitizers
# ----------------------------------------------------------------------
class TestSanitizerClean:
    @pytest.mark.parametrize("name,batch,budget", MIXED_POINTS)
    def test_joint_schedule_verifies_clean(self, name, batch, budget):
        network = build(name, batch)
        system = _system(budget)
        plan = plan_joint(network, system, use_cache=False)
        result = simulate_joint_config(network, system, plan.config,
                                       plan.algos, verify=True)
        report = verify_result(result, network,
                               subject=f"{name} {plan.config.describe()}")
        assert report.ok, report.render_text()

    @pytest.mark.parametrize("name,batch,budget", MIXED_POINTS)
    def test_tracing_is_bit_neutral(self, name, batch, budget):
        """verify=True records the schedule without perturbing it."""
        network = build(name, batch)
        system = _system(budget)
        plan = plan_joint(network, system, use_cache=False)
        plain = simulate_joint_config(network, system, plan.config,
                                      plan.algos)
        traced = simulate_joint_config(network, system, plan.config,
                                       plan.algos, verify=True)
        assert traced.schedule_trace is not None
        assert traced.total_time == plain.total_time
        assert traced.managed_max_bytes == plain.managed_max_bytes
        assert traced.offload_bytes == plain.offload_bytes
        assert traced.prefetch_bytes == plain.prefetch_bytes
        assert traced.usage.samples == plain.usage.samples

    @pytest.mark.parametrize("name", ["alexnet", "googlenet"])
    def test_comp_point_verifies_clean(self, name):
        report = verify_point(build(name, 128), policy="comp", algo="p")
        assert report.ok, report.render_text()


# ----------------------------------------------------------------------
# Static/dynamic parity: one brain, two interpreters
# ----------------------------------------------------------------------
class TestStaticDynamicParity:
    @pytest.mark.parametrize("name,batch,budget", MIXED_POINTS
                             + (("alexnet", 64, 12.0),
                                ("vgg16", 64, 8.0))
                             + DOWNGRADE_POINTS)
    def test_ladders_adopt_identical_configs(self, name, batch, budget):
        network = build(name, batch)
        system = _system(budget)
        try:
            dynamic = plan_joint(network, system, use_cache=False)
        except UntrainableError:
            with pytest.raises(UntrainableError):
                plan_joint_static(network, system)
            return
        config, algos, passes = plan_joint_static(network, system)
        assert config == dynamic.config
        assert algos.label == dynamic.algos.label
        assert len(passes) == len(dynamic.passes)
        assert [p.description for p in passes] \
            == [p.description for p in dynamic.passes]
        assert [p.algo_label for p in passes] \
            == [p.algo_label for p in dynamic.passes]

    @pytest.mark.parametrize("name,batch,budget", DOWNGRADE_POINTS)
    def test_downgraded_algos_keep_the_joint_label(self, name, batch,
                                                   budget):
        """Pass 5 adopts downgraded algorithms labelled ``joint``."""
        network = build(name, batch)
        system = _system(budget)
        dynamic = plan_joint(network, system, use_cache=False)
        assert dynamic.passes[-1].description.startswith("pass5:")
        assert dynamic.algos.label == "joint"
        assert plan_joint_static(network, system)[1].label == "joint"
        result = evaluate(network, system, policy="joint", use_cache=False)
        assert result.label == "vDNN_joint(joint)"

    @pytest.mark.parametrize("name,batch,budget", MIXED_POINTS)
    def test_abstract_walk_matches_simulation_bitwise(self, name, batch,
                                                      budget):
        """Peak/offload/prefetch/pinned: interpreter == simulator."""
        network = build(name, batch)
        system = _system(budget)
        jplan = plan_joint(network, system, use_cache=False)
        result = simulate_joint_config(network, system, jplan.config,
                                       jplan.algos)
        plan = compiled_plan(network, system, jplan.algos)
        interp = interpret_joint_plan(network, system, plan, jplan.config)
        assert interp.peak_bytes == result.managed_max_bytes
        assert interp.offload_bytes == result.offload_bytes
        assert interp.prefetch_bytes == result.prefetch_bytes
        assert interp.pinned_peak_bytes == result.pinned_peak_bytes
        assert interp.trainable == result.trainable

    @pytest.mark.parametrize("name,batch,budget", MIXED_POINTS)
    def test_verify_joint_plan_is_clean(self, name, batch, budget):
        network = build(name, batch)
        system = _system(budget)
        jplan = plan_joint(network, system, use_cache=False)
        report = verify_joint_plan(network, system, jplan.config,
                                   jplan.algos)
        assert report.ok, report.render_text()
        assert not report.diagnostics


    @settings(max_examples=150, deadline=None)
    @given(network=st.one_of(random_linear_network(),
                             random_dag_network()),
           memory_optimal=st.booleans(), fraction=st.floats(0.3, 1.3),
           data=st.data())
    def test_random_graphs_static_equals_dynamic(self, network,
                                                 memory_optimal, fraction,
                                                 data):
        """Random keep/offload/comp/drop per trigger (drop only where
        the plan allows it) under a budget around the keep-all usage:
        the same verdict and byte counts on both sides, and neither the
        dynamic sanitizer nor the static verifier reports an error."""
        algos = AlgoConfig.memory_optimal(network) if memory_optimal \
            else AlgoConfig.performance_optimal(network)
        plan = compiled_plan(network, PAPER_SYSTEM, algos)
        keep_all = interpret_joint_plan(network, PAPER_SYSTEM, plan,
                                        JointConfig())
        system = PAPER_SYSTEM.with_gpu_memory(
            max(1, int(keep_all.max_usage_bytes * fraction)))
        triggers, droppable = _trigger_sets(network, algos)
        chosen = {"keep": set(), "offload": set(), "comp": set(),
                  "drop": set()}
        for trigger in sorted(triggers):
            actions = ("keep", "offload", "comp", "drop") \
                if trigger in droppable else ("keep", "offload", "comp")
            chosen[data.draw(st.sampled_from(actions))].add(trigger)
        config = JointConfig(offload=frozenset(chosen["offload"]),
                             compress=frozenset(chosen["comp"]),
                             drop=frozenset(chosen["drop"]))

        result = simulate_joint_config(network, system, config, algos,
                                       verify=True)
        interp = interpret_joint_plan(
            network, system, compiled_plan(network, system, algos), config)
        assert (interp.trainable, interp.peak_bytes, interp.offload_bytes,
                interp.prefetch_bytes, interp.pinned_peak_bytes) \
            == (result.trainable, result.managed_max_bytes,
                result.offload_bytes, result.prefetch_bytes,
                result.pinned_peak_bytes)
        dynamic = verify_result(result, network, subject="dynamic")
        assert dynamic.ok, dynamic.render_text()
        static = verify_joint_plan(network, system, config, algos)
        assert static.ok, static.render_text()


# ----------------------------------------------------------------------
# Mutations: prove the checkers can lose
# ----------------------------------------------------------------------
class TestMutations:
    def _traced_mixed_run(self):
        name, batch, budget = MIXED_POINTS[0]
        network = build(name, batch)
        system = _system(budget)
        plan = plan_joint(network, system, use_cache=False)
        assert plan.config.drop, "point must exercise rematerialization"
        result = simulate_joint_config(network, system, plan.config,
                                       plan.algos, verify=True)
        return result.schedule_trace

    def test_dropping_remat_alloc_fires_ms101_once(self):
        """Remove one rematerialization ALLOC: every backward read of
        that storage is now a use-after-release, flagged exactly once
        per buffer, and its now-unpaired release is a double free."""
        trace = self._traced_mixed_run()
        assert check_memory_safety(trace) == []
        remat = next(op for op in trace.of_kind(OpKind.ALLOC)
                     if "(re)" in op.label)
        mutant = trace.without(remat.seq)
        findings = check_memory_safety(mutant)
        rules = [d.rule for d in findings]
        assert rules.count("MS101") == 1
        mine = [d for d in findings if remat.buffer in d.message]
        assert any(d.rule == "MS101" for d in mine)

    def test_overstating_compression_fires_sp407(self):
        """A plan claiming a better wire ratio than the engine model
        would silently split static and simulated PCIe accounting —
        the audit catches the drift before anything runs."""
        network = build("alexnet", 128)
        algos = AlgoConfig.memory_optimal(network)
        plan = compiled_plan(network, PAPER_SYSTEM, algos)
        clean = Report(subject="clean")
        audit_compression(network, PAPER_SYSTEM, plan, clean)
        assert clean.ok and not clean.diagnostics
        rec = next(r for r in plan.records.values()
                   if r.nbytes > 1 and r.comp_nbytes < r.nbytes)
        rec.comp_nbytes //= 2
        tampered = Report(subject="tampered")
        audit_compression(network, PAPER_SYSTEM, plan, tampered)
        assert any(d.rule == "SP407" for d in tampered.diagnostics)

    def test_wire_size_escaping_bounds_fires_sp407(self):
        network = build("alexnet", 128)
        algos = AlgoConfig.memory_optimal(network)
        plan = compiled_plan(network, PAPER_SYSTEM, algos)
        rec = next(r for r in plan.records.values() if r.nbytes > 0)
        rec.comp_nbytes = rec.nbytes + 1  # "compression" that grows
        report = Report(subject="oversize")
        audit_compression(network, PAPER_SYSTEM, plan, report)
        assert any(d.rule == "SP407" for d in report.diagnostics)

    def test_infeasible_config_fires_sp401(self):
        """Keep-everything under a tight budget: the static walk must
        report the over-budget step instead of quietly passing."""
        name, batch, budget = MIXED_POINTS[0]
        network = build(name, batch)
        system = _system(budget)
        report = verify_joint_plan(
            network, system, JointConfig(),
            AlgoConfig.memory_optimal(network))
        assert any(d.rule == "SP401" for d in report.diagnostics)


# ----------------------------------------------------------------------
# Config validation: accepted => sound
# ----------------------------------------------------------------------
def _trigger_sets(network, algos):
    plan = compiled_plan(network, PAPER_SYSTEM, algos)
    triggers = plan.offload_indices(TransferPolicy.vdnn_all(), network)
    return triggers, plan.drop_triggers


class TestDropValidation:
    @pytest.mark.parametrize("first,second", [
        ("offload", "compress"), ("offload", "drop"), ("compress", "drop")])
    def test_overlapping_sets_are_rejected(self, first, second):
        """One trigger, two actions: the modeled cost would charge both
        while the walk runs only one, so the config is refused."""
        with pytest.raises(ValueError, match="disjoint"):
            JointConfig(**{first: frozenset({3, 5}),
                           second: frozenset({5})})

    def test_dropping_the_input_consumer_is_rejected(self):
        network = build("alexnet", 8)
        algos = AlgoConfig.performance_optimal(network)
        triggers, droppable = _trigger_sets(network, algos)
        input_consumer = [t for t in triggers - droppable
                          if any(network[p].kind is LayerKind.INPUT
                                 for p in network[t].producers)]
        assert input_consumer
        config = JointConfig(offload=triggers - set(input_consumer),
                             drop=frozenset(input_consumer))
        with pytest.raises(UndroppableTriggerError) as raised:
            simulate_joint_config(network, PAPER_SYSTEM, config, algos)
        assert isinstance(raised.value, ValueError)
        assert str(input_consumer[0]) in str(raised.value)

    def test_static_side_still_reports_sp405(self):
        """The typed error guards the simulator only; the static walk
        keeps reporting the same config as an SP405 finding."""
        network = build("alexnet", 8)
        algos = AlgoConfig.performance_optimal(network)
        triggers, droppable = _trigger_sets(network, algos)
        config = JointConfig(drop=frozenset(triggers - droppable))
        report = verify_joint_plan(network, PAPER_SYSTEM, config, algos)
        assert report.by_rule("SP405")

    @settings(max_examples=25, deadline=None)
    @given(network=st.one_of(random_linear_network(),
                             random_dag_network()),
           data=st.data())
    def test_random_drop_sets(self, network, data):
        """Drops inside the allowed set simulate; one undroppable
        trigger anywhere in the set is rejected."""
        algos = AlgoConfig.performance_optimal(network)
        triggers, droppable = _trigger_sets(network, algos)
        drop = frozenset(data.draw(st.sets(st.sampled_from(
            sorted(droppable)))) if droppable else ())
        result = simulate_joint_config(
            network, PAPER_SYSTEM, JointConfig(drop=drop), algos)
        assert result.trainable
        forbidden = sorted(triggers - droppable)
        if forbidden:
            bad = data.draw(st.sampled_from(forbidden))
            with pytest.raises(UndroppableTriggerError):
                simulate_joint_config(network, PAPER_SYSTEM,
                                      JointConfig(drop=drop | {bad}),
                                      algos)
