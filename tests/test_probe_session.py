"""Linear-time static ladders: the probe session and the O(L) compile.

Two equivalences pin the fast paths to the code they replace:

* **Probe session** — the static ladders walk their probes through one
  :class:`~repro.analysis.static_plan._ProbeSession` (early exit at the
  first over-budget allocation, resume from a forward snapshot).  They
  must adopt the identical config and algorithms, and record the
  identical ``(description, trainable)`` probe list, as the same
  ladders driven by full walks (:func:`interpret_plan` /
  :func:`interpret_joint_plan`); and any sequence of probes through one
  session must decide ``trainable`` exactly as a fresh full walk does.
* **Compile** — :class:`~repro.core.plan.CompiledPlan` buckets gradient
  allocations and releases by backward step in one pass; the per-step
  scan over every storage it replaced is kept here as the oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.static_plan import (
    _ProbeSession,
    interpret_joint_plan,
    interpret_plan,
    plan_dynamic_static,
    plan_joint_static,
)
from repro.core import AlgoConfig, LivenessAnalysis, TransferPolicy, \
    UntrainableError
from repro.core.dynamic import run_profiling_ladder
from repro.core.joint import JointConfig, run_joint_ladder
from repro.core.plan import compiled_plan
from repro.hw import PAPER_SYSTEM, SystemConfig
from repro.hw.host import HostSpec
from repro.zoo import available, build

from test_properties import random_dag_network, random_linear_network

any_network = st.one_of(random_linear_network(), random_dag_network())


# ----------------------------------------------------------------------
# Probe session vs full walks
# ----------------------------------------------------------------------
def _full_walk_ladder(network, system, joint):
    """A static ladder whose every probe is a fresh full walk."""
    passes = []
    interpret = interpret_joint_plan if joint else interpret_plan

    def probe(config, algos, description):
        plan = compiled_plan(network, system, algos)
        interp = interpret(network, system, plan, config,
                           subject=description)
        passes.append((description, interp.trainable))
        return interp

    if joint:
        config, algos, _ = run_joint_ladder(network, system, probe,
                                            system.gpu.memory_bytes)
    else:
        config, algos, _ = run_profiling_ladder(network, probe,
                                                system.gpu.memory_bytes)
    return config, algos.label, passes


def _session_ladder(network, system, joint):
    planner = plan_joint_static if joint else plan_dynamic_static
    config, algos, passes = planner(network, system)
    return config, algos.label, [(p.description, p.trainable)
                                 for p in passes]


def _assert_ladders_agree(network, system):
    for joint in (True, False):
        try:
            want = _full_walk_ladder(network, system, joint)
        except UntrainableError:
            with pytest.raises(UntrainableError):
                _session_ladder(network, system, joint)
            continue
        assert _session_ladder(network, system, joint) == want


@pytest.mark.parametrize("name", ["vgg216", "resnet152"])
def test_zoo_ladders_match_full_walks(name):
    """The two deep grid networks whose joint ladders run the most
    probes (83 and 311), at the paper's 12 GB."""
    _assert_ladders_agree(build(name), PAPER_SYSTEM)


@pytest.mark.parametrize("name,batch,budget_gb", [
    ("vgg216", 32, 4.0), ("resnet152", 32, 3.0), ("googlenet", 128, 2.0)])
def test_zoo_ladders_match_full_walks_at_tight_budgets(name, batch,
                                                      budget_gb):
    system = PAPER_SYSTEM.with_gpu_memory(int(budget_gb * (1 << 30)))
    _assert_ladders_agree(build(name, batch), system)


@pytest.mark.parametrize("name", ["vgg16", "lstm"])
def test_each_flip_kind_resumes_exactly(name):
    """Flip the deepest droppable trigger of a config to each other
    action and back.  Every flip resumes late in forward, and each kind
    changes a different decision set.  The first drop (a late one)
    also protects the input batch, which lstm frees early in forward
    by a dead release when nothing drops."""
    network = build(name, 8)
    algos = AlgoConfig.performance_optimal(network)
    plan = compiled_plan(network, PAPER_SYSTEM, algos)
    triggers = plan.offload_indices(TransferPolicy.vdnn_all(), network)
    first, last = min(plan.drop_triggers), max(plan.drop_triggers)
    rest = triggers - {first, last}
    dropped = frozenset({first})
    base = JointConfig(offload=rest | {last}, drop=dropped)
    flips = (JointConfig(offload=rest, compress=frozenset({last}),
                         drop=dropped),
             JointConfig(offload=rest, drop=dropped | {last}),
             JointConfig(offload=rest, drop=dropped))
    session = _ProbeSession(network, PAPER_SYSTEM)
    protecting = (JointConfig(offload=triggers),
                  JointConfig(offload=triggers - {last},
                              drop=frozenset({last})))
    for config in protecting + (base,) + sum(
            ((flip, base) for flip in flips), ()):
        fresh = interpret_joint_plan(network, PAPER_SYSTEM, plan, config,
                                     subject=config.describe())
        assert fresh.trainable
        assert session.probe(config, algos, config.describe()) == fresh


def _keep_all_usage(network):
    algos = AlgoConfig.performance_optimal(network)
    plan = compiled_plan(network, PAPER_SYSTEM, algos)
    return interpret_plan(network, PAPER_SYSTEM, plan,
                          TransferPolicy.none()).max_usage_bytes


@settings(max_examples=40, deadline=None)
@given(network=any_network, fraction=st.floats(0.3, 1.2))
def test_random_graph_ladders_match_full_walks(network, fraction):
    budget = max(1, int(_keep_all_usage(network) * fraction))
    _assert_ladders_agree(network, PAPER_SYSTEM.with_gpu_memory(budget))


def _random_config(draw, plan, network, joint):
    triggers = sorted(plan.offload_indices(TransferPolicy.vdnn_all(),
                                           network))
    actions = ("keep", "offload", "comp", "drop") if joint \
        else ("keep", "offload", "comp")
    chosen = {}
    for trigger in triggers:
        action = draw(st.sampled_from(actions))
        if action == "drop" and trigger not in plan.drop_triggers:
            action = "offload"
        chosen[trigger] = action
    return chosen


def _lower(chosen, joint):
    picked = {a: frozenset(t for t, b in chosen.items() if b == a)
              for a in ("offload", "comp", "drop")}
    if joint:
        return JointConfig(offload=picked["offload"],
                           compress=picked["comp"], drop=picked["drop"])
    return TransferPolicy.custom(picked["offload"] | picked["comp"],
                                 picked["comp"])


@settings(max_examples=60, deadline=None)
@given(network=any_network, joint=st.booleans(),
       fraction=st.floats(0.3, 1.2), pinned_fraction=st.floats(0.1, 1.5),
       data=st.data())
def test_resumed_probes_decide_like_fresh_walks(network, joint, fraction,
                                                pinned_fraction, data):
    """Random probe sequences through one session: mostly single-trigger
    flips (the resume path), with algorithm switches (a plan change)
    and fixed policies mixed in.  Pinned host memory is sized against
    the offloadable bytes, so some probes abort on it; a trainable
    probe must also match the full walk's byte accounting, which is
    where a flip between offload, compress and drop shows."""
    algo_choices = (AlgoConfig.performance_optimal(network),
                    AlgoConfig.memory_optimal(network))
    algos = algo_choices[0]
    plan = compiled_plan(network, PAPER_SYSTEM, algos)
    offloadable = sum(rec.nbytes for step in plan.forward
                      for rec in step.offload_candidates)
    budget = max(1, int(_keep_all_usage(network) * fraction))
    system = SystemConfig(
        gpu=PAPER_SYSTEM.with_gpu_memory(budget).gpu,
        host=HostSpec(memory_bytes=max(1, int(offloadable
                                              * pinned_fraction)),
                      max_pinned_fraction=1.0))
    interpret = interpret_joint_plan if joint else interpret_plan
    session = _ProbeSession(network, system)

    plan = compiled_plan(network, system, algos)
    chosen = _random_config(data.draw, plan, network, joint)
    for step in range(data.draw(st.integers(1, 12), label="probes")):
        move = data.draw(st.sampled_from(
            ("flip", "flip", "flip", "algos", "fixed")), label="move")
        if move == "algos":
            algos = data.draw(st.sampled_from(algo_choices))
        elif move == "flip" and chosen:
            trigger = data.draw(st.sampled_from(sorted(chosen)))
            actions = ["keep", "offload", "comp"]
            if joint and trigger in plan.drop_triggers:
                actions.append("drop")
            chosen[trigger] = data.draw(st.sampled_from(actions))
        config = _lower(chosen, joint)
        if move == "fixed" and not joint:
            config = data.draw(st.sampled_from((
                TransferPolicy.vdnn_all(), TransferPolicy.vdnn_conv(),
                TransferPolicy.vdnn_comp(), TransferPolicy.none())))
        fresh = interpret(network, system,
                          compiled_plan(network, system, algos), config)
        resumed = session.probe(config, algos, f"probe {step}")
        assert resumed.trainable == fresh.trainable
        if fresh.trainable:
            # A walk that never overflows is complete: same accounting.
            assert (resumed.peak_bytes, resumed.offload_bytes,
                    resumed.prefetch_bytes, resumed.pinned_peak_bytes) \
                == (fresh.peak_bytes, fresh.offload_bytes,
                    fresh.prefetch_bytes, fresh.pinned_peak_bytes)


# ----------------------------------------------------------------------
# O(L) compile vs the per-step scan it replaced
# ----------------------------------------------------------------------
def _reference_backward(network):
    """backward index -> (grad-alloc owners, releases), one full scan of
    every storage per backward step."""
    liveness = LivenessAnalysis(network)
    all_storages = liveness.all_storages()
    out = {}
    for index in network.backward_schedule():
        grads = tuple(s.owner for s in all_storages
                      if s.needs_gradient and s.gradient_alloc_at == index)
        releases = []
        for storage in all_storages:
            if storage.needed_backward \
                    and storage.backward_release_after == index:
                releases.append((storage.owner, False))
            if storage.needs_gradient \
                    and storage.gradient_release_after == index:
                releases.append((storage.owner, True))
        out[index] = (grads, tuple(releases))
    return out


def _assert_compile_matches(network):
    plan = compiled_plan(network, PAPER_SYSTEM,
                         AlgoConfig.performance_optimal(network))
    want = _reference_backward(network)
    assert [step.index for step in plan.backward] == list(want)
    for step in plan.backward:
        grads, releases = want[step.index]
        assert step.grad_allocs == tuple(plan.records[o] for o in grads)
        assert step.releases == releases


@pytest.mark.parametrize("name", available())
def test_compile_matches_reference_on_zoo(name):
    _assert_compile_matches(build(name))


@settings(max_examples=40, deadline=None)
@given(network=any_network)
def test_compile_matches_reference_on_random_graphs(network):
    _assert_compile_matches(network)
