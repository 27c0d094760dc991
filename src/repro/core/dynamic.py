"""vDNN_dyn: the dynamic memory-transfer / algorithm selection policy.

Section III-C: because training repeats one identical iteration millions
of times, vDNN can afford a short profiling stage that *tries*
configurations in decreasing order of performance and adopts the first
one that is trainable:

1. ``vDNN_all`` with memory-optimal algorithms — the feasibility probe.
   If even this does not fit, the network is untrainable, full stop.
2. No offloading + performance-optimal algorithms (the best possible
   configuration).  If it fits, use it for the whole training run.
   Otherwise try the same fastest algorithms with ``vDNN_conv`` and then
   ``vDNN_all`` offloading.
3. A greedy pass that starts from the fastest algorithms and locally
   downgrades individual layers to less workspace-hungry algorithms
   until the configuration fits, tried first with ``vDNN_conv`` then
   with ``vDNN_all``.
4. Fallback: ``vDNN_all`` with memory-optimal algorithms (known to fit
   from step 1).

Each probe here is one run of the iteration simulator — the analogue of
the paper's single profiled training pass.

The joint ladder (:mod:`repro.core.joint`) runs in the same frame: the
downgrade pass, probe recorder and adopted-plan run path below serve
both ladders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, FrozenSet, List, Optional, Tuple

from ..faults import FaultSpec
from ..graph.network import Network
from ..hw.config import SystemConfig
from ..obs import Instrumentation
from ..perf.cache import cache_enabled, get_cache
from .algo_config import AlgoConfig
from .cached import adopted_key, cached_vdnn
from .executor import IterationResult, simulate_vdnn
from .policy import TransferPolicy

#: Policies whose configuration a profiling ladder adopts.
PLANNED_POLICIES = ("dyn", "joint")

#: Probe cap of one greedy algorithm-downgrade pass.
MAX_DOWNGRADE_PROBES = 64


class UntrainableError(RuntimeError):
    """Even vDNN_all with memory-optimal algorithms does not fit."""


@dataclass
class ProfilingPass:
    """Record of one configuration probe."""

    description: str
    policy: TransferPolicy
    algo_label: str
    trainable: bool
    max_usage_bytes: int
    feature_extraction_time: float


@dataclass
class DynamicPlan:
    """The configuration vDNN_dyn settles on, plus its probe history."""

    policy: TransferPolicy
    algos: AlgoConfig
    result: IterationResult
    passes: List[ProfilingPass] = field(default_factory=list)

    label: ClassVar[str] = "vDNN_dyn"

    @property
    def description(self) -> str:
        return f"{self.policy.describe()} + algos[{self.algos.label}]"

    def walk(self, network: Network, system: SystemConfig,
             **options) -> IterationResult:
        """Simulate the adopted configuration afresh."""
        return simulate_vdnn(network, system, self.policy, self.algos,
                             **options)


def lower(config) -> Tuple[TransferPolicy, FrozenSet[int]]:
    """A dyn (transfer policy) or joint ladder configuration as the
    walk takes it: ``(policy, drop triggers)``."""
    if isinstance(config, TransferPolicy):
        return config, frozenset()
    return config.policy(), config.drop


def probe_recorder(
    simulate: Callable[[object, AlgoConfig], IterationResult],
) -> Tuple[Callable, List[ProfilingPass]]:
    """``(probe, passes)``: a ladder probe that runs ``simulate(config,
    algos)`` and appends a :class:`ProfilingPass` per call."""
    passes: List[ProfilingPass] = []

    def probe(config, algos: AlgoConfig,
              description: str) -> IterationResult:
        result = simulate(config, algos)
        passes.append(ProfilingPass(
            description=description,
            policy=lower(config)[0],
            algo_label=algos.label,
            trainable=result.trainable,
            max_usage_bytes=result.max_usage_bytes,
            feature_extraction_time=result.feature_extraction_time,
        ))
        return result

    return probe, passes


def _greedy_downgrade(
    network: Network,
    config,
    probe,
    label: str,
    stage: str,
) -> Optional[Tuple[AlgoConfig, object]]:
    """Greedy per-layer algorithm downgrades under one configuration.

    The paper walks layers in order and downgrades any whose fastest
    algorithm would overflow the budget; with a simulator per probe we
    can be slightly smarter and always downgrade the layer contributing
    the largest live workspace, which reaches the same fixed points.
    Serves dyn pass 3 and joint pass 5; the pass owns the label its
    algorithm mix carries (``"dyn"`` or ``"joint"``).
    """
    algos = AlgoConfig.performance_optimal(network)
    algos.label = label
    for probe_index in range(MAX_DOWNGRADE_PROBES):
        result = probe(config, algos, f"{stage} probe {probe_index}")
        if result.trainable:
            return algos, result
        # Downgrade the layer with the largest current workspace.
        hungriest = sorted(
            algos.profiles,
            key=lambda index: algos.profiles[index].workspace_bytes,
            reverse=True,
        )
        if not any(algos.downgrade(network, index) for index in hungriest):
            return None  # everything is already at implicit GEMM
    return None


def run_profiling_ladder(
    network: Network,
    probe,
    budget_bytes: int,
) -> Tuple[TransferPolicy, AlgoConfig, object]:
    """The vDNN_dyn ladder, abstracted over how configurations are tried.

    ``probe(policy, algos, description)`` evaluates one configuration
    and returns an object with ``trainable`` and ``max_usage_bytes``
    attributes.  :func:`plan_dynamic` probes by *simulating* (via the
    result cache); the static verifier probes by *interpreting* the
    compiled plan, replaying the identical probe sequence without a
    single simulation — both walk this one ladder, so their adopted
    configurations can never drift apart.

    Returns the adopted ``(policy, algos, probe_result)``; raises
    :class:`UntrainableError` when the pass-1 feasibility probe fails.
    """
    memory_optimal = AlgoConfig.memory_optimal(network)
    performance_optimal = AlgoConfig.performance_optimal(network)

    # Pass 1: trainability probe — vDNN_all, memory-optimal.
    feasibility = probe(
        TransferPolicy.vdnn_all(), memory_optimal,
        "pass1: vDNN_all(m) feasibility",
    )
    if not feasibility.trainable:
        raise UntrainableError(
            f"{network.name}: even vDNN_all with memory-optimal algorithms "
            f"needs {feasibility.max_usage_bytes} bytes "
            f"(> {budget_bytes})"
        )

    # Pass 2: fastest algorithms, no offloading at all.
    best = probe(
        TransferPolicy.none(), performance_optimal, "pass2: no-offload(p)"
    )
    if best.trainable:
        return TransferPolicy.none(), performance_optimal, best

    # Pass 2b: fastest algorithms with static offloading.
    for policy in (TransferPolicy.vdnn_conv(), TransferPolicy.vdnn_all()):
        result = probe(
            policy, performance_optimal, f"pass2b: {policy.describe()}(p)"
        )
        if result.trainable:
            return policy, performance_optimal, result

    # Pass 3: greedy per-layer algorithm downgrades.
    for policy in (TransferPolicy.vdnn_conv(), TransferPolicy.vdnn_all()):
        greedy = _greedy_downgrade(network, policy, probe, "dyn",
                                   f"greedy[{policy.describe()}]")
        if greedy is not None:
            return (policy, *greedy)

    # Fallback: the known-feasible configuration from pass 1.
    return TransferPolicy.vdnn_all(), memory_optimal, feasibility


def plan_dynamic(
    network: Network,
    system: SystemConfig,
    use_cache: Optional[bool] = None,
) -> DynamicPlan:
    """Run the vDNN_dyn profiling passes and return the adopted plan."""
    probe, passes = probe_recorder(
        lambda policy, algos: cached_vdnn(network, system, policy, algos,
                                          use_cache=use_cache))
    policy, algos, result = run_profiling_ladder(
        network, probe, system.gpu.memory_bytes)
    return DynamicPlan(policy, algos, result, passes)


def plan_policy(
    network: Network,
    system: SystemConfig,
    policy: str,
    use_cache: Optional[bool] = None,
):
    """The adopted plan of a planned policy (``"dyn"`` or ``"joint"``)."""
    if policy == "dyn":
        return plan_dynamic(network, system, use_cache=use_cache)
    from .joint import plan_joint

    return plan_joint(network, system, use_cache=use_cache)


def run_adopted(
    network: Network,
    system: SystemConfig,
    policy: str,
    use_cache: Optional[bool] = None,
    verify: bool = False,
    faults: Optional[FaultSpec] = None,
    fault_seed: int = 0,
    obs: Optional[Instrumentation] = None,
) -> IterationResult:
    """A planned policy's adopted result, labeled ``vDNN_dyn`` or
    ``vDNN_joint`` plus the adopted algorithms' label.

    A plain run is cached under the policy's adopted point, so a warm
    ``evaluate(..., policy="dyn")`` skips the ladder; a verified,
    faulted or instrumented one walks the adopted configuration afresh.
    """
    fresh = verify or faults is not None or obs is not None
    enabled = not fresh and cache_enabled(use_cache)
    key = adopted_key(network, system, policy) if enabled else None
    if enabled:
        cached = get_cache().get(key)
        if cached is not None:
            return cached
    plan = plan_policy(network, system, policy, use_cache=use_cache)
    result = plan.walk(network, system, verify=verify, faults=faults,
                       fault_seed=fault_seed, obs=obs) \
        if fresh else plan.result
    result.policy_label = plan.label
    result.algo_label = plan.algos.label
    if enabled:
        get_cache().put(key, result)
    return result


def simulate_dynamic(
    network: Network,
    system: SystemConfig,
    use_cache: Optional[bool] = None,
) -> IterationResult:
    """Convenience: run vDNN_dyn and relabel the adopted result."""
    return run_adopted(network, system, "dyn", use_cache)
