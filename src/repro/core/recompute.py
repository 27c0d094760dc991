"""Gradient checkpointing (recomputation) — the offloading alternative.

The paper saves memory by *moving* feature maps across PCIe; the other
classic approach (Chen et al.'s sublinear-memory training, later
combined with offloading by SuperNeurons) saves memory by *dropping*
feature maps after forward propagation and recomputing them from sparse
checkpoints during backward propagation — trading an extra forward pass
for capacity instead of PCIe bandwidth.

A checkpoint plan is one more decision on the vDNN walk
(:class:`~repro.core.executor._VDNNSimulation`), not a second
simulator: :func:`simulate_recompute` hands the walk the plan's dropped
storages and its droppable order, so sqrt(L) checkpointing runs on the
same plan, pool and latency substrate as every offload policy and
`benchmarks/bench_ext_recompute.py` compares the two fairly: memory
floor, time overhead, and where each wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from ..graph.layer import LayerKind
from ..graph.network import Network
from ..hw.config import SystemConfig
from .algo_config import AlgoConfig
from .executor import IterationResult, _run_walk, _VDNNSimulation
from .liveness import LivenessAnalysis
from .plan import compiled_plan
from .policy import TransferPolicy


@dataclass(frozen=True)
class CheckpointPlan:
    """Which storages a recompute run keeps vs drops.

    A pure partition of the droppable feature-extraction storages —
    every droppable owner is a checkpoint or dropped, never both —
    plus the droppable order the segment walk-back follows.  Built by
    :func:`checkpoint_plan`; :func:`simulate_recompute` runs it on the
    vDNN walk (``dropped`` as its drop set, ``droppable_order`` as its
    segments), and :func:`repro.analysis.static_plan.verify_recompute_plan`
    audits it statically (SP405).
    """

    checkpoints: FrozenSet[int]
    dropped: FrozenSet[int]
    droppable_order: Tuple[int, ...]


def _droppable_order(network: Network,
                     liveness: LivenessAnalysis) -> List[int]:
    """Owners of the storages a plan may drop, ascending: needed
    backward, produced by a feature-extraction layer, not the INPUT
    batch (inputs cannot be recomputed from anything)."""
    return sorted(
        s.owner for s in liveness.all_storages()
        if s.needed_backward
        and network[s.owner].is_feature_extraction
        and network[s.owner].kind is not LayerKind.INPUT)


def checkpoint_plan(network: Network, liveness: LivenessAnalysis,
                    segment_count: Optional[int] = None) -> CheckpointPlan:
    """sqrt(L) checkpoint selection over the droppable storages.

    Orders the droppable feature-extraction storages (needed backward,
    not the INPUT batch) by owner and keeps every segment boundary:
    ``segment_count`` segments when given, else ``isqrt(count)``.
    Raises ``ValueError`` for a ``segment_count`` below 1.
    """
    if segment_count is not None and segment_count < 1:
        raise ValueError(
            f"segment_count must be at least 1, got {segment_count}")
    order = _droppable_order(network, liveness)
    count = len(order)
    segments = segment_count or max(1, math.isqrt(count))
    stride = max(1, math.ceil(count / segments))
    checkpoints = frozenset(order[::stride])
    return CheckpointPlan(
        checkpoints=checkpoints,
        dropped=frozenset(order) - checkpoints,
        droppable_order=tuple(order),
    )


def droppable_count(network: Network,
                    liveness: Optional[LivenessAnalysis] = None) -> int:
    """How many storages a checkpoint plan may drop (Chen et al.'s L)."""
    return len(_droppable_order(network,
                                liveness or LivenessAnalysis(network)))


@dataclass(frozen=True)
class RecomputePlan:
    """A budget-fitted checkpoint plan plus the probes that chose it.

    ``probes`` records every ``(segment_count, fits)`` pair the ladder
    tried, in order — the recompute analogue of vDNN_dyn's profiling
    passes.
    """

    segment_count: int
    plan: CheckpointPlan
    result: IterationResult
    probes: Tuple[Tuple[int, bool], ...]


def plan_recompute(
    network: Network,
    system: SystemConfig,
    algos: AlgoConfig,
    budget_bytes: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> RecomputePlan:
    """Budgeted segment selection: the most checkpoints that fit.

    Recompute time falls monotonically as checkpoints grow (shorter
    replays), while memory grows — so the cheapest plan under a budget
    is the one with the most segments that still fits.  The ladder
    walks the stride values 1, 2, 3, ... (segment counts descending
    from "checkpoint everything" toward the sqrt(L) default and past it
    to a single segment) and adopts the first fitting count; each probe
    is one content-addressed :func:`simulate_recompute` point.  With no
    budget the GPU capacity is used, so ``plan.result.trainable``
    matches the adoption decision.
    """
    from .cached import cached_recompute

    liveness = LivenessAnalysis(network)
    count = droppable_count(network, liveness)
    budget = system.gpu.memory_bytes if budget_bytes is None \
        else budget_bytes
    probes: List[Tuple[int, bool]] = []
    seen: set = set()
    adopted: Optional[Tuple[int, IterationResult]] = None
    for stride in range(1, max(count, 1) + 1):
        segments = max(1, math.ceil(count / stride))
        if segments in seen:
            continue
        seen.add(segments)
        result = cached_recompute(network, system, algos, segments,
                                  use_cache=use_cache)
        fits = result.max_usage_bytes <= budget
        probes.append((segments, fits))
        if fits:
            adopted = (segments, result)
            break
    if adopted is None:
        # Even the single-checkpoint floor misses the budget; return it
        # anyway so callers can report the (untrainable) memory floor.
        result = cached_recompute(network, system, algos, 1,
                                  use_cache=use_cache)
        if not probes or probes[-1][0] != 1:
            probes.append((1, result.max_usage_bytes <= budget))
        adopted = (1, result)
    segments, result = adopted
    return RecomputePlan(
        segment_count=segments,
        plan=checkpoint_plan(network, liveness, segments),
        result=result,
        probes=tuple(probes),
    )


def simulate_recompute(
    network: Network,
    system: SystemConfig,
    algos: AlgoConfig,
    segment_count: Optional[int] = None,
) -> IterationResult:
    """One training iteration under sqrt(L) gradient checkpointing.

    Runs on the vDNN walk with nothing offloaded: the checkpoint plan's
    dropped storages are freed at their last forward reader, and a
    backward miss replays its segment from the nearest resident
    storage.  Returns an :class:`IterationResult` comparable with the
    vDNN and baseline executors (``policy_label`` is ``"recompute"``;
    ``offload_bytes`` is zero — nothing crosses PCIe;
    ``compute_stall_seconds`` is the replayed forward kernel time).
    """
    plan = compiled_plan(network, system, algos)
    checkpoints = checkpoint_plan(network, LivenessAnalysis(network),
                                  segment_count)
    sim = _VDNNSimulation(network, system, TransferPolicy.none(), algos,
                          plan, drops=checkpoints.dropped,
                          segments=checkpoints.droppable_order)
    result = _run_walk(sim, "recompute")
    result.compute_stall_seconds = sim.replay_seconds
    return result
