"""Forward-only (inference) memory management — the paper's Figure 7.

During inference no feature map needs to survive for a backward pass,
so a layer-wise manager can release every X at its last consumer (the
black-X arrows of Figure 7) with no offloading at all.  The baseline,
by contrast, still allocates "the sum of all green (W) and red (X)
arrows" network-wide (Figure 2).  This executor quantifies that gap —
the inference-side counterpart of Figure 11.
"""

from __future__ import annotations

from typing import Dict

from ..alloc.pool import Allocation, PoolAllocator
from ..alloc.stats import UsageTracker
from ..graph.network import Network
from ..hw.config import SystemConfig
from ..sim.stream import make_stream_pair
from ..sim.timeline import EventKind
from .algo_config import AlgoConfig
from .executor import IterationResult, _feature_extraction_time
from .liveness import LivenessAnalysis
from .plan import compiled_plan

_UNBOUNDED = 1 << 50


def _validate_inference_batch(network: Network) -> None:
    """Reject non-positive batch sizes with the same contract as
    :class:`repro.sched.Job`.

    The zoo's :func:`~repro.zoo.build` and :class:`~repro.graph.tensor.
    TensorSpec` already guard their own paths; this guards hand-built
    networks handed straight to the inference simulators, so the error
    names the actual problem instead of surfacing as a downstream
    shape/latency anomaly.
    """
    batch = network.input_node.output_spec.batch
    if batch <= 0:
        raise ValueError(f"batch_size must be positive, got {batch}")


def weight_load_bytes(network: Network) -> Dict[int, int]:
    """Per-layer weight bytes an inference pass must have on-device.

    The single accounting path shared by :func:`simulate_inference`
    (which exposes it on its result), the demand-layering executor in
    :mod:`repro.serve.layering` (which streams exactly these bytes
    through the sliding window) and ``bench_ext_inference.py``.  Keys
    are layer indices; only layers that own weights appear.
    """
    return {
        node.index: node.weight_bytes
        for node in network
        if node.weight_bytes
    }


def baseline_inference_bytes(network: Network, algos: AlgoConfig) -> int:
    """Network-wide inference allocation: all Xs + W + shared WS."""
    _validate_inference_batch(network)
    liveness = LivenessAnalysis(network)
    return (liveness.total_feature_map_bytes()
            + network.total_weight_bytes()
            + algos.max_workspace_bytes())


def simulate_inference(
    network: Network,
    system: SystemConfig,
    algos: AlgoConfig,
) -> IterationResult:
    """One forward pass under layer-wise release (Figure 7).

    A plain replay of the compiled plan's forward steps: each step
    allocates its Y and workspace, runs its kernel, frees the workspace
    and then the inputs it last reads (``step.releases``).  Only the
    feature-extraction weights are allocated up front; nothing is held
    for a backward pass, so there is no dW, offload or prefetch.

    Returns an :class:`IterationResult` with ``policy_label``
    ``"inference"``; backward-related fields are zero and
    ``weight_load_bytes`` carries the per-layer weight accounting the
    serving subsystem's demand-layering executor reuses.
    """
    _validate_inference_batch(network)
    plan = compiled_plan(network, system, algos)
    pool = PoolAllocator(_UNBOUNDED)
    compute, _memory, timeline = make_stream_pair()
    usage = UsageTracker()
    device: Dict[int, Allocation] = {}

    def sample() -> None:
        usage.record(compute.ready_time, pool.live_bytes)

    for weights in plan.persistent:
        pool.alloc(weights.nbytes, weights.w_tag)
        sample()
    weight_loads = weight_load_bytes(network)
    persistent = sum(weight_loads.values())
    external = persistent - sum(weights.nbytes for weights in plan.persistent)

    for step in plan.forward:
        if step.alloc_rec is not None:
            device[step.y_owner] = pool.alloc(step.alloc_rec.nbytes,
                                              step.y_tag)
            sample()
        if not step.is_input:
            workspace = None
            if step.ws_bytes:
                workspace = pool.alloc(step.ws_bytes, step.ws_tag)
                sample()
            compute.enqueue(EventKind.FORWARD, step.name, step.seconds,
                            nbytes=step.dram_nbytes, layer_index=step.index)
            if workspace is not None:
                pool.free(workspace)
                sample()
        # Figure 7: free every input at its last consumer, full stop.
        for rec in step.releases:
            pool.free(device.pop(rec.owner))
            sample()

    # The network output remains live for the caller; free it last.
    for allocation in list(device.values()):
        pool.free(allocation)
    device.clear()
    usage.record(timeline.end_time, pool.live_bytes)

    peak = usage.max_bytes
    total_peak = peak + external
    trainable = total_peak <= system.gpu.memory_bytes
    return IterationResult(
        network_name=network.name,
        policy_label="inference",
        algo_label=algos.label,
        trainable=trainable,
        failure=None if trainable else "inference footprint exceeds GPU",
        timeline=timeline,
        usage=usage,
        managed_max_bytes=peak,
        managed_avg_bytes=usage.average_bytes,
        external_bytes=external,
        persistent_bytes=persistent,
        total_time=timeline.span,
        feature_extraction_time=_feature_extraction_time(network, timeline),
        offload_bytes=0,
        prefetch_bytes=0,
        pinned_peak_bytes=0,
        compute_stall_seconds=0.0,
        weight_load_bytes=weight_loads,
    )
