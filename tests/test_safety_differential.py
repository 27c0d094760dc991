"""Differential test of the MS1xx replay against a brute-force oracle.

``check_memory_safety`` finds MS104 overlaps through an offset index of
the live blocks, and falls back to an exact scan once the live set stops
being disjoint.  The oracle below is the plain replay that scans every
live block on every allocation.  Random hand-built traces must produce
the same diagnostics from both, in the same order.  The traces mix
disjoint per-buffer slots, which keep the index in use, with grid
placements that overlap, nest and repeat.  They also exercise double
allocs and frees, and unsynced offloads racing frees and SYNCs.
"""

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.hb import HBGraph
from repro.analysis.safety import check_memory_safety
from repro.analysis.trace import OpKind, ScheduleTrace, TraceOp
from repro.core.algo_config import AlgoConfig
from repro.core.executor import simulate_baseline, simulate_vdnn
from repro.core.policy import TransferPolicy
from repro.sim.stream import COMPUTE_STREAM, MEMORY_STREAM

BUFFERS = tuple(f"B{i}" for i in range(6))
SLOT = 256


def oracle(trace: ScheduleTrace) -> List[Diagnostic]:
    """The replay with a linear scan of the live set per allocation."""
    hb = HBGraph(trace)
    found: List[Diagnostic] = []

    def report(rule, message, *ops):
        found.append(Diagnostic.make(rule, message, subject="",
                                     refs=[op.ref() for op in ops]))

    def ranged(op: TraceOp) -> bool:
        return op.offset >= 0 and op.size > 0

    live: Dict[str, Tuple[TraceOp, List[TraceOp]]] = {}
    hot: List[Tuple[int, int, str, TraceOp]] = []
    flagged = set()
    for op in trace.ops:
        if op.kind is OpKind.ALLOC:
            if op.buffer in live:
                report("MS104", f"{op.buffer} allocated twice without an "
                                f"intervening free", live[op.buffer][0], op)
            if ranged(op):
                lo, hi = op.offset, op.offset + op.size
                for buffer, (other, _) in live.items():
                    o_lo, o_hi = other.offset, other.offset + other.size
                    if buffer != op.buffer and ranged(other) \
                            and lo < o_hi and o_lo < hi:
                        report("MS104", f"{op.buffer} at [{lo}, {hi}) "
                                        f"overlaps live buffer {buffer} at "
                                        f"[{o_lo}, {o_hi})", op, other)
                for h_lo, h_hi, buffer, transfer in hot:
                    if lo < h_hi and h_lo < hi:
                        report("MS104", f"{op.buffer} at [{lo}, {hi}) reuses "
                                        f"bytes of {buffer} while its "
                                        f"offload may still be reading them",
                               op, transfer)
            live[op.buffer] = (op, [])
        elif op.kind is OpKind.FREE:
            entry = live.pop(op.buffer, None)
            if entry is None:
                report("MS102", f"{op.buffer} freed while not live "
                                f"(double free)", op)
                continue
            alloc, offloads = entry
            if ranged(alloc):
                hot.extend((alloc.offset, alloc.offset + alloc.size,
                            op.buffer, transfer) for transfer in offloads
                           if not hb.happens_before(transfer, op))
        elif op.kind is OpKind.SYNC:
            hot = [h for h in hot if not (h[3].stream == op.wait_stream
                                          and h[3].pos <= op.wait_pos)]
        else:
            for buffer in op.touched:
                entry = live.get(buffer)
                if entry is None:
                    if buffer not in flagged:
                        flagged.add(buffer)
                        report("MS101", f"{buffer} accessed by "
                                        f"{op.kind.value} {op.label or ''} "
                                        f"with no live allocation (use after "
                                        f"release, or never allocated)", op)
                elif op.kind is OpKind.OFFLOAD and buffer == op.buffer:
                    entry[1].append(op)
    for buffer, (alloc, _) in sorted(live.items(), key=lambda kv: kv[0]):
        if not alloc.persistent:
            report("MS103", f"{buffer} ({alloc.nbytes} bytes) still live at "
                            f"iteration end: leaked", alloc)
    return found


# ----------------------------------------------------------------------
# Random traces
# ----------------------------------------------------------------------
def placement(buffer: str):
    """The buffer's own slot (disjoint from every other buffer's), a
    grid placement that can overlap, nest in or repeat another, or no
    placement at all."""
    slot = BUFFERS.index(buffer) * SLOT
    return st.one_of(
        st.tuples(st.just(slot), st.sampled_from([64, 128, SLOT])),
        st.tuples(st.integers(0, 16).map(lambda k: 32 * k),
                  st.sampled_from([32, 64, 96, 160, 512])),
        st.tuples(st.sampled_from([-1, 0, 64]), st.sampled_from([0, 64])),
    )


@st.composite
def random_trace(draw) -> ScheduleTrace:
    trace = ScheduleTrace()
    for _ in range(draw(st.integers(1, 40))):
        buffer = draw(st.sampled_from(BUFFERS))
        kind = draw(st.sampled_from(
            ["alloc", "alloc", "alloc", "free", "free", "offload", "kernel",
             "sync"]))
        if kind == "alloc":
            offset, size = draw(placement(buffer))
            trace.alloc(buffer, max(size, 1), offset=offset, size=size,
                        persistent=draw(st.booleans()))
        elif kind == "free":
            trace.free(buffer, draw(st.sampled_from(
                [COMPUTE_STREAM, MEMORY_STREAM])))
        elif kind == "offload":
            trace.offload(buffer, MEMORY_STREAM, nbytes=64)
        elif kind == "kernel":
            trace.kernel(f"k{len(trace)}", COMPUTE_STREAM, reads=(buffer,))
        else:
            stream = draw(st.sampled_from([MEMORY_STREAM, COMPUTE_STREAM]))
            last = trace.position(stream)
            trace.sync(stream, draw(st.integers(-1, max(last, -1))))
    return trace


@settings(max_examples=300, deadline=None)
@given(trace=random_trace())
def test_replay_matches_linear_scan_oracle(trace):
    assert check_memory_safety(trace) == oracle(trace)


@settings(max_examples=100, deadline=None)
@given(order=st.permutations(range(40)), frees=st.sets(st.integers(0, 39)))
def test_long_disjoint_traces_stay_clean(order, frees):
    """Sound traces keep the index for the whole replay: many disjoint
    blocks, released and re-placed in random order, then one overlap."""
    trace = ScheduleTrace()
    for i in order:
        trace.alloc(f"Y{i}", 100, offset=128 * i, size=100 + 28 * (i % 2))
    for i in sorted(frees):
        trace.free(f"Y{i}", COMPUTE_STREAM)
    for i in sorted(frees, reverse=True):
        trace.alloc(f"Z{i}", 128, offset=128 * i, size=128)
    trace.alloc("X", 300, offset=128 * order[0] + 64, size=300)
    assert check_memory_safety(trace) == oracle(trace)


@pytest.mark.parametrize("policy", ["base", "all", "conv"])
def test_executor_traces_match_oracle(system, deep_cnn, policy):
    algos = AlgoConfig.performance_optimal(deep_cnn)
    if policy == "base":
        result = simulate_baseline(deep_cnn, system, algos, verify=True)
    else:
        result = simulate_vdnn(deep_cnn, system, TransferPolicy.named(policy),
                               algos, verify=True)
    trace = result.schedule_trace
    assert check_memory_safety(trace) == oracle(trace)
    # The mutant without its syncs races offloads against frees.
    syncs = [op.seq for op in trace.ops if op.kind is OpKind.SYNC]
    mutant = trace.without(*syncs)
    assert check_memory_safety(mutant) == oracle(mutant)
