"""Memory-safety verification of schedule traces (pass 2).

Symbolically executes the manager's allocation schedule against the
:class:`~repro.alloc.pool.PoolAllocator` semantics the real executor
uses: every ``ALLOC`` opens a buffer lifetime at its recorded pool
placement, every ``FREE`` closes one, and every kernel/DMA access is
checked against the live set — in host issue order, which is the order
the pool itself observes.  Rules:

* **MS101** use-after-release / use-before-alloc;
* **MS102** double free (freeing a buffer with no live allocation);
* **MS103** leak: non-persistent blocks still live at iteration end;
* **MS104** overlap: a new allocation's byte range intersects a live
  buffer's range, or a released range an in-flight offload may still be
  reading (release raced the DMA, and the pool recycled the bytes —
  the corruption HB002 warns about actually materializing);
* **MS105** refcount-gate violation (Fig. 3): a feature map released
  in the forward pass before its last forward consumer was issued, or
  discarded without offload although backward still needs it — needs a
  :class:`~repro.core.liveness.LivenessAnalysis` to know the consumers,
  so it only runs when one is supplied.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.liveness import LivenessAnalysis
from .diagnostics import Diagnostic
from .hb import HBGraph
from .trace import OpKind, ScheduleTrace, TraceOp


@dataclass
class _LiveBlock:
    """One open buffer lifetime during the replay."""

    buffer: str
    alloc: TraceOp
    offloads: List[TraceOp]
    lo: int
    hi: int
    has_range: bool

    @classmethod
    def open(cls, op: TraceOp) -> "_LiveBlock":
        return cls(buffer=op.buffer, alloc=op, offloads=[], lo=op.offset,
                   hi=op.offset + op.size,
                   has_range=op.offset >= 0 and op.size > 0)


class _LiveSet:
    """The open lifetimes, with the ranged ones indexed by offset.

    While no two ranged live blocks overlap (true of every sound
    trace), sorting them by start also sorts their ends, so a new
    ``[lo, hi)`` can only intersect the blocks starting inside it plus
    the one block just before ``lo``: two bisects instead of a scan of
    every live block.  The first overlap or double allocation breaks
    that invariant; the index is then dropped for the rest of the
    replay and every query scans the live set exactly.
    """

    def __init__(self) -> None:
        self.blocks: Dict[str, _LiveBlock] = {}
        self._starts: Optional[List[int]] = []  # None: index dropped
        self._ranged: List[_LiveBlock] = []   # parallel to _starts

    def open(self, block: _LiveBlock) -> List[_LiveBlock]:
        """Add ``block``; returns the other live ranged blocks its range
        intersects, in live-set (insertion) order."""
        # Drop the index before querying: only the exact scan skips the
        # buffer's own previous block.
        if block.buffer in self.blocks:
            self._starts = None
        hits = self._overlapping(block) if block.has_range else []
        if hits:
            self._starts = None
        # A re-opened live buffer keeps its dict (report) position.
        self.blocks[block.buffer] = block
        if self._starts is not None and block.has_range:
            at = bisect_left(self._starts, block.lo)
            self._starts.insert(at, block.lo)
            self._ranged.insert(at, block)
        return hits

    def pop(self, buffer: str) -> Optional[_LiveBlock]:
        block = self.blocks.pop(buffer, None)
        if block is None:
            return None
        if self._starts is not None and block.has_range:
            at = bisect_left(self._starts, block.lo)
            del self._starts[at]
            del self._ranged[at]
        return block

    def _overlapping(self, block: _LiveBlock) -> List[_LiveBlock]:
        lo, hi = block.lo, block.hi
        if self._starts is None:
            return [other for other in self.blocks.values()
                    if other.buffer != block.buffer and other.has_range
                    and _overlaps(lo, hi, other.lo, other.hi)]
        first = bisect_left(self._starts, lo)
        hits = self._ranged[first:bisect_left(self._starts, hi, first)]
        if first and self._ranged[first - 1].hi > lo:
            hits.append(self._ranged[first - 1])
        if len(hits) > 1:
            # Without double allocations (which drop the index), live
            # dict order is alloc issue order.
            hits.sort(key=lambda other: other.alloc.seq)
        return hits


@dataclass
class _HotRange:
    """Released bytes an unsynchronized offload may still be reading."""

    lo: int
    hi: int
    buffer: str
    transfer: TraceOp


def _overlaps(lo_a: int, hi_a: int, lo_b: int, hi_b: int) -> bool:
    return lo_a < hi_b and lo_b < hi_a


def check_memory_safety(
    trace: ScheduleTrace,
    hb: Optional[HBGraph] = None,
    liveness: Optional[LivenessAnalysis] = None,
    subject: str = "",
) -> List[Diagnostic]:
    """Replay the trace's allocation schedule; returns MS1xx findings."""
    hb = hb or HBGraph(trace)
    diagnostics: List[Diagnostic] = []

    def report(rule: str, message: str, *ops: TraceOp) -> None:
        diagnostics.append(Diagnostic.make(
            rule, message, subject=subject, refs=[op.ref() for op in ops]))

    live = _LiveSet()
    hot: List[_HotRange] = []
    issued_kernels: Set[Tuple[int, str]] = set()  # (layer_index, phase)
    flagged_missing: Set[str] = set()

    for op in trace.ops:
        if op.kind is OpKind.ALLOC:
            _replay_alloc(op, live, hot, report)
        elif op.kind is OpKind.FREE:
            _replay_free(op, live, hot, hb, liveness, issued_kernels, report)
        elif op.kind is OpKind.SYNC:
            # The join guarantees every op on wait_stream through
            # wait_pos completed: their reads of released bytes are over.
            hot[:] = [h for h in hot
                      if not (h.transfer.stream == op.wait_stream
                              and h.transfer.pos <= op.wait_pos)]
        else:
            if op.kind is OpKind.KERNEL and op.layer_index >= 0:
                issued_kernels.add((op.layer_index, op.phase))
            for buffer in op.touched:
                block = live.blocks.get(buffer)
                if block is None:
                    if buffer not in flagged_missing:
                        flagged_missing.add(buffer)
                        report(
                            "MS101",
                            f"{buffer} accessed by {op.kind.value} "
                            f"{op.label or ''} with no live allocation "
                            f"(use after release, or never allocated)",
                            op)
                elif op.kind is OpKind.OFFLOAD and buffer == op.buffer:
                    block.offloads.append(op)

    for buffer, block in sorted(live.blocks.items()):
        if not block.alloc.persistent:
            report(
                "MS103",
                f"{buffer} ({block.alloc.nbytes} bytes) still live at "
                f"iteration end: leaked",
                block.alloc)
    return diagnostics


def _replay_alloc(op: TraceOp, live: _LiveSet,
                  hot: List[_HotRange], report) -> None:
    previous = live.blocks.get(op.buffer)
    if previous is not None:
        report(
            "MS104",
            f"{op.buffer} allocated twice without an intervening free",
            previous.alloc, op)
    block = _LiveBlock.open(op)
    for other in live.open(block):
        report(
            "MS104",
            f"{op.buffer} at [{block.lo}, {block.hi}) overlaps live buffer "
            f"{other.buffer} at [{other.lo}, {other.hi})",
            op, other.alloc)
    if block.has_range:
        for entry in hot:
            if _overlaps(block.lo, block.hi, entry.lo, entry.hi):
                report(
                    "MS104",
                    f"{op.buffer} at [{block.lo}, {block.hi}) reuses bytes "
                    f"of {entry.buffer} while its offload may still be "
                    f"reading them",
                    op, entry.transfer)


def _replay_free(op: TraceOp, live: _LiveSet,
                 hot: List[_HotRange], hb: HBGraph,
                 liveness: Optional[LivenessAnalysis],
                 issued_kernels: Set[Tuple[int, str]], report) -> None:
    block = live.pop(op.buffer)
    if block is None:
        report(
            "MS102",
            f"{op.buffer} freed while not live (double free)",
            op)
        return
    # Bytes released under an in-flight, unsynchronized offload stay
    # "hot": a later allocation landing on them is real corruption.
    if block.has_range:
        for transfer in block.offloads:
            if not hb.happens_before(transfer, op):
                hot.append(_HotRange(lo=block.lo, hi=block.hi,
                                     buffer=op.buffer, transfer=transfer))
    if liveness is not None and op.phase == "fwd" and op.owner >= 0:
        _check_refcount_gate(op, block, liveness, issued_kernels, report)


def _check_refcount_gate(op: TraceOp, block: _LiveBlock,
                         liveness: LivenessAnalysis,
                         issued_kernels: Set[Tuple[int, str]],
                         report) -> None:
    storage = liveness.storages.get(op.owner)
    if storage is None:
        return
    gate = storage.forward_release_at
    if (gate, "fwd") not in issued_kernels:
        report(
            "MS105",
            f"{op.buffer} released before its last forward consumer "
            f"(layer {gate}) was issued: refcount gate violated",
            op)
    elif storage.needed_backward and not block.offloads:
        report(
            "MS105",
            f"{op.buffer} discarded without offload although backward "
            f"layers {storage.backward_users} still need it",
            op)
