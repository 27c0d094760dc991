"""Static plan verifier: prove vDNN invariants before anything runs.

The dynamic sanitizer (:mod:`repro.analysis.hb` / ``safety``) certifies
a schedule by *running* it under ``verify=True`` — one full simulation
per point.  PR 7's :class:`~repro.core.plan.CompiledPlan` hoists the
exact facts those proofs need (liveness, release orders, refcount-gated
offload candidates, DMA issue order), so the same conditions can be
proved *statically*: this module walks the plan with an abstract
interpreter — an interval-abstracted pool (live/peak bytes, aligned
like the real :class:`~repro.alloc.pool.PoolAllocator`), a pinned-host
counter, and per-stream happens-before positions (a serial ``mem_pos``
issue counter against a ``synced_through`` watermark) — and either
certifies the SP4xx rules or produces a counterexample trace naming the
exact step.

Rules (catalog in :mod:`repro.analysis.diagnostics`):

* **SP401** — peak bytes ≤ device budget, with the first-violating
  step; warning severity, because an over-budget plan is *untrainable*,
  not unsafe (the dynamic side reports it the same way).
* **SP402** — the Fig. 3 refcount gate: nothing is released before its
  last forward consumer, nothing backward needs is discarded without
  offload, and no offloaded buffer is freed before a sync covers its
  transfer.
* **SP403** — the Fig. 10 / §III-C prefetch discipline: restored
  buffers are synced before backward reads them (error), and prefetch
  targets stay inside the CONV-bounded window (warning, mirroring
  HB004).
* **SP404** — release lists free every allocation exactly once: static
  leak, double free, or a release at the wrong backward step.
* **SP405** — recompute/checkpoint plans re-materialize every dropped
  storage before its consumer.
* **SP406** — serve :class:`~repro.serve.layering.ServicePlan`
  accounting is internally consistent.

:class:`_PlanInterpreter` is the static twin of the one executor walk,
:class:`repro.core.executor._VDNNSimulation`, for every policy: it
mirrors it step for step (same allocation order, same
``find_prefetch_layer`` state machine, same pinned-exhaustion abort
point, and for joint configs the same drops, input protection and
producer replays), so on a clean plan the statically computed peak
equals the simulated ``managed_max_bytes`` *exactly* — the
differential tests assert bit-equality, not closeness.
No simulation runs anywhere in this module: the whole 140-point zoo grid
verifies in about a second and a half.  Most of it is abstract walking,
chiefly the ladders' probes.  Those run through a :class:`_ProbeSession`,
which stops each probe at its first over-budget allocation and resumes
consecutive probes from a forward snapshot at their first differing
trigger, so a whole ladder stays close to linear in depth (see
docs/performance.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..alloc.pool import ALIGNMENT, _align
from ..core.algo_config import AlgoConfig
from ..core.dynamic import PLANNED_POLICIES, UntrainableError, lower, \
    run_profiling_ladder
from ..core.liveness import LivenessAnalysis
from ..core.plan import CompiledPlan, StorageRecord, compiled_plan
from ..core.policy import PolicyKind, TransferPolicy
from ..core.prefetcher import PrefetchState, find_prefetch_layer
from ..core.recompute import CheckpointPlan, checkpoint_plan
from ..graph.layer import LayerKind
from ..graph.network import Network
from ..hw.config import PAPER_SYSTEM, SystemConfig
from .diagnostics import Report, Severity


def _aligned(nbytes: int) -> int:
    """A pool allocation's true footprint (mirrors PoolAllocator.alloc)."""
    return max(_align(nbytes), ALIGNMENT)


def _copied(value):
    """One piece of walk state, copied if the walk could mutate it."""
    return value.copy() if isinstance(value, dict) else value


# ----------------------------------------------------------------------
# Abstract interpretation of one CompiledPlan
# ----------------------------------------------------------------------
@dataclass
class PlanInterpretation:
    """What the abstract walk of one (plan, policy) point computed.

    On a clean plan every field matches the corresponding
    :class:`~repro.core.executor.IterationResult` field bit-for-bit
    (``peak_bytes`` == ``managed_max_bytes`` and so on) — the
    differential suite asserts exactly that.
    """

    subject: str
    budget_bytes: int
    external_bytes: int
    peak_bytes: int = 0
    peak_step: str = ""
    offload_bytes: int = 0
    prefetch_bytes: int = 0
    pinned_peak_bytes: int = 0
    #: Abort reason (pinned-host exhaustion), or None for a full walk.
    aborted: Optional[str] = None
    #: Counterexample for SP401: the first step whose allocation pushed
    #: usage over the device budget (None while the plan fits).
    first_over_budget: Optional[str] = None

    @property
    def max_usage_bytes(self) -> int:
        return self.peak_bytes + self.external_bytes

    @property
    def trainable(self) -> bool:
        return self.aborted is None \
            and self.max_usage_bytes <= self.budget_bytes


class _AbortWalk(Exception):
    """Internal: the walk hit the same hard stop the executor would."""


class _PlanInterpreter:
    """Symbolic forward+backward walk of one compiled plan.

    State tracked: aligned pool live/peak bytes, pinned-host live/peak,
    the owner→bytes device and gradient tables, the Fig. 10
    :class:`PrefetchState`, and the happens-before abstraction — every
    DMA gets a serial issue position ``mem_pos`` and every sync raises
    the ``synced_through`` watermark; an operation that reads or
    reuses a buffer is safe iff the covering transfer's position is at
    or below the watermark.  ``drops`` turns on the joint planner's
    RECOMPUTE triggers exactly as it does on the executor walk.
    """

    def __init__(
        self,
        network: Network,
        system: SystemConfig,
        plan: CompiledPlan,
        policy: TransferPolicy,
        *,
        bounded_prefetch_window: bool = True,
        sync_after_offload: bool = True,
        sync_after_prefetch: bool = True,
        report: Optional[Report] = None,
        flagged: FrozenSet[int] = frozenset(),
        subject: str = "",
        drops: FrozenSet[int] = frozenset(),
    ):
        self.network = network
        self.system = system
        self.plan = plan
        self.policy = policy
        self.bounded_prefetch_window = bounded_prefetch_window
        self.sync_after_offload = sync_after_offload
        self.sync_after_prefetch = sync_after_prefetch
        self.report = report if report is not None else Report(subject)
        self.subject = subject or self.report.subject
        self.flagged = flagged

        self.wants = plan.offload_indices(policy, network)
        self.budget = system.gpu.memory_bytes
        self.pinned_capacity = system.host.max_pinned_bytes
        self.external = plan.external_bytes

        self.live = 0
        self.peak = 0
        self.peak_step = ""
        self.first_over_budget: Optional[str] = None
        self.device: Dict[int, int] = {}
        self.gradients: Dict[int, int] = {}
        self.pinned_live = 0
        self.pinned_peak = 0
        self.host: Dict[int, int] = {}

        self.mem_pos = 0
        self.synced_through = 0
        self.offload_pos: Dict[int, int] = {}
        self.prefetch_pos: Dict[int, int] = {}
        self.restored: Set[int] = set()
        self.prefetch_restored: Set[int] = set()
        self._sp403_checked: Set[int] = set()
        self._window_prefetched: Set[int] = set()

        self.state = PrefetchState.for_network(network)
        self.offloaded_at: Dict[int, List[StorageRecord]] = {}
        self.offload_bytes = 0
        self.prefetch_bytes = 0

        # Joint drop triggers, as in the executor: dropped candidates
        # are freed without DMA, the INPUT batch survives forward, and
        # a backward miss replays the producer chain.
        self.drops = drops
        self._protected = plan.input_owners if drops else frozenset()
        self._dead_resident: Set[int] = set()
        self._sp405_seen: Set[int] = set()

    # -- pool abstraction ----------------------------------------------
    def _alloc(self, nbytes: int, label: str) -> None:
        self.live += _aligned(nbytes)
        if self.live > self.peak:
            self.peak = self.live
            self.peak_step = label
        if self.first_over_budget is None \
                and self.live + self.external > self.budget:
            self.first_over_budget = (
                f"{label}: managed {self.live} + external {self.external} "
                f"bytes > GPU capacity {self.budget} bytes")

    def _free(self, nbytes: int) -> None:
        self.live -= _aligned(nbytes)

    # -- forward pass --------------------------------------------------
    def _forward(self, step) -> None:
        index = step.index
        rec = step.alloc_rec
        if rec is not None:
            self.device[rec.owner] = rec.nbytes
            self._alloc(rec.nbytes, f"fwd {step.name}: alloc Y{rec.owner}")
        if step.is_input:
            return
        if step.ws_bytes:
            self._alloc(step.ws_bytes, f"fwd {step.name}: workspace")

        for dead in step.dead_releases:
            self._dead_release(step, dead)

        if step.offload_candidates and index in self.wants:
            self._offload(step)

        if step.ws_bytes:
            self._free(step.ws_bytes)

    def _dead_release(self, step, dead) -> None:
        if dead.owner in self._protected:
            return  # replays may need the input batch
        index = step.index
        nbytes = self.device.pop(dead.owner, None)
        if nbytes is None:
            if dead.owner not in self.flagged:
                self.report.add(
                    "SP404",
                    f"fwd {step.name}: dead release of Y{dead.owner} "
                    f"targets nothing (buffer not on device)",
                    refs=(f"fwd#{index}",))
            return
        if dead.owner not in self.flagged:
            if dead.info.needed_backward:
                self.report.add(
                    "SP402",
                    f"fwd {step.name}: Y{dead.owner} ({dead.name}) "
                    f"discarded without offload although backward "
                    f"still needs it (Fig. 3 refcount gate)",
                    refs=(f"fwd#{index}",
                          f"first backward use: "
                          f"bwd#{dead.info.first_backward_use}"))
            elif dead.info.forward_release_at != index:
                self.report.add(
                    "SP402",
                    f"fwd {step.name}: Y{dead.owner} ({dead.name}) "
                    f"released at forward step {index} but its last "
                    f"forward consumer is layer "
                    f"{dead.info.forward_release_at} (released while "
                    f"a consumer still needs it)",
                    refs=(f"fwd#{index}",
                          f"last consumer: "
                          f"fwd#{dead.info.forward_release_at}"))
        self._free(nbytes)

    def _offload(self, step) -> None:
        index = step.index
        if index in self.drops:
            self._drop(step)
            return
        compress = self.policy.compresses(index)
        completed: List[StorageRecord] = []
        for rec in step.offload_candidates:
            # Mirror the executor's wire format: compressed offloads
            # stage and move comp_nbytes; device-side sizes are
            # untouched (decompression happens on the return DMA).
            wire = rec.comp_nbytes if compress else rec.nbytes
            if self.pinned_live + wire > self.pinned_capacity:
                # The executor raises PinnedMemoryError here and the
                # iteration aborts with partial stats: stop the walk at
                # the identical point.
                raise _AbortWalk(
                    f"host pinned memory exhausted at fwd {step.name}: "
                    f"{self.pinned_live} + {wire} > "
                    f"{self.pinned_capacity} bytes")
            self.pinned_live += wire
            self.pinned_peak = max(self.pinned_peak, self.pinned_live)
            self.host[rec.owner] = wire
            self.mem_pos += 1
            self.offload_pos[rec.owner] = self.mem_pos
            self.offload_bytes += wire
            completed.append(rec)
            if rec.owner not in self.flagged and (
                    not rec.info.needed_backward
                    or rec.info.forward_release_at != index):
                self.report.add(
                    "SP402",
                    f"fwd {step.name}: offload of Y{rec.owner} violates "
                    f"the refcount gate (needed_backward="
                    f"{rec.info.needed_backward}, last forward consumer "
                    f"is layer {rec.info.forward_release_at})",
                    refs=(f"fwd#{index}", f"mem op #{self.mem_pos}"))
        if not completed:
            return
        self.offloaded_at[index] = completed
        self.state.mark_offloaded(index)
        if self.sync_after_offload:
            self.synced_through = self.mem_pos
        for rec in completed:
            nbytes = self.device.pop(rec.owner, None)
            if nbytes is None:
                if rec.owner not in self.flagged:
                    self.report.add(
                        "SP404",
                        f"fwd {step.name}: post-offload release of "
                        f"Y{rec.owner} targets nothing",
                        refs=(f"fwd#{index}",))
                continue
            if rec.owner not in self.flagged \
                    and self.offload_pos[rec.owner] > self.synced_through:
                self.report.add(
                    "SP402",
                    f"fwd {step.name}: Y{rec.owner} freed while its "
                    f"offload (mem op #{self.offload_pos[rec.owner]}) "
                    f"may still be reading it — no sync since mem op "
                    f"#{self.synced_through} (missing end-of-layer "
                    f"sync, §III-B)",
                    refs=(f"fwd#{index}",
                          f"offload mem op #{self.offload_pos[rec.owner]}",
                          f"synced through #{self.synced_through}"))
            self._free(nbytes)

    def _drop(self, step) -> None:
        """RECOMPUTE: free now, regenerate from producers in backward."""
        for rec in step.offload_candidates:
            nbytes = self.device.pop(rec.owner, None)
            if nbytes is None:
                if rec.owner not in self.flagged:
                    self.report.add(
                        "SP404",
                        f"fwd {step.name}: drop of Y{rec.owner} targets "
                        f"nothing (buffer not on device)",
                        refs=(f"fwd#{step.index}",))
                continue
            self._free(nbytes)

    # -- backward pass -------------------------------------------------
    def _backward(self, step) -> None:
        index = step.index

        for rec in step.required:
            if rec.owner in self.device:
                continue
            if rec.owner in self.host:
                self._demand_restore(step, rec)
                continue
            self._missing_required(step, rec)

        for rec in step.grad_allocs:
            if rec.owner not in self.gradients:
                self.gradients[rec.owner] = rec.nbytes
                self._alloc(rec.nbytes,
                            f"bwd {step.name}: alloc dY{rec.owner}")

        if step.ws_bytes:
            self._alloc(step.ws_bytes, f"bwd {step.name}: workspace")

        target = find_prefetch_layer(
            self.network, self.state, index,
            bounded_window=self.bounded_prefetch_window)
        launched = False
        if target is not None:
            for rec in self.offloaded_at.get(target, []):
                if rec.owner in self.restored:
                    continue
                self.device[rec.owner] = rec.nbytes
                self._alloc(rec.nbytes,
                            f"bwd {step.name}: prefetch Y{rec.owner}")
                self.mem_pos += 1
                self.prefetch_pos[rec.owner] = self.mem_pos
                wire = self.host.pop(rec.owner)
                self.prefetch_bytes += wire
                self.pinned_live -= wire
                self.restored.add(rec.owner)
                self.prefetch_restored.add(rec.owner)
                launched = True
            self._check_window(target, index)

        # The kernel reads its required buffers here: any of them that
        # arrived by an *asynchronous* prefetch must be covered by a
        # sync, or the read races the DMA (the static twin of HB003).
        for rec in step.required:
            if rec.owner not in self.prefetch_restored \
                    or rec.owner in self._sp403_checked:
                continue
            self._sp403_checked.add(rec.owner)
            pos = self.prefetch_pos[rec.owner]
            if pos > self.synced_through and rec.owner not in self.flagged:
                self.report.add(
                    "SP403",
                    f"bwd {step.name}: kernel reads Y{rec.owner} "
                    f"restored by prefetch (mem op #{pos}) with no sync "
                    f"since mem op #{self.synced_through} — the §III-C "
                    f"guarantee (prefetch ready before the next "
                    f"backward layer) does not hold",
                    refs=(f"bwd#{index}", f"prefetch mem op #{pos}",
                          f"synced through #{self.synced_through}"))

        if launched and self.sync_after_prefetch:
            self.synced_through = self.mem_pos

        for owner, is_gradient in step.releases:
            table = self.gradients if is_gradient else self.device
            nbytes = table.pop(owner, None)
            if nbytes is None:
                if owner not in self.flagged:
                    kind = "dY" if is_gradient else "Y"
                    self.report.add(
                        "SP404",
                        f"bwd {step.name}: release of {kind}{owner} "
                        f"targets nothing (already freed, or never "
                        f"allocated)",
                        refs=(f"bwd#{index}",))
                continue
            self._free(nbytes)

        if step.ws_bytes:
            self._free(step.ws_bytes)

        if self._dead_resident:
            self._flush_dead()

    def _demand_restore(self, step, rec) -> None:
        # Demand fetch: blocking, so it synchronizes everything
        # issued so far — it can never race (emits nothing).
        self.device[rec.owner] = rec.nbytes
        self._alloc(rec.nbytes,
                    f"bwd {step.name}: demand restore Y{rec.owner}")
        self.mem_pos += 1
        wire = self.host.pop(rec.owner)
        self.prefetch_bytes += wire
        self.synced_through = self.mem_pos
        self.pinned_live -= wire
        self.restored.add(rec.owner)

    def _missing_required(self, step, rec) -> None:
        if self.drops:
            self._remat(rec.owner, step)
            return
        if rec.owner not in self.flagged:
            self.report.add(
                "SP404",
                f"bwd {step.name}: kernel needs Y{rec.owner} but it "
                f"is neither on device nor staged in host memory — "
                f"a release list freed it too early "
                f"(use-after-free)",
                refs=(f"bwd#{step.index}",))

    def _remat(self, owner: int, step) -> None:
        """Replay a dropped storage's producer chain, in the executor's
        order (producers first, then Y, then each member's transient
        workspace), so peak bytes match the simulation bit for bit."""
        rec = self.plan.records[owner]
        if owner in self.plan.input_owners and owner not in self.flagged \
                and owner not in self._sp405_seen:
            # Inputs cannot be recomputed from anything: the replay
            # would allocate Y and run zero kernels — garbage data.
            self._sp405_seen.add(owner)
            self.report.add(
                "SP405",
                f"bwd {step.name}: re-materialization of Y{owner} "
                f"bottoms out at the freed INPUT batch — inputs "
                f"cannot be recomputed",
                refs=(f"bwd#{step.index}",))
        info = rec.info
        if not info.needed_backward:
            self._dead_resident.add(owner)
        for member in info.chain:
            for producer in self.network[member].producers:
                source = self.network[producer].storage_index
                if source in self.device or source == owner:
                    continue
                if source in self.host:
                    self._demand_restore(step, self.plan.records[source])
                else:
                    self._remat(source, step)
        self.device[owner] = rec.nbytes
        self._alloc(rec.nbytes,
                    f"bwd {step.name}: remat Y{owner} ({rec.name})")
        for member in info.chain:
            fstep = self.plan.forward_steps[member]
            if fstep.ws_bytes and not fstep.is_input:
                self._alloc(fstep.ws_bytes,
                            f"bwd {step.name}: remat workspace "
                            f"{fstep.name}(re)")
                self._free(fstep.ws_bytes)

    def _flush_dead(self) -> None:
        for owner in sorted(self._dead_resident):
            nbytes = self.device.pop(owner, None)
            if nbytes is not None:
                self._free(nbytes)
        self._dead_resident.clear()

    def _check_window(self, target: int, issue: int) -> None:
        """SP403 warning: the Fig. 10 CONV-bounded window (HB004 twin)."""
        for between in range(target + 1, issue):
            if between >= len(self.network):
                break
            if self.network[between].kind is not LayerKind.CONV:
                continue
            if between not in self.offloaded_at \
                    or between in self._window_prefetched:
                self.report.add(
                    "SP403",
                    f"prefetch of layer {target}'s X during backward of "
                    f"layer {issue} skips past CONV layer {between} "
                    f"({self.network[between].name}): outside the "
                    f"Fig. 10 search window",
                    refs=(f"bwd#{issue}", f"target fwd#{target}"),
                    severity=Severity.WARNING)
                break
        self._window_prefetched.add(target)

    # -- end of iteration ----------------------------------------------
    def _finish(self) -> None:
        """The executor's end sweep, plus the static leak check."""
        # The protected input survives forward by design when anything
        # drops; free it silently so the leak sweep stays meaningful.
        for owner in self._protected:
            nbytes = self.device.pop(owner, None)
            if nbytes is not None:
                self._free(nbytes)
        for owner, nbytes in list(self.device.items()):
            self._free(nbytes)
            rec = self.plan.records.get(owner)
            if rec is None or owner in self.flagged:
                continue
            info = rec.info
            has_consumers = info.forward_release_at != info.chain[-1]
            if info.needed_backward or has_consumers:
                self.report.add(
                    "SP404",
                    f"end sweep: Y{owner} ({rec.name}) still live after "
                    f"backward — no release list ever freed it "
                    f"(static leak)",
                    refs=("end-sweep",))
        self.device.clear()
        for owner, nbytes in list(self.gradients.items()):
            self._free(nbytes)
            if owner not in self.flagged:
                self.report.add(
                    "SP404",
                    f"end sweep: dY{owner} still live after backward — "
                    f"no release list ever freed it (static leak)",
                    refs=("end-sweep",))
        self.gradients.clear()

    def run(self) -> PlanInterpretation:
        """The full walk: every step, then the end sweep's leak checks."""
        aborted = None
        try:
            self._persistent()
            for step in self.plan.forward:
                self._forward(step)
            for step in self.plan.backward:
                self._backward(step)
            self._finish()
        except _AbortWalk as abort:
            aborted = str(abort)
        return self._result(aborted)

    def _persistent(self) -> None:
        for item in self.plan.persistent:
            self._alloc(item.nbytes, f"persistent W[{item.index}]")
            self._alloc(item.nbytes, f"persistent dW[{item.index}]")

    def _result(self, aborted: Optional[str]) -> PlanInterpretation:
        return PlanInterpretation(
            subject=self.subject,
            budget_bytes=self.budget,
            external_bytes=self.external,
            peak_bytes=self.peak,
            peak_step=self.peak_step,
            offload_bytes=self.offload_bytes,
            prefetch_bytes=self.prefetch_bytes,
            pinned_peak_bytes=self.pinned_peak,
            aborted=aborted,
            first_over_budget=self.first_over_budget,
        )

    # -- resumable forward state (see _ProbeSession) -------------------
    #: Everything a forward step may change.  The backward-only tables
    #: are still empty in forward, and the Fig. 10 flags are rebuilt
    #: from ``offloaded_at`` on restore.
    _FORWARD_STATE: Tuple[str, ...] = (
        "live", "peak", "peak_step", "device", "pinned_live",
        "pinned_peak", "host", "mem_pos", "synced_through", "offload_pos",
        "offloaded_at", "offload_bytes")

    def decisions(self) -> Tuple[FrozenSet[int], ...]:
        """What the config decides at forward triggers: (offloaded,
        compressed, dropped, protected).  Two configs walk forward
        identically up to the first trigger where these differ."""
        compressed = self.wants if self.policy.kind is PolicyKind.COMP \
            else self.policy.compress_layers & self.wants
        # The protected input changes dead releases anywhere in forward.
        return self.wants, compressed, self.drops, self._protected

    def snapshot(self) -> dict:
        """A copy of the forward state, for :meth:`restore`."""
        saved = {name: _copied(getattr(self, name))
                 for name in self._FORWARD_STATE}
        saved["diagnostics"] = len(self.report.diagnostics)
        return saved

    def restore(self, saved: dict) -> None:
        """Resume a fresh interpreter from a :meth:`snapshot` taken by
        one whose config agrees on every step walked so far."""
        for name in self._FORWARD_STATE:
            setattr(self, name, _copied(saved[name]))
        del self.report.diagnostics[saved["diagnostics"]:]
        for index in self.offloaded_at:
            self.state.mark_offloaded(index)


def interpret_plan(
    network: Network,
    system: SystemConfig,
    plan: CompiledPlan,
    policy: TransferPolicy,
    *,
    bounded_prefetch_window: bool = True,
    sync_after_offload: bool = True,
    sync_after_prefetch: bool = True,
    report: Optional[Report] = None,
    flagged: FrozenSet[int] = frozenset(),
    subject: str = "",
) -> PlanInterpretation:
    """Abstractly execute one (plan, policy) point; no simulation runs.

    ``policy`` may be a joint config (see :func:`repro.core.dynamic.lower`).
    Diagnostics (SP402/SP403/SP404 walk findings) land in ``report``
    when one is given; ``flagged`` owners — already reported by
    :func:`audit_plan` — are skipped so one defect never reports twice.
    """
    transfer, drops = lower(policy)
    return _PlanInterpreter(
        network, system, plan, transfer, drops=drops,
        bounded_prefetch_window=bounded_prefetch_window,
        sync_after_offload=sync_after_offload,
        sync_after_prefetch=sync_after_prefetch,
        report=report, flagged=flagged, subject=subject,
    ).run()


def interpret_joint_plan(
    network: Network,
    system: SystemConfig,
    plan: CompiledPlan,
    config,
    *,
    report: Optional[Report] = None,
    flagged: FrozenSet[int] = frozenset(),
    subject: str = "",
) -> PlanInterpretation:
    """Abstractly execute one (plan, joint config) point."""
    return interpret_plan(network, system, plan, config, report=report,
                          flagged=flagged, subject=subject)


# ----------------------------------------------------------------------
# Structural audit (SP402/SP404): plan lifecycle vs liveness ground truth
# ----------------------------------------------------------------------
def audit_plan(network: Network, plan: CompiledPlan,
               report: Report) -> Set[int]:
    """Audit every storage's whole lifecycle against a fresh liveness.

    Position-independent checks: each allocation must be freed exactly
    once, at the step liveness dictates, by the mechanism the refcount
    gate allows.  Returns the set of flagged owners so the walk can
    skip its own (now redundant) findings for them.
    """
    liveness = LivenessAnalysis(network)
    releases = plan.release_schedule()
    dead_sites = plan.dead_release_sites()
    offload_sites = plan.offload_candidate_sites()
    grad_sites = plan.grad_alloc_sites()
    flagged: Set[int] = set()

    for info in liveness.all_storages():
        owner = info.owner
        name = network[owner].name
        has_consumers = info.forward_release_at != info.chain[-1]
        feature = [idx for idx, g in releases.get(owner, ()) if not g]
        grads = [idx for idx, g in releases.get(owner, ()) if g]
        dead = dead_sites.get(owner, [])
        offl = offload_sites.get(owner, [])

        if info.needed_backward:
            if dead:
                flagged.add(owner)
                report.add(
                    "SP402",
                    f"Y{owner} ({name}) appears in dead-release lists at "
                    f"forward steps {dead} although backward still needs "
                    f"it (Fig. 3 refcount gate)")
            expected = [info.forward_release_at] if has_consumers else []
            if offl != expected:
                flagged.add(owner)
                report.add(
                    "SP402",
                    f"Y{owner} ({name}) offload candidacy at forward "
                    f"steps {offl} disagrees with the refcount gate "
                    f"(expected {expected})")
            if not feature:
                flagged.add(owner)
                report.add(
                    "SP404",
                    f"Y{owner} ({name}) is never freed by any backward "
                    f"release list (static leak)")
            elif len(feature) > 1:
                flagged.add(owner)
                report.add(
                    "SP404",
                    f"Y{owner} ({name}) freed {len(feature)} times by "
                    f"backward release lists (double free) at steps "
                    f"{feature}")
            elif feature[0] != info.backward_release_after:
                flagged.add(owner)
                kind = ("use-after-free: freed before its last backward "
                        "consumer runs"
                        if feature[0] > info.backward_release_after
                        else "held past its last backward consumer")
                report.add(
                    "SP404",
                    f"Y{owner} ({name}) released after backward of layer "
                    f"{feature[0]}, but its last backward consumer is "
                    f"layer {info.backward_release_after} ({kind})")
        else:
            if feature:
                flagged.add(owner)
                report.add(
                    "SP404",
                    f"Y{owner} ({name}) appears in backward release "
                    f"lists at steps {feature} although backward never "
                    f"reads it")
            if offl:
                flagged.add(owner)
                report.add(
                    "SP402",
                    f"Y{owner} ({name}) is an offload candidate at "
                    f"forward steps {offl} although backward never "
                    f"reads it (nothing to restore for)")
            if has_consumers:
                if not dead:
                    flagged.add(owner)
                    report.add(
                        "SP404",
                        f"Y{owner} ({name}) is dead after forward but no "
                        f"dead-release list frees it (static leak)")
                elif len(dead) > 1:
                    flagged.add(owner)
                    report.add(
                        "SP404",
                        f"Y{owner} ({name}) freed {len(dead)} times by "
                        f"dead-release lists (double free) at steps "
                        f"{dead}")
            elif dead:
                flagged.add(owner)
                report.add(
                    "SP404",
                    f"Y{owner} ({name}) is a terminal storage (freed by "
                    f"the end sweep) but a dead-release list at steps "
                    f"{dead} frees it too (double free)")

        if info.needs_gradient:
            g_allocs = grad_sites.get(owner, [])
            if g_allocs != [info.gradient_alloc_at]:
                flagged.add(owner)
                report.add(
                    "SP404",
                    f"dY{owner} ({name}) allocation sites {g_allocs} "
                    f"disagree with liveness (first gradient writer is "
                    f"layer {info.gradient_alloc_at})")
            if grads != [info.gradient_release_after]:
                flagged.add(owner)
                report.add(
                    "SP404",
                    f"dY{owner} ({name}) release sites {grads} disagree "
                    f"with liveness (freed after the owner's backward, "
                    f"layer {info.gradient_release_after})")
        elif grads or grad_sites.get(owner):
            flagged.add(owner)
            report.add(
                "SP404",
                f"dY{owner} ({name}) is allocated/released although no "
                f"backward step writes a gradient for it")
    return flagged


# ----------------------------------------------------------------------
# SP407: compression-model consistency
# ----------------------------------------------------------------------
def audit_compression(network: Network, system: SystemConfig,
                      plan: CompiledPlan, report: Report) -> None:
    """Re-derive every record's wire format from the compression model.

    A plan whose ``comp_nbytes`` disagrees with the model (or escapes
    ``(0, nbytes]``) would make the static walk and the simulation
    account different PCIe traffic and pinned pressure for compressed
    policies — the exact drift the bit-equality differential tests
    exist to catch, reported here before anything runs.
    """
    comp = system.compression
    relu_owners = frozenset(
        node.storage_index for node in network
        if node.kind is LayerKind.ACTV)
    span = max(1, len(network) - 1)
    for owner in sorted(plan.records):
        rec = plan.records[owner]
        if rec.nbytes and not 0 < rec.comp_nbytes <= rec.nbytes:
            report.add(
                "SP407",
                f"Y{owner} ({rec.name}) wire size {rec.comp_nbytes} "
                f"escapes (0, {rec.nbytes}] — a compressed transfer must "
                f"move at least one and at most nbytes bytes")
            continue
        expected = comp.compressed_bytes(
            rec.nbytes, owner in relu_owners, owner / span)
        if rec.comp_nbytes != expected:  # repro: allow(LINT204)
            report.add(
                "SP407",
                f"Y{owner} ({rec.name}) wire size {rec.comp_nbytes} "
                f"disagrees with the compression model "
                f"(expected {expected} bytes)")
            continue
        expected_seconds = comp.engine_latency \
            + system.pcie.dma_time(rec.comp_nbytes)
        if rec.comp_dma_seconds != expected_seconds:  # repro: allow(LINT204)
            report.add(
                "SP407",
                f"Y{owner} ({rec.name}) compressed DMA duration "
                f"{rec.comp_dma_seconds} disagrees with engine latency "
                f"+ link time ({expected_seconds})")


# ----------------------------------------------------------------------
# Entry points for training plans
# ----------------------------------------------------------------------
def verify_compiled_plan(
    network: Network,
    system: SystemConfig,
    plan: CompiledPlan,
    policy: TransferPolicy,
    *,
    bounded_prefetch_window: bool = True,
    sync_after_offload: bool = True,
    sync_after_prefetch: bool = True,
    subject: str = "",
) -> Report:
    """Prove (or refute) the SP4xx rules for one compiled plan."""
    report = Report(subject=subject or
                    f"{plan.network_name} {policy.describe()} [static]")
    flagged = frozenset(audit_plan(network, plan, report))
    audit_compression(network, system, plan, report)
    interp = interpret_plan(
        network, system, plan, policy,
        bounded_prefetch_window=bounded_prefetch_window,
        sync_after_offload=sync_after_offload,
        sync_after_prefetch=sync_after_prefetch,
        report=report, flagged=flagged, subject=report.subject)
    if interp.aborted is not None:
        report.add("SP401",
                   f"plan aborts before completing: {interp.aborted}",
                   refs=("pinned-host budget",))
    elif interp.first_over_budget is not None:
        report.add("SP401",
                   f"statically computed peak {interp.max_usage_bytes} "
                   f"bytes exceeds GPU capacity {interp.budget_bytes} "
                   f"bytes; first over-budget allocation: "
                   f"{interp.first_over_budget}")
    return report


def verify_plan(
    network: Network,
    system: SystemConfig,
    policy: TransferPolicy,
    algos: AlgoConfig,
    *,
    bounded_prefetch_window: bool = True,
    sync_after_offload: bool = True,
    sync_after_prefetch: bool = True,
    subject: str = "",
) -> Report:
    """Build (or fetch) the compiled plan for a point and verify it."""
    plan = compiled_plan(network, system, algos)
    return verify_compiled_plan(
        network, system, plan, policy,
        bounded_prefetch_window=bounded_prefetch_window,
        sync_after_offload=sync_after_offload,
        sync_after_prefetch=sync_after_prefetch,
        subject=subject)


def verify_joint_plan(
    network: Network,
    system: SystemConfig,
    config,
    algos: AlgoConfig,
    subject: str = "",
) -> Report:
    """Prove the SP4xx rules for one joint configuration.

    The :func:`verify_plan` ledger (structural audit, SP407 compression
    consistency, the abstract walk, the SP401 tail); the walk also
    discharges the SP405 obligation every drop trigger adds — each
    dropped storage must be re-materializable from state the mixed
    schedule actually keeps resident — reporting any replay that
    bottoms out at the freed INPUT batch.
    """
    return verify_plan(network, system, config, algos, subject=subject)


# ----------------------------------------------------------------------
# Static vDNN_dyn: replay the profiling ladder without simulating
# ----------------------------------------------------------------------
@dataclass
class StaticProbe:
    """Record of one interpreted (not simulated) ladder probe."""

    description: str
    policy_label: str
    algo_label: str
    trainable: bool


class _ProbeSession:
    """The probe walks of one static ladder, resumed from shared state,
    and the :class:`StaticProbe` record of each (``passes``).

    A ladder probe needs only ``trainable``, and its report is thrown
    away, so two shortcuts keep a whole ladder close to linear in depth
    while every probe still decides exactly what a full walk decides:

    * **Early exit.** A walk stops at its first over-budget allocation
      or pinned abort; the plan is untrainable from there on, so the
      rest of forward, all of backward and the end sweep are skipped.
    * **Resume.** Consecutive probes on one compiled plan walk forward
      identically up to the first trigger where their decisions
      differ.  The session keeps a snapshot of the forward state every
      ~√L steps (the checkpointing trade of Chen et al. 2016, applied
      to the verifier's own state) and restores the last one at or
      before that trigger, so a greedy flip replays at most √L steps
      before walking on from the flipped trigger.

    A fresh walk is the same loop resumed from position 0.  Only a
    probe's ``trainable`` is exact: after an early exit its peak and
    byte counters stop at the first over-budget allocation.
    """

    def __init__(self, network: Network, system: SystemConfig):
        self.network = network
        self.system = system
        self.report = Report()
        self.plan: Optional[CompiledPlan] = None
        self.decisions: Tuple[FrozenSet[int], ...] = ()
        self.positions: Dict[int, int] = {}
        self.spacing = 1
        #: (forward position, state before that step), ascending.
        self.snapshots: List[Tuple[int, dict]] = []
        #: One record per probe, in ladder order.
        self.passes: List[StaticProbe] = []

    def probe(self, config, algos: AlgoConfig,
              description: str) -> PlanInterpretation:
        """One probe of a :class:`TransferPolicy` or a joint config."""
        plan = compiled_plan(self.network, self.system, algos)
        policy, drops = lower(config)
        walk = _PlanInterpreter(self.network, self.system, plan, policy,
                                drops=drops, report=self.report,
                                subject=description)
        start = self._first_change(plan, walk.decisions())
        while self.snapshots and self.snapshots[-1][0] > start:
            self.snapshots.pop()
        aborted = None
        try:
            if self.snapshots:
                position, saved = self.snapshots[-1]
                walk.restore(saved)
            else:
                position = 0
                self.report.diagnostics.clear()
                walk._persistent()
            self._walk(walk, position)
        except _AbortWalk as abort:
            aborted = str(abort)
        interp = walk._result(aborted)
        self.passes.append(StaticProbe(description, config.describe(),
                                       algos.label, interp.trainable))
        return interp

    def _first_change(self, plan: CompiledPlan,
                      decisions: Tuple[FrozenSet[int], ...]) -> int:
        """First forward position where this probe's walk can differ
        from the previous probe's."""
        previous, self.decisions = self.decisions, decisions
        if plan is not self.plan:
            self.plan = plan
            self.positions = {step.index: position for position, step
                              in enumerate(plan.forward)}
            self.spacing = max(1, math.isqrt(len(plan.forward)))
            self.snapshots = []
            return 0
        if decisions[3] != previous[3]:
            return 0
        changed = frozenset().union(*(
            now ^ before for now, before in zip(decisions[:3], previous)))
        return min((self.positions.get(index, 0) for index in changed),
                   default=len(plan.forward))

    def _walk(self, walk: _PlanInterpreter, start: int) -> None:
        forward = walk.plan.forward
        for position in range(start, len(forward)):
            if walk.first_over_budget is not None:
                return
            if position % self.spacing == 0 and (
                    not self.snapshots
                    or self.snapshots[-1][0] < position):
                self.snapshots.append((position, walk.snapshot()))
            walk._forward(forward[position])
        for step in walk.plan.backward:
            if walk.first_over_budget is not None:
                return
            walk._backward(step)


def plan_dynamic_static(
    network: Network, system: SystemConfig
) -> Tuple[TransferPolicy, AlgoConfig, List[StaticProbe]]:
    """The vDNN_dyn configuration, chosen by interpretation alone.

    Replays :func:`repro.core.dynamic.run_profiling_ladder` — the exact
    probe order and descriptions of :func:`plan_dynamic` — but each
    probe is an abstract walk of the compiled plan instead of a
    simulation, so trainability (peak + external vs budget, pinned
    abort) is decided without executing anything.  The differential
    suite asserts both ladders adopt the identical configuration.

    Raises :class:`repro.core.dynamic.UntrainableError` exactly when
    the dynamic planner would.  Probes run through a
    :class:`_ProbeSession`, so an untrainable probe's
    ``max_usage_bytes`` (quoted by that error) is the usage at its
    first over-budget allocation: a lower bound on the full walk's.
    """
    session = _ProbeSession(network, system)
    policy, algos, _adopted = run_profiling_ladder(
        network, session.probe, system.gpu.memory_bytes)
    return policy, algos, session.passes


def plan_joint_static(
    network: Network, system: SystemConfig
) -> Tuple["JointConfig", AlgoConfig, List[StaticProbe]]:
    """The joint configuration, chosen by interpretation alone.

    The joint analogue of :func:`plan_dynamic_static`: replays
    :func:`repro.core.joint.run_joint_ladder` probe for probe, each an
    abstract walk of the config's policy and drop set.  The ladder adopts
    by trainability and the deterministic plan-derived cost model only
    — never by simulated time — so this and
    :func:`repro.core.joint.plan_joint` always settle on the identical
    configuration (the parity differential test pins it).  Probes run
    through a :class:`_ProbeSession`, as in :func:`plan_dynamic_static`.
    """
    from ..core.joint import run_joint_ladder

    session = _ProbeSession(network, system)
    config, algos, _adopted = run_joint_ladder(
        network, system, session.probe, system.gpu.memory_bytes)
    return config, algos, session.passes


# ----------------------------------------------------------------------
# Point / zoo drivers (mirror verify.verify_point's subjects, so the
# differential harness can pair static and dynamic reports by subject)
# ----------------------------------------------------------------------
def verify_point_static(
    network: Network,
    policy: str = "all",
    algo: str = "p",
    system: Optional[SystemConfig] = None,
) -> Report:
    """Statically verify one (network, policy, algo) point.

    Subjects match :func:`repro.analysis.verify.verify_point` so the
    two sweeps zip together point for point.
    """
    system = system or PAPER_SYSTEM
    subject = f"{network.name} {policy}({algo})"
    if policy == "base":
        # Baseline allocates network-wide up front: there is no
        # schedule to prove, only the feasibility bound of §IV-A.
        plan = compiled_plan(network, system,
                             AlgoConfig.named(network, algo))
        report = Report(subject=subject)
        total = plan.baseline_breakdown["total"]
        if total > system.gpu.memory_bytes:
            report.add(
                "SP401",
                f"network-wide allocation of {total} bytes exceeds GPU "
                f"capacity of {system.gpu.memory_bytes} bytes")
        return report
    if policy in PLANNED_POLICIES:
        subject = f"{network.name} {policy}"
        planner = plan_joint_static if policy == "joint" \
            else plan_dynamic_static
        try:
            config, algos, _passes = planner(network, system)
        except UntrainableError:
            return Report(subject=f"{subject} (untrainable, skipped)")
        return verify_plan(network, system, config, algos, subject=subject)
    return verify_plan(network, system, TransferPolicy.named(policy),
                       AlgoConfig.named(network, algo), subject=subject)


def verify_zoo_static(
    names: Optional[Sequence[str]] = None,
    batch: Optional[int] = None,
    policies: Optional[Sequence[Tuple[str, str]]] = None,
    system: Optional[SystemConfig] = None,
) -> List[Report]:
    """Statically verify the whole sweep grid; builds each network once.

    No worker pool: the entire 140-point grid interprets in a few
    seconds, so process fan-out would only add overhead.
    """
    from ..zoo import available, build

    if policies is None:
        from .verify import SWEEP_POLICIES
        policies = SWEEP_POLICIES
    names = list(names) if names else available()
    reports: List[Report] = []
    for name in names:
        network = build(name, batch)
        for policy, algo in policies:
            reports.append(verify_point_static(
                network, policy=policy, algo=algo, system=system))
    return reports


# ----------------------------------------------------------------------
# SP405: checkpoint/recompute plans
# ----------------------------------------------------------------------
def verify_recompute_plan(
    network: Network,
    segment_count: Optional[int] = None,
    plan: Optional[CheckpointPlan] = None,
    keep_input: bool = True,
    subject: str = "",
) -> Report:
    """Prove a checkpoint plan re-materializes everything it drops.

    Two layers of checks: the partition itself (checkpoints and dropped
    sets disjoint, covering exactly the droppable storages, in order),
    then an abstract regeneration walk — every dropped storage must be
    reachable from still-resident state by replaying producers, the
    recursion the vDNN walk's rematerialization performs when
    :func:`~repro.core.recompute.simulate_recompute` runs the plan
    (:meth:`~repro.core.executor._VDNNSimulation._rematerialize`).

    ``keep_input=False`` models the ablation where the input batch does
    not survive forward propagation (the executor's input-protection
    guard removed): regeneration then bottoms out at freed state for
    any segment whose replay reaches the INPUT storage.
    """
    report = Report(subject=subject or f"{network.name} recompute [static]")
    liveness = LivenessAnalysis(network)
    if plan is None:
        plan = checkpoint_plan(network, liveness, segment_count)

    droppable_expected = sorted(
        s.owner for s in liveness.all_storages()
        if s.needed_backward
        and network[s.owner].is_feature_extraction
        and network[s.owner].kind is not LayerKind.INPUT)
    order = list(plan.droppable_order)

    overlap = plan.checkpoints & plan.dropped
    if overlap:
        report.add(
            "SP405",
            f"checkpoint partition inconsistent: storages "
            f"{sorted(overlap)} are both checkpointed and dropped")
    if set(order) != (plan.checkpoints | plan.dropped):
        report.add(
            "SP405",
            f"checkpoint partition inconsistent: droppable order "
            f"{order} does not cover checkpoints ∪ dropped exactly")
    if sorted(order) != droppable_expected:
        report.add(
            "SP405",
            f"droppable order {order} disagrees with liveness "
            f"(expected owners {droppable_expected})")
    elif order != sorted(order):
        report.add(
            "SP405",
            f"droppable order {order} is not ascending — the segment "
            f"walk-back would anchor on the wrong checkpoint")

    # Abstract regeneration walk.  Resident entering backward: every
    # needed-backward storage the forward pass did not drop, plus the
    # protected input batch.
    resident = {
        s.owner for s in liveness.all_storages()
        if s.needed_backward and s.owner not in plan.dropped
    }
    input_owners = {n.storage_index for n in network
                    if n.kind is LayerKind.INPUT}
    if plan.dropped:
        if keep_input:
            resident |= input_owners
        else:
            resident -= input_owners

    memo: Dict[int, bool] = {}

    def materializable(owner: int, stack: Set[int]) -> bool:
        if owner in resident:
            return True
        if owner in memo:
            return memo[owner]
        if owner in stack:
            return False
        if network[owner].kind is LayerKind.INPUT:
            return False  # inputs cannot be recomputed from anything
        stack.add(owner)
        good = True
        info = liveness.storages[owner]
        for member in info.chain:
            for producer in network[member].producers:
                source = network[producer].storage_index
                if source == owner:
                    continue
                if not materializable(source, stack):
                    good = False
        stack.discard(owner)
        memo[owner] = good
        return good

    for owner in sorted(plan.dropped):
        if not materializable(owner, set()):
            report.add(
                "SP405",
                f"dropped storage Y{owner} ({network[owner].name}) "
                f"cannot be re-materialized before its backward "
                f"consumer: regeneration bottoms out at freed state")
    return report


# ----------------------------------------------------------------------
# SP406: serve ServicePlan accounting
# ----------------------------------------------------------------------
def verify_service_plan(
    network: Network,
    system: Optional[SystemConfig],
    algos: AlgoConfig,
    plan,
    subject: str = "",
) -> Report:
    """Check a :class:`~repro.serve.layering.ServicePlan`'s invariants.

    Re-derives the plan's weight accounting from first principles
    (per-layer weights), checks its activation term against the
    compiled plan's forward peak, and checks the pipeline identities
    that must hold for any serial-DMA/serial-compute recurrence.  Pass
    ``system=None`` to skip the SP401 footprint-vs-budget warning; the
    forward peak does not depend on the system, so it is then compiled
    under :data:`~repro.hw.PAPER_SYSTEM`.
    """
    from ..core.inference import weight_load_bytes
    from ..serve.layering import streamed_layer_bytes

    report = Report(subject=subject or
                    f"{plan.model} serve[{plan.residency}] [static]")
    weights = weight_load_bytes(network)
    streamed = streamed_layer_bytes(network, plan)

    if plan.persistent_bytes + plan.streamed_bytes != plan.weight_bytes:  # repro: allow(LINT204)
        report.add(
            "SP406",
            f"persistent {plan.persistent_bytes} + streamed "
            f"{plan.streamed_bytes} != total weights "
            f"{plan.weight_bytes} bytes")
    if sum(streamed.values()) != plan.streamed_bytes:  # repro: allow(LINT204)
        report.add(
            "SP406",
            f"streamed_bytes {plan.streamed_bytes} disagrees with the "
            f"per-layer streamed map (sums to {sum(streamed.values())})")
    unknown = sorted(set(plan.pinned_layers) - set(weights))
    if unknown:
        report.add(
            "SP406",
            f"pinned layers {unknown} have no weights to pin")
    pinned_sum = sum(weights[i] for i in plan.pinned_layers
                     if i in weights)
    if pinned_sum != plan.persistent_bytes:  # repro: allow(LINT204)
        report.add(
            "SP406",
            f"pinned layers sum to {pinned_sum} bytes but "
            f"persistent_bytes is {plan.persistent_bytes}")
    if plan.residency == "resident" and plan.streamed_bytes:
        report.add(
            "SP406",
            f"resident plan streams {plan.streamed_bytes} bytes — "
            f"resident residency must keep every weight on-device")
    if plan.residency == "layered" and plan.persistent_bytes:
        report.add(
            "SP406",
            f"layered plan pins {plan.persistent_bytes} bytes — "
            f"layered residency keeps nothing persistent")
    if plan.streamed_bytes:
        largest = max(streamed.values(), default=0)
        if plan.window_bytes < largest:
            report.add(
                "SP406",
                f"window of {plan.window_bytes} bytes cannot hold the "
                f"largest streamed layer ({largest} bytes): the "
                f"pipeline can never make progress")
    elif plan.window_bytes or plan.dma_seconds or plan.stall_seconds:
        report.add(
            "SP406",
            f"nothing streams but window={plan.window_bytes}, "
            f"dma={plan.dma_seconds}, stall={plan.stall_seconds} are "
            f"not all zero")
    if plan.stall_seconds > plan.dma_seconds + 1e-9:
        report.add(
            "SP406",
            f"stall {plan.stall_seconds}s exceeds total DMA "
            f"{plan.dma_seconds}s: compute can only idle while a "
            f"transfer is in flight")
    if not math.isclose(plan.service_seconds,
                        plan.compute_seconds + plan.stall_seconds,
                        rel_tol=1e-9, abs_tol=1e-12):
        report.add(
            "SP406",
            f"service {plan.service_seconds}s != compute "
            f"{plan.compute_seconds}s + stall {plan.stall_seconds}s")
    expected_act = compiled_plan(network, system or PAPER_SYSTEM,
                                 algos).forward_peak_bytes
    if plan.activation_bytes != expected_act:  # repro: allow(LINT204)
        report.add(
            "SP406",
            f"activation_bytes {plan.activation_bytes} disagrees with "
            f"the compiled forward peak {expected_act}")
    if system is not None \
            and plan.footprint_bytes > system.gpu.memory_bytes:
        report.add(
            "SP401",
            f"service footprint {plan.footprint_bytes} bytes exceeds "
            f"GPU capacity {system.gpu.memory_bytes} bytes")
    return report
