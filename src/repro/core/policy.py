"""vDNN memory-transfer policies (Section III-C).

A policy answers one question per layer: *should this layer offload its
input feature maps to host memory during its forward computation?*  The
paper evaluates two static answers plus a dynamic one:

* ``vDNN_all``  — every feature-extraction layer offloads its X: the most
  memory-efficient choice;
* ``vDNN_conv`` — only CONV layers offload (their long forward latency
  hides the transfer);
* ``vDNN_none`` — nothing offloads (used by the dynamic policy's "fits
  entirely in GPU memory" configuration);
* custom offload sets, which the dynamic policy (and ablations) build.

Mechanism-level eligibility (refcounts, in-place ACTV exclusion,
classifier exclusion) is enforced by the executor, not here — a policy
only expresses intent, like the paper's per-layer ``offloaded`` flag.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from ..graph.layer import LayerKind
from ..graph.network import Network, NetworkNode


class PolicyKind(enum.Enum):
    ALL = "all"
    CONV = "conv"
    NONE = "none"
    COMP = "comp"
    CUSTOM = "custom"


@dataclass(frozen=True)
class TransferPolicy:
    """Which layers offload their input feature maps.

    Use the factory classmethods; ``CUSTOM`` policies carry an explicit
    set of layer indices allowed to offload, plus the subset of those
    whose transfers ride the compressing DMA engine.  ``COMP`` offloads
    everywhere ``ALL`` does but compresses every transfer.
    """

    kind: PolicyKind
    offload_layers: FrozenSet[int] = field(default_factory=frozenset)
    compress_layers: FrozenSet[int] = field(default_factory=frozenset)

    # -- factories ------------------------------------------------------
    @classmethod
    def vdnn_all(cls) -> "TransferPolicy":
        return cls(PolicyKind.ALL)

    @classmethod
    def vdnn_conv(cls) -> "TransferPolicy":
        return cls(PolicyKind.CONV)

    @classmethod
    def none(cls) -> "TransferPolicy":
        return cls(PolicyKind.NONE)

    @classmethod
    def vdnn_comp(cls) -> "TransferPolicy":
        return cls(PolicyKind.COMP)

    @classmethod
    def named(cls, name: str) -> "TransferPolicy":
        """The fixed policy called ``name``: all, conv, comp or none."""
        if name not in ("all", "conv", "comp", "none"):
            raise ValueError(f"policy must be one of ('all', 'conv', "
                             f"'comp', 'none'), got {name!r}")
        return cls(PolicyKind(name))

    @classmethod
    def custom(cls, offload_layers,
               compress_layers=()) -> "TransferPolicy":
        return cls(PolicyKind.CUSTOM, frozenset(offload_layers),
                   frozenset(compress_layers))

    # -- queries --------------------------------------------------------
    def wants_offload(self, node: NetworkNode) -> bool:
        """Policy intent for one layer's input X.

        ACTV (and DROPOUT) layers never offload: they are refactored
        in-place and their backward uses only Y and dY, "obviating the
        need for memory offloading" (Section III-B).  Classifier layers
        are outside vDNN's scope (Section III).
        """
        if not node.is_feature_extraction:
            return False
        if node.kind in (LayerKind.ACTV, LayerKind.DROPOUT, LayerKind.INPUT):
            return False
        if self.kind in (PolicyKind.ALL, PolicyKind.COMP):
            return True
        if self.kind is PolicyKind.CONV:
            return node.kind is LayerKind.CONV
        if self.kind is PolicyKind.NONE:
            return False
        return node.index in self.offload_layers

    def compresses(self, index: int) -> bool:
        """Whether layer ``index``'s offload DMA uses the cDMA engine."""
        if self.kind is PolicyKind.COMP:
            return True
        return index in self.compress_layers

    def offload_set(self, network: Network) -> FrozenSet[int]:
        """All layer indices this policy would like to offload."""
        return frozenset(n.index for n in network if self.wants_offload(n))

    def describe(self) -> str:
        if self.kind is PolicyKind.CUSTOM:
            return f"custom({len(self.offload_layers)} layers)"
        return f"vDNN_{self.kind.value}"
