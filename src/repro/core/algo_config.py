"""Per-layer convolution-algorithm configuration.

The paper evaluates every policy under two algorithm regimes
(Section V): memory-optimal ``(m)`` — implicit GEMM everywhere, zero
workspace — and performance-optimal ``(p)`` — the fastest applicable
algorithm per layer, workspace be damned.  The dynamic policy then mixes
regimes per layer.  :class:`AlgoConfig` is that per-layer mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..graph.layer import Conv2D, LayerKind
from ..graph.network import Network, NetworkNode
from ..kernels.conv_algos import (
    AlgoProfile,
    memory_optimal_profile,
    next_cheaper_algo,
    performance_optimal_algo,
)


@dataclass
class AlgoConfig:
    """Chosen convolution algorithm (and its workspace) per CONV layer."""

    label: str
    profiles: Dict[int, AlgoProfile] = field(default_factory=dict)

    # -- factories ------------------------------------------------------
    @classmethod
    def named(cls, network: Network, label: str) -> "AlgoConfig":
        """The ``(m)`` or ``(p)`` regime by its label."""
        if label == "m":
            return cls.memory_optimal(network)
        if label == "p":
            return cls.performance_optimal(network)
        raise ValueError(f"algo must be one of ('m', 'p'), got {label!r}")

    @classmethod
    def memory_optimal(cls, network: Network) -> "AlgoConfig":
        """Implicit GEMM everywhere — the paper's ``(m)`` regime."""
        config = cls(label="m")
        for node in network.conv_layers:
            layer = node.layer
            assert isinstance(layer, Conv2D)
            input_spec = network[node.producers[0]].output_spec
            config.profiles[node.index] = memory_optimal_profile(
                layer, input_spec, node.output_spec
            )
        return config

    @classmethod
    def performance_optimal(
        cls, network: Network, workspace_limit: Optional[int] = None
    ) -> "AlgoConfig":
        """Fastest applicable algorithm per layer — the ``(p)`` regime."""
        config = cls(label="p")
        for node in network.conv_layers:
            layer = node.layer
            assert isinstance(layer, Conv2D)
            input_spec = network[node.producers[0]].output_spec
            config.profiles[node.index] = performance_optimal_algo(
                layer, input_spec, node.output_spec, workspace_limit
            )
        return config

    # -- queries / edits ------------------------------------------------
    def profile(self, node: NetworkNode) -> Optional[AlgoProfile]:
        return self.profiles.get(node.index)

    def workspace_bytes(self, node: NetworkNode) -> int:
        profile = self.profiles.get(node.index)
        return profile.workspace_bytes if profile else 0

    def max_workspace_bytes(self) -> int:
        """Largest single-layer workspace — the baseline's shared WS size."""
        return max((p.workspace_bytes for p in self.profiles.values()), default=0)

    def total_workspace_bytes(self) -> int:
        return sum(p.workspace_bytes for p in self.profiles.values())

    def downgrade(self, network: Network, layer_index: int) -> bool:
        """Swap one layer to the fastest *smaller-workspace* algorithm.

        Implements the vDNN_dyn greedy step: "the given layer's
        convolutional algorithm will be locally downgraded into a less
        performant but more memory-efficient one, until it reaches the
        memory-optimal implicit GEMM" (Section III-C).  Returns False
        when the layer is already at zero workspace.  The label is left
        alone: the downgrade pass running the step owns it.
        """
        node = network[layer_index]
        if node.kind is not LayerKind.CONV:
            raise ValueError(f"layer {layer_index} is not a CONV layer")
        current = self.profiles[layer_index]
        if current.workspace_bytes == 0:
            return False
        layer = node.layer
        assert isinstance(layer, Conv2D)
        input_spec = network[node.producers[0]].output_spec
        cheaper = next_cheaper_algo(
            current.algo, layer, input_spec, node.output_spec
        )
        if cheaper is None:
            return False
        self.profiles[layer_index] = cheaper
        return True

    def copy(self) -> "AlgoConfig":
        return AlgoConfig(label=self.label, profiles=dict(self.profiles))
