"""Functional training runtime: real numpy training under a memory manager.

This is the proof that the vDNN mechanism is *correct*, not only fast on
paper: a :class:`TrainingRuntime` executes forward/backward passes with
real numpy buffers in a byte-budgeted :class:`~repro.numerics.heap.DeviceHeap`,
driven by the **same** liveness analysis, transfer policy and Figure-10
prefetcher as the performance simulator.  Offloaded feature maps really
leave the device heap (and really come back), released buffers are really
gone, and gradients for fork/join topologies really accumulate — so the
tests can demand that training under ``vDNN_all`` is *bitwise identical*
to training with everything resident, while using a fraction of the
device budget.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from ..core.liveness import LivenessAnalysis, StorageInfo
from ..core.policy import TransferPolicy
from ..core.prefetcher import PrefetchState, find_prefetch_layer
from ..graph.layer import (
    Activation,
    ActivationKind,
    BatchNorm,
    Concat,
    Conv2D,
    Dropout,
    EltwiseAdd,
    EltwiseMul,
    FullyConnected,
    LayerKind,
    LRN,
    Pool2D,
    PoolMode,
    Slice,
)
from ..graph.network import Network, NetworkNode
from . import ops
from .heap import DeviceHeap, HostHeap
from .initializers import init_bias, init_weight
from .optim import SGD


@dataclass
class StepResult:
    """Metrics from one training step."""

    loss: float
    device_peak_bytes: int
    device_live_bytes: int
    host_peak_bytes: int
    offload_count: int
    prefetch_count: int
    demand_fetch_count: int


@dataclass
class _StepState:
    """Per-step transient bookkeeping."""

    offloaded_at: Dict[int, List[StorageInfo]] = field(default_factory=dict)
    prefetch_flags: Optional[PrefetchState] = None
    initialized_gradients: Set[int] = field(default_factory=set)
    demand_fetches: int = 0


def _activation_ops(kind: ActivationKind):
    return {
        ActivationKind.RELU: (ops.relu_forward, ops.relu_backward),
        ActivationKind.SIGMOID: (ops.sigmoid_forward, ops.sigmoid_backward),
        ActivationKind.TANH: (ops.tanh_forward, ops.tanh_backward),
    }[kind]


class TrainingRuntime:
    """Trains a network with numpy under a device-memory budget.

    Args:
        network: the DNN (must end in a Softmax layer for training).
        policy: vDNN transfer policy; :meth:`TransferPolicy.none` keeps
            everything resident (the baseline behaviour).
        device_budget_bytes: hard cap on simultaneous device bytes;
            ``None`` means effectively unlimited.
        host_budget_bytes: cap on offloaded (pinned) bytes.
        seed: controls weight init, synthetic dropout masks.
        learning_rate / momentum: SGD hyperparameters.
        recompute_segments: split the droppable feature maps into this
            many checkpoint segments and recompute the rest in backward
            propagation; ``None`` disables recomputation, and a count
            below 1 raises ``ValueError`` as ``checkpoint_plan`` does.
    """

    def __init__(
        self,
        network: Network,
        policy: Optional[TransferPolicy] = None,
        device_budget_bytes: Optional[int] = None,
        host_budget_bytes: Optional[int] = None,
        seed: int = 0,
        learning_rate: float = 0.01,
        momentum: float = 0.0,
        recompute_segments: Optional[int] = None,
        optimizer=None,
    ):
        self.network = network
        self.policy = policy or TransferPolicy.none()
        self.liveness = LivenessAnalysis(network)
        self.device = DeviceHeap(device_budget_bytes or (1 << 50))
        self.host = HostHeap(host_budget_bytes)
        # Any object with step(key, param, grad) works (SGD, Adam, ...).
        self.optimizer = optimizer if optimizer is not None \
            else SGD(learning_rate, momentum)
        self.seed = seed
        self.step_count = 0
        self.recompute_count = 0
        self._dead_resident: Set[int] = set()
        self._plan_recompute(recompute_segments)

        output = network.output_node
        if output.kind is not LayerKind.SOFTMAX:
            raise ValueError(
                f"training requires a terminal Softmax layer, the network "
                f"ends in {output.kind.value}"
            )

        # Persistent parameters and their gradient buffers.  Weight-tied
        # layers own nothing: they read (and accumulate into) their
        # root's buffers.
        for node in network:
            if node.is_weight_tied:
                continue
            weight = init_weight(node, seed)
            if weight is not None:
                self.device.store(self._wkey(node.index), weight)
                self.device.store(self._dwkey(node.index), np.zeros_like(weight))
            bias = init_bias(node, seed)
            if bias is not None:
                self.device.store(self._bkey(node.index), bias)
                self.device.store(self._dbkey(node.index), np.zeros_like(bias))
        self._persistent_keys = set(self.device.keys)

    def _plan_recompute(self, recompute_segments: Optional[int]) -> None:
        """Pick sqrt(L)-style checkpoints when recomputation is enabled.

        Gradient checkpointing drops non-checkpoint feature-extraction
        storages after their last forward use and regenerates them by
        replaying forward kernels during backward propagation.

        It composes with an offloading policy (the hybrid explored by
        the SuperNeurons follow-up): storages the policy offloads are
        excluded from dropping — each buffer is either moved to host
        memory *or* recomputed, never both — and recompute replays
        prefetch any offloaded inputs they flow through.
        """
        self._dropped: Set[int] = set()
        self._droppable_order: List[int] = []
        if recompute_segments is None:
            return
        if recompute_segments < 1:
            raise ValueError(f"segment_count must be at least 1, got "
                             f"{recompute_segments}")
        offloaded_owners = {
            s.owner for s in self.liveness.all_storages()
            if s.needed_backward and self.policy.wants_offload(
                self.network[s.forward_release_at])
        }
        droppable = [
            s for s in self.liveness.all_storages()
            if s.needed_backward
            and s.owner not in offloaded_owners
            and self.network[s.owner].is_feature_extraction
            and self.network[s.owner].kind is not LayerKind.INPUT
        ]
        droppable.sort(key=lambda s: s.owner)
        stride = max(1, -(-len(droppable) // recompute_segments))
        self._droppable_order = [s.owner for s in droppable]
        self._dropped = {
            s.owner for i, s in enumerate(droppable) if i % stride != 0
        }

    # -- key helpers -----------------------------------------------------
    @staticmethod
    def _ykey(owner: int) -> str:
        return f"Y{owner}"

    @staticmethod
    def _gkey(owner: int) -> str:
        return f"G{owner}"

    @staticmethod
    def _wkey(index: int) -> str:
        return f"W{index}"

    @staticmethod
    def _bkey(index: int) -> str:
        return f"B{index}"

    @staticmethod
    def _dwkey(index: int) -> str:
        return f"dW{index}"

    @staticmethod
    def _dbkey(index: int) -> str:
        return f"dB{index}"

    def _weight_index(self, node: NetworkNode) -> int:
        """Resolve weight tying: the index whose W/B buffers this
        layer's kernels read and whose dW/dB its gradients feed."""
        return node.weight_root

    def _dropout_seed(self, node: NetworkNode) -> int:
        return (
            self.seed * 0x9E3779B1
            + self.step_count * 1000003
            + zlib.crc32(node.name.encode())
        ) % (2 ** 31)

    # -- parameter access --------------------------------------------------
    def weights(self, layer_name: str) -> np.ndarray:
        """The live weight tensor of a CONV/FC layer (by name)."""
        node = self.network.node(layer_name)
        return self.device.get(self._wkey(self._weight_index(node)))

    def parameter_fingerprint(self) -> int:
        """CRC over every parameter, for cheap bitwise-equality checks."""
        crc = 0
        for node in self.network:
            for key in (self._wkey(node.index), self._bkey(node.index)):
                if self.device.contains(key):
                    crc = zlib.crc32(self.device.get(key).tobytes(), crc)
        return crc

    # -- forward -----------------------------------------------------------
    def _input_arrays(self, node: NetworkNode) -> List[np.ndarray]:
        arrays = []
        for producer in node.producers:
            owner = self.network[producer].storage_index
            arrays.append(self.device.get(self._ykey(owner)))
        return arrays

    def _forward_node(self, node: NetworkNode, training: bool) -> np.ndarray:
        layer = node.layer
        inputs = self._input_arrays(node)

        if node.kind is LayerKind.CONV:
            assert isinstance(layer, Conv2D)
            widx = self._weight_index(node)
            w = self.device.get(self._wkey(widx))
            b = self.device.get(self._bkey(widx)) if layer.bias else None
            return ops.conv2d_forward(inputs[0], w, b, layer.stride, layer.pad)
        if node.kind is LayerKind.ACTV:
            assert isinstance(layer, Activation)
            forward, _ = _activation_ops(layer.activation)
            return forward(inputs[0])
        if node.kind is LayerKind.POOL:
            assert isinstance(layer, Pool2D)
            _, _, oh, ow = node.output_spec.shape
            if layer.mode is PoolMode.MAX:
                return ops.maxpool_forward(
                    inputs[0], layer.kernel, layer.stride, layer.pad, oh, ow
                )
            return ops.avgpool_forward(
                inputs[0], layer.kernel, layer.stride, layer.pad, oh, ow
            )
        if node.kind is LayerKind.LRN:
            assert isinstance(layer, LRN)
            return ops.lrn_forward(
                inputs[0], layer.local_size, layer.alpha, layer.beta, layer.k
            )
        if node.kind is LayerKind.FC:
            assert isinstance(layer, FullyConnected)
            widx = self._weight_index(node)
            w = self.device.get(self._wkey(widx))
            b = self.device.get(self._bkey(widx)) if layer.bias else None
            return ops.fc_forward(inputs[0], w, b)
        if node.kind is LayerKind.DROPOUT:
            assert isinstance(layer, Dropout)
            return ops.dropout_forward(
                inputs[0], layer.rate, self._dropout_seed(node), training
            )
        if node.kind is LayerKind.CONCAT:
            return ops.concat_forward(inputs)
        if node.kind is LayerKind.ADD:
            return ops.eltwise_add_forward(inputs)
        if node.kind is LayerKind.MUL:
            return ops.eltwise_mul_forward(inputs[0], inputs[1])
        if node.kind is LayerKind.BN:
            assert isinstance(layer, BatchNorm)
            gamma = self.device.get(self._wkey(node.index))
            beta = self.device.get(self._bkey(node.index))
            return ops.batchnorm_forward(inputs[0], gamma, beta, layer.epsilon)
        if node.kind is LayerKind.SLICE:
            assert isinstance(layer, Slice)
            return ops.slice_forward(inputs[0], layer.begin, layer.end)
        if node.kind is LayerKind.SOFTMAX:
            return ops.softmax_forward(inputs[0])
        raise ValueError(f"cannot execute layer kind {node.kind}")

    def _run_forward(self, images: np.ndarray, training: bool,
                     step: Optional[_StepState]) -> None:
        input_spec = self.network.input_node.output_spec
        if tuple(images.shape) != tuple(input_spec.shape):
            raise ValueError(
                f"batch shape {images.shape} does not match network input "
                f"{input_spec.shape}"
            )
        self.device.store(self._ykey(0), images.astype(ops.DTYPE, copy=False))

        for index in self.network.forward_schedule():
            node = self.network[index]
            if node.kind is not LayerKind.INPUT:
                y = self._forward_node(node, training)
                owner = node.storage_index
                if node.in_place:
                    self.device.get(self._ykey(owner))[...] = y
                else:
                    self.device.store(self._ykey(owner), y)

            # Release / offload / drop inputs whose last consumer we are.
            for storage in self.liveness.input_storages(index):
                if storage.forward_release_at != index:
                    continue
                key = self._ykey(storage.owner)
                if training and self._dropped and storage.owner == 0:
                    # Recompute replays may need the input batch (e.g.
                    # to re-slice timesteps); keep it for the whole step.
                    continue
                if not training or not storage.needed_backward:
                    self.device.free(key)
                elif storage.owner in self._dropped:
                    self.device.free(key)  # regenerated during backward
                elif step is not None and self.policy.wants_offload(node):
                    self.host.offload(key, self.device.pop(key))
                    step.offloaded_at.setdefault(index, []).append(storage)
                    step.prefetch_flags.mark_offloaded(index)

    # -- backward ----------------------------------------------------------
    def _restore(self, storage: StorageInfo) -> None:
        key = self._ykey(storage.owner)
        self.device.store(key, self.host.prefetch(key))

    def _recompute_storage(self, owner: int) -> None:
        """Regenerate a dropped storage by replaying forward kernels.

        Replays the contiguous run of dropped storages from the nearest
        resident checkpoint up to ``owner``, recursing for any producer
        from an earlier (also dropped) segment.  Dropout masks replay
        identically because their seeds depend only on (step, layer).
        """
        if self.device.contains(self._ykey(owner)):
            return
        if owner in self._droppable_order:
            position = self._droppable_order.index(owner)
            start = position
            while start > 0 and not self.device.contains(
                    self._ykey(self._droppable_order[start - 1])):
                if self._droppable_order[start - 1] not in self._dropped:
                    break  # a released boundary; replay from here
                start -= 1
            to_rebuild = self._droppable_order[start:position + 1]
        else:
            # A dead intermediate (released because backward never reads
            # it, e.g. a BN output feeding only an ADD) that the replay
            # nevertheless flows through: regenerate just its chain and
            # discard it again after the current backward step.
            to_rebuild = [owner]
            self._dead_resident.add(owner)

        rebuild_set = set(to_rebuild)
        for owner_index in to_rebuild:
            storage = self.liveness.storages[owner_index]
            for member in storage.chain:
                for producer in self.network[member].producers:
                    source = self.network[producer].storage_index
                    if source in rebuild_set:
                        continue
                    if self.device.contains(self._ykey(source)):
                        continue
                    if self.host.contains(self._ykey(source)):
                        # Hybrid mode: the replay flows through an
                        # offloaded buffer — prefetch it back.
                        self._restore(self.liveness.storages[source])
                    else:
                        self._recompute_storage(source)

        for owner_index in to_rebuild:
            if self.device.contains(self._ykey(owner_index)):
                continue  # regenerated by a recursive ensure above
            storage = self.liveness.storages[owner_index]
            for member in storage.chain:
                node = self.network[member]
                y = self._forward_node(node, training=True)
                key = self._ykey(owner_index)
                if node.in_place:
                    self.device.get(key)[...] = y
                else:
                    self.device.store(key, y)
                self.recompute_count += 1

    def _accumulate_gradient(self, owner: int, value: np.ndarray,
                             step: _StepState) -> None:
        """Write (or add) a dX contribution into a storage's gradient twin."""
        key = self._gkey(owner)
        if owner in step.initialized_gradients:
            self.device.get(key)[...] += value
        else:
            self.device.store(key, np.ascontiguousarray(value))
            step.initialized_gradients.add(owner)

    def _backward_node(self, node: NetworkNode, labels: np.ndarray,
                       step: _StepState) -> None:
        layer = node.layer
        own_g = self._gkey(node.storage_index)

        if node.kind is LayerKind.SOFTMAX:
            probs = self.device.get(self._ykey(node.storage_index))
            dx = ops.softmax_cross_entropy_backward(probs, labels)
            self._push_to_producer(node, dx, step)
            return

        dy = self.device.get(own_g)

        if node.kind is LayerKind.CONV:
            assert isinstance(layer, Conv2D)
            x = self._input_arrays(node)[0]
            widx = self._weight_index(node)
            w = self.device.get(self._wkey(widx))
            dx, dw, db = ops.conv2d_backward(
                x, w, dy, layer.stride, layer.pad, layer.bias
            )
            self.device.get(self._dwkey(widx))[...] += dw
            if db is not None:
                self.device.get(self._dbkey(widx))[...] += db
            self._push_to_producer(node, dx, step)
        elif node.kind is LayerKind.FC:
            assert isinstance(layer, FullyConnected)
            x = self._input_arrays(node)[0]
            widx = self._weight_index(node)
            w = self.device.get(self._wkey(widx))
            dx, dw, db = ops.fc_backward(x, w, dy, layer.bias)
            self.device.get(self._dwkey(widx))[...] += dw
            if db is not None:
                self.device.get(self._dbkey(widx))[...] += db
            self._push_to_producer(node, dx, step)
        elif node.kind is LayerKind.ACTV:
            assert isinstance(layer, Activation)
            _, backward = _activation_ops(layer.activation)
            y = self.device.get(self._ykey(node.storage_index))
            dy[...] = backward(y, dy)  # in-place, like the forward pass
        elif node.kind is LayerKind.DROPOUT:
            assert isinstance(layer, Dropout)
            dy[...] = ops.dropout_backward(
                dy, layer.rate, self._dropout_seed(node), training=True
            )
        elif node.kind is LayerKind.POOL:
            assert isinstance(layer, Pool2D)
            if layer.mode is PoolMode.MAX:
                x = self._input_arrays(node)[0]
                y = self.device.get(self._ykey(node.storage_index))
                dx = ops.maxpool_backward(
                    x, y, dy, layer.kernel, layer.stride, layer.pad
                )
            else:
                # Average pooling's backward needs only dY; the input
                # buffer may already be released, so take the shape from
                # the graph, never from a live array.
                x_shape = self.network[node.producers[0]].output_spec.shape
                dx = ops.avgpool_backward(
                    x_shape, dy, layer.kernel, layer.stride, layer.pad
                )
            self._push_to_producer(node, dx, step)
        elif node.kind is LayerKind.LRN:
            assert isinstance(layer, LRN)
            x = self._input_arrays(node)[0]
            y = self.device.get(self._ykey(node.storage_index))
            dx = ops.lrn_backward(
                x, y, dy, layer.local_size, layer.alpha, layer.beta, layer.k
            )
            self._push_to_producer(node, dx, step)
        elif node.kind is LayerKind.CONCAT:
            channel_counts = [
                self.network[p].output_spec.shape[1] for p in node.producers
            ]
            parts = ops.concat_backward(dy, channel_counts)
            for producer, part in zip(node.producers, parts):
                owner = self.network[producer].storage_index
                if self.network[owner].kind is not LayerKind.INPUT:
                    self._accumulate_gradient(owner, part, step)
        elif node.kind is LayerKind.ADD:
            for producer in node.producers:
                owner = self.network[producer].storage_index
                if self.network[owner].kind is not LayerKind.INPUT:
                    self._accumulate_gradient(owner, dy, step)
        elif node.kind is LayerKind.MUL:
            a, b = self._input_arrays(node)
            da, db = ops.eltwise_mul_backward(a, b, dy)
            for producer, dx in zip(node.producers, (da, db)):
                owner = self.network[producer].storage_index
                if self.network[owner].kind is not LayerKind.INPUT:
                    self._accumulate_gradient(owner, dx, step)
        elif node.kind is LayerKind.BN:
            assert isinstance(layer, BatchNorm)
            x = self._input_arrays(node)[0]
            gamma = self.device.get(self._wkey(node.index))
            dx, dgamma, dbeta = ops.batchnorm_backward(
                x, gamma, dy, layer.epsilon
            )
            self.device.get(self._dwkey(node.index))[...] += dgamma
            self.device.get(self._dbkey(node.index))[...] += dbeta
            self._push_to_producer(node, dx, step)
        elif node.kind is LayerKind.SLICE:
            assert isinstance(layer, Slice)
            producer = node.producers[0]
            owner = self.network[producer].storage_index
            if self.network[owner].kind is not LayerKind.INPUT:
                x_shape = self.network[producer].output_spec.shape
                self._accumulate_gradient(
                    owner, ops.slice_backward(x_shape, dy, layer.begin,
                                              layer.end), step,
                )
        else:
            raise ValueError(f"cannot differentiate layer kind {node.kind}")

    def _push_to_producer(self, node: NetworkNode, dx: np.ndarray,
                          step: _StepState) -> None:
        """Route a single-input layer's dX into its producer's twin."""
        producer = node.producers[0]
        owner = self.network[producer].storage_index
        if self.network[owner].kind is LayerKind.INPUT:
            return  # no gradient for the input batch
        self._accumulate_gradient(owner, dx, step)

    def _run_backward(self, labels: np.ndarray, step: _StepState) -> None:
        for index in self.network.backward_schedule():
            node = self.network[index]

            # Figure-10 prefetch, overlapped in the real system; here we
            # restore eagerly so availability semantics are identical.
            target = find_prefetch_layer(
                self.network, step.prefetch_flags, index
            )
            if target is not None:
                for storage in step.offloaded_at.get(target, []):
                    if self.host.contains(self._ykey(storage.owner)):
                        self._restore(storage)

            # Safety net: anything the kernel reads must be resident —
            # prefetched back from the host, or regenerated by replay.
            for storage in self._required_storages(node):
                if self.device.contains(self._ykey(storage.owner)):
                    continue
                if storage.owner in self._dropped:
                    self._recompute_storage(storage.owner)
                else:
                    self._restore(storage)
                    step.demand_fetches += 1

            self._backward_node(node, labels, step)

            # Figure-8 releases.
            for storage in self.liveness.all_storages():
                key = self._ykey(storage.owner)
                if storage.needed_backward and \
                        storage.backward_release_after == index and \
                        self.device.contains(key):
                    self.device.free(key)
                gkey = self._gkey(storage.owner)
                if storage.gradient_release_after == index and \
                        storage.owner in step.initialized_gradients:
                    self.device.free(gkey)
                    step.initialized_gradients.discard(storage.owner)

            # Drop any dead intermediates regenerated for this step's
            # recompute replays.
            for owner in self._dead_resident:
                key = self._ykey(owner)
                if self.device.contains(key):
                    self.device.free(key)
            self._dead_resident.clear()

    def _required_storages(self, node: NetworkNode) -> List[StorageInfo]:
        required: Dict[int, StorageInfo] = {}
        if node.layer.backward_needs_x:
            for storage in self.liveness.input_storages(node.index):
                required[storage.owner] = storage
        if node.layer.backward_needs_y:
            storage = self.liveness.storage_of(node.index)
            required[storage.owner] = storage
        return list(required.values())

    # -- public API ---------------------------------------------------------
    def train_step(self, images: np.ndarray, labels: np.ndarray) -> StepResult:
        """One SGD step: forward, loss, backward, parameter update."""
        step = _StepState(prefetch_flags=PrefetchState.for_network(self.network))
        # Weight gradients accumulate (weight tying may contribute from
        # several layers), so zero them before every step.
        for node in self.network:
            for key in (self._dwkey(node.index), self._dbkey(node.index)):
                if self.device.contains(key):
                    self.device.get(key)[...] = 0
        self._run_forward(images, training=True, step=step)

        output = self.network.output_node
        probs = self.device.get(self._ykey(output.storage_index))
        loss = ops.cross_entropy_loss(probs, labels)

        self._run_backward(labels, step)

        for node in self.network:
            wkey = self._wkey(node.index)
            if self.device.contains(wkey):
                self.optimizer.step(
                    wkey, self.device.get(wkey), self.device.get(self._dwkey(node.index))
                )
            bkey = self._bkey(node.index)
            if self.device.contains(bkey):
                self.optimizer.step(
                    bkey, self.device.get(bkey), self.device.get(self._dbkey(node.index))
                )

        self._release_leftovers()
        self.step_count += 1
        return StepResult(
            loss=loss,
            device_peak_bytes=self.device.peak_bytes,
            device_live_bytes=self.device.live_bytes,
            host_peak_bytes=self.host.peak_bytes,
            offload_count=self.host.offload_count,
            prefetch_count=self.host.prefetch_count,
            demand_fetch_count=step.demand_fetches,
        )

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Inference: forward only, freeing buffers at last use (Fig. 7)."""
        self._run_forward(images, training=False, step=None)
        output = self.network.output_node
        key = self._ykey(output.storage_index)
        probs = self.device.get(key).copy()
        self._release_leftovers()
        return probs

    def train(self, batches) -> List[StepResult]:
        """Convenience loop over an iterable of (images, labels)."""
        return [self.train_step(images, labels) for images, labels in batches]

    def _release_leftovers(self) -> None:
        for key in self.device.keys - self._persistent_keys:
            self.device.free(key)

    def transient_keys(self):
        """Non-persistent buffers currently resident (should be empty
        between steps — tests assert this)."""
        return self.device.keys - self._persistent_keys
