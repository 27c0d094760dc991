"""repro — full reproduction of vDNN (Rhu et al., MICRO 2016).

vDNN is a runtime memory manager that virtualizes DNN training memory
across GPU and CPU: feature maps are offloaded to pinned host memory
during forward propagation (overlapped with compute on a second CUDA
stream) and prefetched back during backward propagation, so networks
whose network-wide footprint far exceeds physical GPU memory become
trainable with little performance loss.

This package provides:

* ``repro.graph`` — DNN dataflow graphs with shape inference, in-place
  aliasing, and consumer refcounts;
* ``repro.zoo`` — every network configuration the paper studies;
* ``repro.hw`` / ``repro.kernels`` / ``repro.sim`` — models of the
  Titan X, cuDNN 4.0's convolution algorithms, and two-stream execution;
* ``repro.alloc`` — the cnmem-style pool allocator;
* ``repro.core`` — the vDNN manager itself (static all/conv policies,
  Figure-10 prefetching, and the dynamic profiling-pass planner);
* ``repro.numerics`` — a numpy training runtime that executes the same
  manager decisions on real buffers, proving bit-identical training;
* ``repro.profiler`` / ``repro.reporting`` — the measurement code behind
  every figure in the paper's evaluation.

Quick start::

    from repro import zoo
    from repro.core import evaluate

    result = evaluate(zoo.build("vgg16", 256), policy="dyn")
    print(result.trainable, result.max_usage_bytes)
"""

import importlib

from . import (
    alloc,
    core,
    graph,
    hw,
    kernels,
    profiler,
    reporting,
    sim,
    zoo,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "alloc",
    "core",
    "graph",
    "hw",
    "kernels",
    "numerics",
    "profiler",
    "reporting",
    "sim",
    "zoo",
]


def __getattr__(name: str):
    # ``numerics`` pulls in numpy, which no simulator path needs: it is
    # imported on first access instead of with the package.
    if name == "numerics":
        return importlib.import_module(".numerics", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
