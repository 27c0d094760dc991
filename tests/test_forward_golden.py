"""Golden bit-identity fixtures for the forward-only models.

Freezes :func:`~repro.core.simulate_inference` (digested with the same
:func:`result_digest` as the core goldens: summary fields, the usage
step function and every event) and :func:`~repro.serve.plan_service`
(every :class:`~repro.serve.ServicePlan` field, floats by ``repr``)
under all three residencies, plus one :func:`~repro.serve.shrink_window`
re-plan taken above the window floor.

ResNet-50 is in the grid because some of its forward steps release a
dead input and an input needed backward at once: the inference walk
must free them in input order.

A diff here means forward-only behaviour changed.  Regenerate only for
an intended change, with the core goldens' switch::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_forward_golden.py
"""

import dataclasses
import hashlib
import json
import os

import pytest

from test_core_golden import GOLDEN_DIR, _REGEN, result_digest

from repro.core import AlgoConfig, simulate_inference
from repro.hw import PAPER_SYSTEM
from repro.serve import plan_service, shrink_window
from repro.zoo import build

GOLDEN_PATH = os.path.join(GOLDEN_DIR, "forward.json")

NETWORKS = ("alexnet", "googlenet", "vgg16", "resnet50")
ALGOS = ("m", "p")
BATCHES = (1, 32)
MIB = 1 << 20


def plan_digest(plan):
    """sha256 over every ServicePlan field, floats rendered by ``repr``."""
    lines = [f"{field.name}={getattr(plan, field.name)!r}"
             for field in dataclasses.fields(plan)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _service_plan(network, algos, residency):
    """Default 64 MiB window; ``pinned`` may pin half the weights."""
    return plan_service(network, PAPER_SYSTEM, algos, residency,
                        pinned_bytes=network.total_weight_bytes() // 2)


def _payload():
    payload = {}
    for name in NETWORKS:
        for batch in BATCHES:
            network = build(name, batch)
            for algo in ALGOS:
                algos = AlgoConfig.named(network, algo)
                key = f"{name}_{algo}_b{batch}"
                result = simulate_inference(network, PAPER_SYSTEM, algos)
                payload[f"inference_{key}"] = {
                    "digest": result_digest(result),
                    "managed_max_bytes": result.managed_max_bytes,
                    "total_time": repr(result.total_time),
                }
                for residency in ("resident", "layered", "pinned"):
                    plan = _service_plan(network, algos, residency)
                    payload[f"serve_{key}_{residency}"] = {
                        "digest": plan_digest(plan),
                        "footprint_bytes": plan.footprint_bytes,
                        "service_seconds": repr(plan.service_seconds),
                    }
    payload["shrink_alexnet_m_b1_layered"] = _shrink_above_floor()
    return payload


def _shrink_above_floor():
    """One halving that really re-plans: a 512 MiB window on AlexNet."""
    network = build("alexnet", 1)
    algos = AlgoConfig.named(network, "m")
    plan = plan_service(network, PAPER_SYSTEM, algos, "layered",
                        window_bytes=512 * MIB)
    smaller = shrink_window(network, PAPER_SYSTEM, algos, plan)
    assert smaller.window_bytes < plan.window_bytes
    return {
        "digest": plan_digest(smaller),
        "window_bytes": smaller.window_bytes,
        "stall_seconds": repr(smaller.stall_seconds),
    }


@pytest.fixture(scope="module")
def payload():
    return _payload()


@pytest.fixture(scope="module")
def golden(payload):
    if _REGEN:
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_fixture_covers_the_grid(golden, payload):
    assert sorted(golden) == sorted(payload)
    assert len(golden) == len(NETWORKS) * len(BATCHES) * len(ALGOS) * 4 + 1


@pytest.mark.parametrize("kind", ["inference", "serve", "shrink"])
def test_forward_golden(kind, golden, payload):
    drifted = sorted(key for key in golden
                     if key.startswith(kind + "_")
                     and payload.get(key) != golden[key])
    assert not drifted, (
        f"{drifted} drifted from tests/golden/forward.json (bit "
        f"identity); if intentional, regenerate with REPRO_REGEN_GOLDEN=1 "
        f"(see module docstring)")
