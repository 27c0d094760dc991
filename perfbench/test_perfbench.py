"""Self-tests for the benchmark's own code.

Run with ``python3 perfbench/test_perfbench.py`` (or pytest on this
file) from the repository root.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_metric_name_charset():
    for good in ("setup_s", "plan.memo_hit_ratio", "9lives", "a-b_c.d",
                 "x" * 64):
        assert run.valid_name(good), good
    for bad in ("", "_lead", ".lead", "has space", "slash/x", "x" * 65,
                "ünï", "p99%"):
        assert not run.valid_name(bad), bad


def test_declared_metrics_are_valid_and_unique():
    spec = run.load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(run.valid_name(n) for n in names)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WHY)
    assert set(workloads.SIM_METRICS) <= set(names)


def test_self_time_on_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.5, 4.0, 5.0, 6.0, 10.0,
                  20.0, 21.0, 23.0, 24.5, 29.0, 30.0])
    tracer = Tracer(clock=lambda: next(ticks))
    root = tracer.enter("bench.unit")              # 0 .. 10
    a = tracer.enter("plan.compile")               # 1 .. 6
    b = tracer.enter("walk.simulate")              # 2 .. 3.5
    tracer.exit(b)
    tracer.leaf("alloc.alloc", lambda: None)       # 4 .. 5, under a
    tracer.exit(a)
    tracer.exit(root)
    root2 = tracer.enter("bench.unit")             # 20 .. 30
    tracer.leaf("alloc.alloc", lambda: None)       # 21 .. 23, under root2
    c = tracer.enter("walk.simulate")              # 24.5 .. 29
    tracer.exit(c)
    tracer.exit(root2)
    times = self_times(tracer.spans, tracer.leaves)
    assert times == {"bench.unit": (10 - 5) + (10 - 2 - 4.5),
                     "plan.compile": 5 - 1.5 - 1,
                     "walk.simulate": 1.5 + 4.5,
                     "alloc.alloc": 1 + 2}
    assert sum(times.values()) == 20.0
    assert tracer.counts["alloc.alloc"] == 2 and not tracer.errors


def test_nested_call_inside_leaf_is_an_error():
    tracer = Tracer()
    tracer.leaf("alloc.alloc", lambda: tracer.span("walk.simulate",
                                                   lambda: None))
    assert tracer.errors


def test_digest_check_fires_on_one_perturbed_result():
    from repro.analysis.verify import verify_zoo
    import repro.analysis.verify as verify

    digests = {}
    original = verify.verify_result

    def capture(result, network=None, subject=""):
        if subject.endswith("all(m)"):
            result.total_time = math.nextafter(result.total_time, math.inf)
        digests[workloads.point_key(subject)] = \
            workloads.result_digest(result)
        return original(result, network=network, subject=subject)

    verify.verify_result = capture
    try:
        verify_zoo(names=["alexnet"], mode="dynamic")
    finally:
        verify.verify_result = original
    pins = workloads.load_pins()
    bad = workloads.check_digests(digests, pins, "alexnet")
    assert list(bad) == ["AlexNet(128) all(m)"], bad
    digests.pop("AlexNet(128) all(m)")
    assert list(workloads.check_digests(digests, pins, "alexnet")) \
        == ["AlexNet(128) all(m)"]


def test_slo_rate_selection():
    slo = 0.25
    assert workloads.slo_rate(
        {15: (0.1, 0), 30: (0.2, 0), 45: (0.3, 0), 60: (0.9, 4)}, slo) == 30
    # A drop disqualifies a rate even with p99 inside the SLO.
    assert workloads.slo_rate({15: (0.1, 0), 30: (0.2, 1)}, slo) == 15
    # Boundary: p99 equal to the SLO meets it.
    assert workloads.slo_rate({15: (0.25, 0)}, slo) == 15
    # Sustained rates only: a lucky higher rate above a miss is ignored.
    assert workloads.slo_rate({15: (0.3, 0), 30: (0.2, 0)}, slo) == 0.0


def test_exact_quantile_is_nearest_rank():
    values = list(range(1, 101))
    assert workloads.exact_quantile(values, 0.99) == 99
    assert workloads.exact_quantile(values, 1.0) == 100
    assert workloads.exact_quantile([5.0], 0.99) == 5.0


def test_pins_cover_both_grids():
    pins = workloads.load_pins()
    assert sum(len(p) for p in pins["points"].values()) == 140
    for name in workloads.DYNAMIC_NETWORKS:
        assert set(pins["points"][name]) <= set(pins["digests"])
    assert json.dumps(pins, sort_keys=True)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
