"""The program's layers, as traced entry points, and the traced metrics.

:func:`install` wraps each layer's public entry points with
:mod:`tracer` spans and adds the counters that the cross-checks in
:func:`cross_check` compare with the program's own accounting:

* result-cache hits/misses seen by the wrapper vs ``CacheStats``;
* probes counted inside the ladders vs the probe lists the planners
  return;
* allocator calls seen by the wrapper vs each ``PoolAllocator``'s own
  alloc/free counters.

A binding the installer missed shows up as a mismatch there, instead
of as time silently charged to the caller.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Dict, List

from tracer import ROOT, Installation, Tracer, layer_of, leafing, observing, \
    patch_function, patch_method, self_times, spanning


class Counters:
    """Counts the wrappers take besides span counts."""

    def __init__(self) -> None:
        self.cache_hits = 0
        self.cache_misses = 0
        self.probes: Dict[str, int] = {"joint": 0, "dyn": 0}
        self.returned_probes = 0
        self.pools: List[object] = []


def _wrap_probe(bound: inspect.BoundArguments, counters: Counters,
                kind: str) -> None:
    probe = bound.arguments["probe"]

    def counted(*args, **kwargs):
        counters.probes[kind] += 1
        return probe(*args, **kwargs)

    bound.arguments["probe"] = counted


def install(tracer: Tracer) -> "tuple[Installation, Counters]":
    """Wrap every layer entry point; returns (installation, counters)."""
    # import_module, not "import a.b as b": repro.perf re-exports a
    # function named ``fingerprint`` that shadows the submodule.
    (hb, safety, static_plan, _verify, dynamic, executor, joint, plan,
     recompute, fingerprint, layering, server, registry) = (
        importlib.import_module(f"repro.{name}") for name in (
            "analysis.hb", "analysis.safety", "analysis.static_plan",
            "analysis.verify", "core.dynamic", "core.executor",
            "core.joint", "core.plan", "core.recompute",
            "perf.fingerprint", "serve.layering", "serve.server",
            "zoo.registry"))
    from repro.alloc.pool import PoolAllocator
    from repro.perf.cache import SimulationCache

    inst = Installation()
    counters = Counters()

    def span(module, attr, name):
        patch_function(inst, module, attr, spanning(tracer, name))

    span(registry, "build", "graph.build")
    span(plan, "compiled_plan", "plan.compiled_plan")
    patch_method(inst, plan.CompiledPlan, "__init__",
                 spanning(tracer, "plan.compile"))
    span(static_plan, "interpret_plan", "static.interpret")
    span(static_plan, "interpret_joint_plan", "static.interpret")
    span(static_plan, "audit_plan", "static.audit")
    span(executor, "simulate_baseline", "walk.simulate")
    span(executor, "simulate_vdnn", "walk.simulate")
    span(joint, "simulate_joint_config", "walk.simulate")
    span(recompute, "simulate_recompute", "walk.simulate")
    span(fingerprint, "fingerprint_point", "perf.fingerprint")
    patch_method(inst, hb.HBGraph, "__init__", spanning(tracer, "hb.graph"))
    span(hb, "check_races", "hb.races")
    span(safety, "check_memory_safety", "safety.check")
    span(layering, "plan_service", "serve.plan")
    span(layering, "shrink_window", "serve.plan")
    span(server, "simulate_serving", "serve.sim")

    for attr, kind, name in (
            ("run_joint_ladder", "joint", "ladder.joint"),
            ("run_profiling_ladder", "dyn", "ladder.dyn")):
        module = joint if kind == "joint" else dynamic

        def make(original, kind=kind, name=name):
            signature = inspect.signature(original)

            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                _wrap_probe(bound, counters, kind)
                return tracer.span(name, original, *bound.args,
                                   **bound.kwargs)
            return wrapper
        patch_function(inst, module, attr, make)

    def count_passes(result) -> None:
        passes = result.passes if hasattr(result, "passes") else result[2]
        counters.returned_probes += len(passes)

    for module, attr in ((dynamic, "plan_dynamic"), (joint, "plan_joint"),
                         (static_plan, "plan_dynamic_static"),
                         (static_plan, "plan_joint_static")):
        patch_function(inst, module, attr, observing(count_passes))

    def cache_make(original):
        def wrapper(self, key, compute):
            missed = []

            def counted_compute():
                missed.append(True)
                return compute()

            try:
                return tracer.span("cache.get_or_compute", original, self,
                                   key, counted_compute)
            finally:
                if missed:
                    counters.cache_misses += 1
                else:
                    counters.cache_hits += 1
        return wrapper
    patch_method(inst, SimulationCache, "get_or_compute", cache_make)

    patch_method(inst, PoolAllocator, "alloc",
                 leafing(tracer, "alloc.alloc"))
    patch_method(inst, PoolAllocator, "free", leafing(tracer, "alloc.free"))

    def pool_make(original):
        def wrapper(self, *args, **kwargs):
            original(self, *args, **kwargs)
            counters.pools.append(self)
        return wrapper
    patch_method(inst, PoolAllocator, "__init__", pool_make)
    return inst, counters


def cross_check(tracer: Tracer, counters: Counters, cache_stats) -> List[str]:
    """Wrapper counts vs the program's own counters; [] when all agree."""
    problems = list(tracer.errors)
    if counters.cache_hits != cache_stats.hits \
            or counters.cache_misses != cache_stats.misses:
        problems.append(
            f"cache: wrapper saw {counters.cache_hits} hits/"
            f"{counters.cache_misses} misses, CacheStats has "
            f"{cache_stats.hits}/{cache_stats.misses}")
    probes = sum(counters.probes.values())
    if probes != counters.returned_probes:
        problems.append(
            f"ladder: wrapper counted {probes} probes, planners returned "
            f"{counters.returned_probes}")
    for op, key in (("alloc.alloc", "allocs"), ("alloc.free", "frees")):
        own = sum(pool.stats[key] for pool in counters.pools)
        if tracer.counts[op] != own:
            problems.append(
                f"alloc: wrapper counted {tracer.counts[op]} {key}, "
                f"pools counted {own}")
    compiles = [s for s in tracer.spans if s[0] == "plan.compile"]
    stray = [s for s in compiles
             if s[3] < 0 or tracer.spans[s[3]][0] != "plan.compiled_plan"]
    if stray:
        problems.append(f"plan: {len(stray)} compiles outside compiled_plan")
    return problems


def per_layer(tracer: Tracer, counters: Counters) -> Dict[str, float]:
    """The host-clock per-layer metrics of one traced pass."""
    by_name = self_times(tracer.spans, tracer.leaves)
    by_layer: Dict[str, float] = {}
    for name, seconds in by_name.items():
        layer = layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    counts = tracer.counts

    def named(name: str) -> float:
        return by_name.get(name, 0.0)

    lookups = counts["plan.compiled_plan"]
    compiles = counts["plan.compile"]
    cache_calls = counters.cache_hits + counters.cache_misses
    return {
        "graph.build_s": by_layer.get("graph", 0.0),
        "graph.build_calls": counts["graph.build"],
        "plan.compile_s": by_layer.get("plan", 0.0),
        "plan.compile_calls": compiles,
        "plan.memo_hit_ratio": (lookups - compiles) / lookups
        if lookups else 0.0,
        "ladder.joint_s": named("ladder.joint"),
        "ladder.joint_probes": counters.probes["joint"],
        "ladder.dyn_s": named("ladder.dyn"),
        "ladder.dyn_probes": counters.probes["dyn"],
        "static.interpret_s": named("static.interpret"),
        "static.interpret_calls": counts["static.interpret"],
        "static.audit_s": named("static.audit"),
        "walk.simulate_s": by_layer.get("walk", 0.0),
        "walk.simulate_calls": counts["walk.simulate"],
        "alloc.calls": counts["alloc.alloc"] + counts["alloc.free"],
        "alloc.s": by_layer.get("alloc", 0.0),
        "perf.fingerprint_s": by_layer.get("perf", 0.0),
        "cache.s": by_layer.get("cache", 0.0),
        "cache.hits": counters.cache_hits,
        "cache.misses": counters.cache_misses,
        "cache.hit_ratio": counters.cache_hits / cache_calls
        if cache_calls else 0.0,
        "hb.s": by_layer.get("hb", 0.0),
        "safety.s": by_layer.get("safety", 0.0),
        "serve.plan_s": named("serve.plan"),
        "serve.sim_s": named("serve.sim"),
        "trace.unattributed_s": named(ROOT + ".unit"),
        "trace.check_s": named(ROOT + ".check"),
    }
