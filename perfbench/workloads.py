"""The three workloads: what one pass runs, and how its output is checked.

A pass is a list of *units* (one zoo network for the grids, one seeded
arrival stream swept over every rate for ``serve_mix``).  Each unit is
timed on its own; a run repeats the pass and reports, per unit, the
median over passes, which keeps a burst of host noise inside one unit
of one pass.  Every pass starts with cold simulation caches.  Units
import the program's entry points when called, not when built, so the
trace wrappers installed between passes are the ones they call.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import sys
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: ``--seed`` default and the seed kept back for checking later claims.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

#: verify_dynamic: the zoo minus its deepest nets (resnet152, vgg316,
#: vgg416: 60 s of the 73 s serial grid) and vgg116; vgg216 keeps a
#: 446-layer network in the grid.
DYNAMIC_NETWORKS = ("alexnet", "googlenet", "lstm", "overfeat", "resnet18",
                    "resnet34", "resnet50", "rnn", "vgg16", "vgg216")

SERVE_MODELS = ("vgg16", "googlenet", "alexnet", "resnet50")
SERVE_BUDGET = 2 << 30
SERVE_SLO = 0.25
SERVE_RATES = (15.0, 30.0, 45.0, 60.0)
SERVE_REQUESTS = 1500
#: Independent arrival streams per run, each swept over every rate;
#: the simulated metrics pool all of them.
SERVE_STREAMS = 5
P99_RATE = 30.0
GOODPUT_RATE = 60.0
#: Simulated-clock metrics of serve_mix (0 on the grid workloads).
SIM_METRICS = ("sim_p99_ms", "sim_p99_samples", "sim_goodput_rps",
               "sim_slo_rate_rps", "serve.queue_p99_ms", "serve.stall_share",
               "serve.cold_starts", "serve.evictions", "serve.window_shrinks",
               "serve.shed", "serve.rejected")

WHY = {
    "verify_static": (
        "static_plan.verify_zoo_static over the 140-point zoo grid: "
        "joint-ladder probes and plan compiles dominate; no executor, "
        "allocator churn, result cache or hb/safety pass runs."),
    "verify_dynamic": (
        "verify_zoo(mode=dynamic, jobs=1) over 10 networks (100 points, "
        "vgg216 has 446 layers): executor walk, PoolAllocator training "
        "churn, result cache and the hb/safety sanitizer."),
    "serve_mix": (
        "simulate_serving, vgg16 layered + googlenet/alexnet/resnet50 "
        "resident in one 2 GiB pool, open-loop Poisson at 15/30/45/60 "
        "rps: serve.layering/server and install/evict allocator use."),
}


# ----------------------------------------------------------------------
# Cold state
# ----------------------------------------------------------------------
def cold_start() -> None:
    """Empty every in-process memo a fresh ``repro`` process starts without."""
    import functools

    from repro.perf.cache import get_cache

    # Compiled plans need no clearing: they are memoized per network
    # object, and every unit builds its networks afresh.
    get_cache().clear()
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for value in vars(module).values():
            if isinstance(value, functools._lru_cache_wrapper):
                value.cache_clear()
    gc.collect()


# ----------------------------------------------------------------------
# Grid checks
# ----------------------------------------------------------------------
def result_digest(result) -> str:
    """sha256 over an IterationResult's summary, usage curve and events.

    The ``result_digest`` form of ``benchmarks/bench_core_speed.py``:
    floats rendered with ``repr``, so equal digests mean bit-identical
    results.
    """
    lines = [
        f"network={result.network_name}",
        f"policy={result.policy_label}",
        f"algo={result.algo_label}",
        f"trainable={result.trainable}",
        f"failure={result.failure}",
        f"managed_max_bytes={result.managed_max_bytes}",
        f"managed_avg_bytes={result.managed_avg_bytes!r}",
        f"external_bytes={result.external_bytes}",
        f"persistent_bytes={result.persistent_bytes}",
        f"total_time={result.total_time!r}",
        f"feature_extraction_time={result.feature_extraction_time!r}",
        f"offload_bytes={result.offload_bytes}",
        f"prefetch_bytes={result.prefetch_bytes}",
        f"pinned_peak_bytes={result.pinned_peak_bytes}",
        f"compute_stall_seconds={result.compute_stall_seconds!r}",
        f"offloaded_layers={result.offloaded_layers}",
        "usage=" + ";".join(
            f"{t!r}:{b}" for t, b in result.usage.curve()),
    ]
    lines.extend(
        f"{e.stream}|{e.kind.value}|{e.label}|{e.start!r}|{e.end!r}"
        f"|{e.nbytes}|{e.layer_index}"
        for e in result.timeline.events
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def point_key(subject: str) -> str:
    """``"vgg16 all(m)"`` from a report subject with any ``(...)`` note."""
    return subject.split(" (", 1)[0]


def verdict(report) -> str:
    if "skipped" in report.subject:
        return "skipped"
    return "clean" if report.ok else "error"


def load_pins() -> dict:
    with open(PINS_PATH) as handle:
        return json.load(handle)


def check_reports(reports, pins: dict) -> Dict[str, str]:
    """Failing point -> problem, for one grid unit's reports.

    A point fails on an ERROR diagnostic or a verdict other than the
    pinned one; both grids check the same pins, so their shared points
    must agree.
    """
    bad = {}
    for report in reports:
        key = point_key(report.subject)
        got = verdict(report)
        want = pins["verdicts"].get(key)
        if got == "error" or got != want:
            bad[key] = f"{key}: verdict {got}, pinned {want}"
    return bad


def check_digests(digests: Dict[str, str], pins: dict,
                  network: str) -> Dict[str, str]:
    """Failing point -> problem, for one network's simulated results."""
    want = {k: pins["digests"][k] for k in pins["points"][network]}
    return {key: f"{key}: digest {str(digests.get(key))[:12]}, pinned "
                 f"{str(want.get(key))[:12]}"
            for key in sorted(set(want) | set(digests))
            if digests.get(key) != want.get(key)}


# ----------------------------------------------------------------------
# Grid units
# ----------------------------------------------------------------------
def static_units() -> List[Tuple[str, Callable[[], list]]]:
    from repro.zoo import available

    def unit(name: str) -> list:
        from repro.analysis.static_plan import verify_zoo_static
        return verify_zoo_static(names=[name])

    return [(name, lambda name=name: unit(name)) for name in available()]


def dynamic_units() -> List[Tuple[str, Callable[[], list]]]:
    def unit(name: str) -> list:
        from repro.analysis.verify import verify_zoo
        return verify_zoo(names=[name], jobs=1, mode="dynamic")

    return [(name, lambda name=name: unit(name))
            for name in DYNAMIC_NETWORKS]


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def stream_seeds(seed: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 31) for _ in range(SERVE_STREAMS)]


def serve_config(rate: float, stream_seed: int):
    from repro.serve import ArrivalSpec, ModelSpec, ServeConfig

    return ServeConfig(
        models=tuple(ModelSpec(name) for name in SERVE_MODELS),
        arrivals=ArrivalSpec("poisson", rate=rate, seed=stream_seed),
        requests=SERVE_REQUESTS, budget_bytes=SERVE_BUDGET,
        slo_seconds=SERVE_SLO, residency="auto")


def serve_units(seed: int) -> List[Tuple[str, Callable[[], list]]]:
    def sweep(stream_seed: int) -> list:
        from repro.serve import simulate_serving
        return [simulate_serving(serve_config(rate, stream_seed))
                for rate in SERVE_RATES]

    return [(f"stream{i}", lambda s=s: sweep(s))
            for i, s in enumerate(stream_seeds(seed))]


def warm_service_seconds() -> Dict[str, float]:
    """Each model's warm per-request time under its unshrunk plan.

    Planned independently of the server (same residency rule as
    ``residency=auto``): the lower bound on any completed latency.
    """
    from repro.core.algo_config import AlgoConfig
    from repro.hw.config import SystemConfig
    from repro.serve import plan_service
    from repro.zoo import build

    config = serve_config(SERVE_RATES[0], 0)
    share = SERVE_BUDGET // len(SERVE_MODELS)
    system = SystemConfig()
    out = {}
    for name in SERVE_MODELS:
        network = build(name, config.batch)
        algos = AlgoConfig.memory_optimal(network)
        plan = plan_service(network, system, algos, "resident")
        if plan.footprint_bytes > share:
            plan = plan_service(network, system, algos, "layered",
                                window_bytes=config.window_bytes)
        out[name] = plan.service_seconds
    return out


def check_serve(result, warm: Dict[str, float]) -> List[str]:
    """Conservation, pool budget, and no request faster than warm service."""
    problems = []
    config = result.config
    outcomes = result.completed + result.shed + result.rejected
    if len(result.records) != config.requests or outcomes != config.requests:
        problems.append(
            f"rate {config.arrivals.rate:g}: {outcomes} outcomes / "
            f"{len(result.records)} records for {config.requests} arrivals")
    if result.pool_peak_bytes > config.budget_bytes:
        problems.append(
            f"rate {config.arrivals.rate:g}: pool peak "
            f"{result.pool_peak_bytes} > budget {config.budget_bytes}")
    # Latency is finish - arrival with finish = start + service, so
    # rounding at the arrival instant's magnitude is tolerated.
    for record in result.records:
        if record.outcome == "completed" \
                and record.latency < warm[record.model] - 1e-9:
            problems.append(
                f"rate {config.arrivals.rate:g}: request {record.rid} "
                f"({record.model}) took {record.latency!r} s < warm "
                f"service {warm[record.model]!r} s")
            break
    return problems


def records_digest(results: Sequence) -> str:
    """sha256 over every request's fate: passes must agree exactly."""
    text = "\n".join(
        f"{r.config.arrivals.rate!r}|{rec.rid}|{rec.model}|{rec.outcome}|"
        f"{rec.start!r}|{rec.finish!r}"
        for r in results for rec in r.records)
    return hashlib.sha256(text.encode()).hexdigest()


def exact_quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with >= q of the mass."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def slo_rate(sweep: Dict[float, Tuple[float, int]], slo: float) -> float:
    """Highest rate that it and every lower rate serve within the SLO.

    ``sweep`` maps rate -> (p99 seconds, shed + rejected); a rate meets
    the SLO when its p99 is within ``slo`` and nothing was dropped.
    Returns 0.0 when even the lowest rate misses.
    """
    best = 0.0
    for rate in sorted(sweep):
        p99, dropped = sweep[rate]
        if p99 > slo or dropped:
            break
        best = rate
    return best


class ServeTally:
    """Simulated-clock aggregates over every stream of one pass."""

    def __init__(self) -> None:
        self.latency: Dict[float, List[float]] = {r: [] for r in SERVE_RATES}
        self.queue: Dict[float, List[float]] = {r: [] for r in SERVE_RATES}
        self.dropped: Dict[float, int] = {r: 0 for r in SERVE_RATES}
        self.good: Dict[float, int] = {r: 0 for r in SERVE_RATES}
        self.makespan: Dict[float, float] = {r: 0.0 for r in SERVE_RATES}
        self.stall = 0.0
        self.service = 0.0
        self.totals = {"cold_starts": 0, "evictions": 0,
                       "window_shrinks": 0, "shed": 0, "rejected": 0}

    def add(self, result) -> None:
        rate = result.config.arrivals.rate
        slo = result.config.slo_seconds
        for record in result.records:
            if record.outcome != "completed":
                continue
            self.latency[rate].append(record.latency)
            self.queue[rate].append(record.start - record.arrival)
            self.service += record.finish - record.start
            self.good[rate] += record.latency <= slo
        self.stall += sum(
            h.sum for h in result.obs.registry.metrics()
            if h.name == "repro_stall_seconds"
            and dict(h.labels).get("cause") == "demand-fetch")
        self.dropped[rate] += result.shed + result.rejected
        self.makespan[rate] += result.makespan
        for key in self.totals:
            self.totals[key] += getattr(result, key)

    def metrics(self) -> Dict[str, float]:
        sweep = {rate: (exact_quantile(self.latency[rate], 0.99),
                        self.dropped[rate]) for rate in SERVE_RATES}
        out = {
            "sim_p99_ms": 1e3 * sweep[P99_RATE][0],
            "sim_p99_samples": len(self.latency[P99_RATE]),
            "sim_goodput_rps": self.good[GOODPUT_RATE]
            / self.makespan[GOODPUT_RATE],
            "sim_slo_rate_rps": slo_rate(sweep, SERVE_SLO),
            "serve.queue_p99_ms": 1e3 * exact_quantile(
                self.queue[P99_RATE], 0.99),
            "serve.stall_share": self.stall / self.service,
        }
        out.update({f"serve.{k}": v for k, v in self.totals.items()})
        return out
