"""Online inference serving: demand layering on one virtualized GPU.

vDNN virtualizes training's feature maps; this package virtualizes
serving's *weights*.  An open-loop request stream
(:mod:`~repro.serve.arrivals`) drains through a single modeled GPU
whose memory is one shared pool; each model serves under a residency
policy (:mod:`~repro.serve.layering`) — classic ``resident``,
``layered`` demand streaming through a sliding PCIe window, or a
``pinned`` hybrid — while the event loop
(:mod:`~repro.serve.server`) multiplexes installs, evictions and an
overload ladder (shrink window, shed low-priority, reject).  Reports
(:mod:`~repro.serve.report`) read p50/p95/p99 and SLO attainment
straight from the observability histograms.  See docs/serving.md.
"""

from .arrivals import (
    ARRIVAL_KINDS,
    ArrivalSpec,
    ArrivalSpecError,
    ModelSpec,
    Request,
    generate_requests,
    parse_models,
)
from .layering import (
    RESIDENCY_POLICIES,
    ServePlanError,
    ServicePlan,
    plan_service,
    shrink_window,
)
from .report import SERVE_SCHEMA, fleet_stats, model_stats, serve_json, \
    serve_report
from .server import (
    RESIDENCY_CHOICES,
    RequestRecord,
    ServeConfig,
    ServeConfigError,
    ServeResult,
    simulate_serving,
)

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalSpec",
    "ArrivalSpecError",
    "ModelSpec",
    "RESIDENCY_CHOICES",
    "RESIDENCY_POLICIES",
    "Request",
    "RequestRecord",
    "SERVE_SCHEMA",
    "ServeConfig",
    "ServeConfigError",
    "ServePlanError",
    "ServeResult",
    "ServicePlan",
    "fleet_stats",
    "generate_requests",
    "model_stats",
    "parse_models",
    "plan_service",
    "serve_json",
    "serve_report",
    "shrink_window",
    "simulate_serving",
]
