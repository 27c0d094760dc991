"""vDNN core: memory-transfer policies, executor, dynamic planner."""

from .algo_config import AlgoConfig
from .api import compare_policies, evaluate, oracular_baseline
from .cached import cached_baseline, cached_recompute, cached_vdnn
from .capacity import CapacityReport, capacity_report, max_trainable_batch
from .paging import PagingReport, paging_vs_vdnn, simulate_page_migration
from .parallel import (
    DataParallelReport,
    min_gpus_for_baseline,
    simulate_data_parallel,
)
from .inference import (
    baseline_inference_bytes,
    simulate_inference,
    weight_load_bytes,
)
from .joint import (
    JointConfig,
    JointDecision,
    JointPlan,
    UndroppableTriggerError,
    plan_joint,
    simulate_joint,
    simulate_joint_config,
)
from .planner import TrainingRunPlan, plan_training_run
from .recompute import RecomputePlan, plan_recompute, simulate_recompute
from .dynamic import (
    DynamicPlan,
    ProfilingPass,
    UntrainableError,
    plan_dynamic,
    simulate_dynamic,
)
from .executor import (
    IterationResult,
    baseline_allocation_bytes,
    simulate_baseline,
    simulate_vdnn,
)
from .liveness import LivenessAnalysis, StorageInfo
from .policy import PolicyKind, TransferPolicy
from .prefetcher import PrefetchState, find_prefetch_layer

__all__ = [
    "AlgoConfig",
    "CapacityReport",
    "DataParallelReport",
    "DynamicPlan",
    "JointConfig",
    "JointDecision",
    "JointPlan",
    "PagingReport",
    "RecomputePlan",
    "TrainingRunPlan",
    "IterationResult",
    "LivenessAnalysis",
    "PolicyKind",
    "PrefetchState",
    "ProfilingPass",
    "StorageInfo",
    "TransferPolicy",
    "UndroppableTriggerError",
    "UntrainableError",
    "baseline_allocation_bytes",
    "cached_baseline",
    "cached_recompute",
    "cached_vdnn",
    "capacity_report",
    "compare_policies",
    "evaluate",
    "find_prefetch_layer",
    "max_trainable_batch",
    "min_gpus_for_baseline",
    "oracular_baseline",
    "paging_vs_vdnn",
    "plan_dynamic",
    "plan_joint",
    "plan_recompute",
    "plan_training_run",
    "baseline_inference_bytes",
    "simulate_baseline",
    "simulate_data_parallel",
    "simulate_dynamic",
    "simulate_inference",
    "simulate_joint",
    "simulate_joint_config",
    "simulate_page_migration",
    "simulate_recompute",
    "simulate_vdnn",
    "weight_load_bytes",
]
