"""SKIP: System-aware Kernel Inference Profiler (the paper's core tool)."""

from repro.skip.attribution import (
    AttributionReport,
    OperatorAttribution,
    attribute_costs,
    attribution_table,
)
from repro.skip.classify import (
    Boundedness,
    TransitionPoint,
    classify_metrics,
    find_transition,
)
from repro.engine.fusion_apply import select_nonoverlapping
from repro.skip.depgraph import DependencyGraph, LaunchRecord, OpNode
from repro.skip.diff import KernelDelta, ProfileDiff, diff_metrics, diff_report
from repro.skip.roofline import (
    KernelRegime,
    KernelRooflinePoint,
    RooflineReport,
    classify_kernels,
)
from repro.skip.fusion import (
    DEFAULT_CHAIN_LENGTHS,
    FusionAnalysis,
    analyze_segments,
    analyze_trace,
    best_speedup,
    combined_plan,
)
from repro.skip.metrics import (
    DeviceMetrics,
    IterationMetrics,
    KernelAggregate,
    SkipMetrics,
    compute_metrics,
)
from repro.skip.profiler import ProfileResult, SkipProfiler
from repro.skip.proximity import (
    ChainStats,
    MiningResult,
    kernel_segments,
    mine_chains,
)
from repro.skip.report import (
    fusion_report,
    metrics_report,
    profile_report,
    top_kernels_report,
    transition_report,
)

__all__ = [
    "AttributionReport",
    "Boundedness",
    "OperatorAttribution",
    "attribute_costs",
    "attribution_table",
    "ChainStats",
    "DEFAULT_CHAIN_LENGTHS",
    "DependencyGraph",
    "FusionAnalysis",
    "KernelDelta",
    "KernelRegime",
    "KernelRooflinePoint",
    "ProfileDiff",
    "RooflineReport",
    "classify_kernels",
    "diff_metrics",
    "diff_report",
    "IterationMetrics",
    "KernelAggregate",
    "LaunchRecord",
    "MiningResult",
    "OpNode",
    "ProfileResult",
    "DeviceMetrics",
    "SkipMetrics",
    "SkipProfiler",
    "TransitionPoint",
    "analyze_segments",
    "analyze_trace",
    "best_speedup",
    "classify_metrics",
    "combined_plan",
    "compute_metrics",
    "find_transition",
    "fusion_report",
    "kernel_segments",
    "metrics_report",
    "mine_chains",
    "profile_report",
    "select_nonoverlapping",
    "top_kernels_report",
    "transition_report",
]
