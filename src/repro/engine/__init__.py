"""Execution engine: lowering, cost model, and discrete-event simulation."""

from repro.engine.compiler import CompileReport, compile_time, unique_gemm_classes
from repro.engine.executor import (
    DEFAULT_CONFIG,
    EngineConfig,
    RunResult,
    build_core,
    run,
)
from repro.engine.fusion_apply import FusionPlan, apply_fusion_plan
from repro.engine.lowering import (
    KernelTask,
    LoweredOp,
    kernel_count,
    lower_graph,
    lower_op,
)
from repro.engine.modes import ExecutionMode
from repro.engine.pp import (
    PP_DISABLED,
    PP_STAGE_CACHE,
    PPConfig,
    ParallelConfig,
    partition_lowered,
    stage_boundary_bytes,
    validate_pp,
)
from repro.engine.tp import (
    TP_DISABLED,
    DispatchMode,
    TPConfig,
    shard_lowered,
    validate_tp,
)

# The in-order stream model moved into the simulation core; the old name is
# kept as an alias for downstream code.
from repro.sim.resources import StreamResource as GpuStream

__all__ = [
    "CompileReport",
    "DEFAULT_CONFIG",
    "DispatchMode",
    "EngineConfig",
    "ExecutionMode",
    "FusionPlan",
    "GpuStream",
    "KernelTask",
    "LoweredOp",
    "PP_DISABLED",
    "PP_STAGE_CACHE",
    "PPConfig",
    "ParallelConfig",
    "RunResult",
    "TP_DISABLED",
    "TPConfig",
    "apply_fusion_plan",
    "build_core",
    "partition_lowered",
    "stage_boundary_bytes",
    "validate_pp",
    "compile_time",
    "kernel_count",
    "lower_graph",
    "lower_op",
    "run",
    "shard_lowered",
    "unique_gemm_classes",
    "validate_tp",
]
