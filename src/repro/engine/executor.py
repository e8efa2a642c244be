"""Execution engine entry point, built on the discrete-event core.

Simulates eager (and compiled) LLM inference on a coupled platform. The
engine constructs a :class:`repro.sim.SimCore` topology — ``tp.degree`` GPU
devices with in-order streams and a GPU-GPU interconnect link — and runs the
execution mode as one or more CPU dispatch processes on it
(:mod:`repro.engine.processes`). It emits a PyTorch-Profiler-style trace
that SKIP consumes — the same contract the paper has between PyTorch
Profiler and SKIP.

Timing rules (all per the platform model):

* operator dispatch occupies the CPU for the op's reference cost scaled by
  the CPU's dispatch score (compiled modes pay a small guard cost instead);
* each ``cudaLaunchKernel`` occupies the CPU for the platform's runtime-call
  time, and the kernel reaches the GPU a launch latency later;
* a kernel starts at ``max(arrival, stream free)`` — the gap from launch-call
  begin to kernel begin is the paper's ``t_l`` (Eq. 1);
* the CUDA runtime's bounded launch queue blocks the CPU when it runs too
  far ahead of the GPU;
* every iteration ends with a ``cudaDeviceSynchronize``.

Tensor parallelism (``tp.degree > 1``) shards attention/MLP kernels across
devices and inserts ring all-reduce collectives priced by the interconnect
model (:mod:`repro.engine.tp`). At ``tp.degree == 1`` the engine reproduces
the legacy single-device executor's traces bit for bit; their digests are
frozen in ``tests/golden/data/legacy_engine_digests.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, overload

from repro.engine.cache import LOWERING_CACHE
from repro.engine.compiler import CompileReport, apply_inductor_fusion, compile_time
from repro.engine.fusion_apply import FusionPlan, apply_fusion_plan
from repro.engine.lowering import KernelTask, LoweredOp, lower_graph
from repro.engine.modes import ExecutionMode
from repro.engine.pp import (
    PP_DISABLED,
    PP_STAGE_CACHE,
    PPConfig,
    partition_lowered,
    pp_stage_processes,
    validate_pp,
)
from repro.engine.pricing import price_step, priceable
from repro.engine.processes import (
    graph_replay_process,
    per_device_launch_processes,
    single_thread_launch_process,
)
from repro.engine.tp import (
    DispatchMode,
    TP_DISABLED,
    TPConfig,
    shard_lowered,
    validate_tp,
)
from repro.errors import (
    ConfigurationError, require_non_negative, require_positive,
)
from repro.hardware.platform import Platform
from repro.obs.events import StepKind
from repro.obs.recorder import RunRecorder
from repro.sim.causality import CausalityLog
from repro.sim.core import SimCore
from repro.sim.resources import LinkResource
from repro.trace.builder import TraceBuilder
from repro.trace.tape import TapeBuilder, TraceTape
from repro.trace.trace import Trace
from repro.workloads.builder import AttentionImpl, build_graph
from repro.workloads.config import ModelConfig
from repro.workloads.graph import OperatorGraph, Phase


@dataclass(frozen=True)
class EngineConfig:
    """Tunable engine constants (all nanoseconds unless noted)."""

    iterations: int = 3
    #: Iterations simulated before measurement starts. Warm-up runs execute
    #: fully (they advance the clock) but get no iteration marks, so SKIP
    #: metrics exclude them — mirroring profiler practice on real hardware.
    warmup_iterations: int = 0
    launch_queue_depth: int = 1024
    inter_iteration_gap_ns: float = 2_000.0
    #: Share of an op's dispatch cost paid after its launches (return path).
    dispatch_epilogue_fraction: float = 0.1
    #: Share of the pre-launch dispatch spent inside the child ATen op.
    child_dispatch_fraction: float = 0.3
    #: Per-op CPU guard cost in compiled (non-graph) execution.
    compiled_guard_ns: float = 1_500.0
    #: CPU cost to invoke a CUDA-graph replay (reference CPU).
    graph_replay_dispatch_ns: float = 12_000.0
    #: GPU front-end gap between consecutive graph-replayed kernels (graphs
    #: pre-encode dependencies, so back-to-back kernels chain with no gap).
    graph_replay_kernel_gap_ns: float = 0.0
    #: Scale on the per-kernel scheduling floor inside a CUDA graph (graphs
    #: pre-encode launch descriptors, cutting most of the front-end cost).
    graph_kernel_floor_scale: float = 0.35
    #: Stream front-end gap between back-to-back individually launched
    #: kernels (avoided entirely by CUDA-graph replay).
    stream_kernel_gap_ns: float = 700.0
    #: CPU cost of a cudaDeviceSynchronize call itself (excluding the wait).
    sync_call_ns: float = 1_500.0

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ConfigurationError("iterations must be positive")
        if self.warmup_iterations < 0:
            raise ConfigurationError("warmup_iterations must be non-negative")
        if self.launch_queue_depth <= 0:
            raise ConfigurationError("launch_queue_depth must be positive")
        if not (0 <= self.dispatch_epilogue_fraction < 1):
            raise ConfigurationError("dispatch_epilogue_fraction must be in [0, 1)")
        if not (0 <= self.child_dispatch_fraction < 1):
            raise ConfigurationError("child_dispatch_fraction must be in [0, 1)")
        # A negative cost would run the clock backwards (an iteration
        # starting inside the one before it); NaN or infinity would poison
        # every timestamp after it.
        require_non_negative(
            self, "compiled_guard_ns", "graph_replay_dispatch_ns",
            "graph_replay_kernel_gap_ns", "stream_kernel_gap_ns",
            "inter_iteration_gap_ns", "sync_call_ns")
        require_positive(self, "graph_kernel_floor_scale")


DEFAULT_CONFIG = EngineConfig()


@dataclass
class RunResult:
    """Everything one engine run produced.

    Exactly one of ``trace``/``tape`` is set, depending on the ``tape``
    argument to :func:`run`.
    """

    trace: Trace | None
    graph: OperatorGraph
    lowered: list[LoweredOp]
    platform: Platform
    mode: ExecutionMode
    compile_report: CompileReport
    config: EngineConfig = field(default_factory=EngineConfig)
    tp: TPConfig = TP_DISABLED
    pp: PPConfig = PP_DISABLED
    core: SimCore | None = None
    tape: TraceTape | None = None

    @property
    def kernels_per_iteration(self) -> int:
        """Kernel launches one iteration performs, per device."""
        return sum(len(lo.kernels) for lo in self.lowered)

    def flat_kernels(self) -> list[KernelTask]:
        """The per-iteration, per-device kernel stream, in launch order."""
        return [k for lo in self.lowered for k in lo.kernels]


def build_core(tp: TPConfig, pp: PPConfig | None = None,
               causality: CausalityLog | None = None) -> SimCore:
    """Construct the tp × pp simulation topology.

    ``tp.degree`` devices per pipeline stage in stage-major order, and the
    TP link for within-stage collectives.
    """
    pp = pp or PP_DISABLED
    core = SimCore(causality=causality)
    for _ in range(tp.degree * pp.stages):
        core.add_device()
    core.set_link(LinkResource(spec=tp.link))
    return core


@overload
def run(
    model: ModelConfig | OperatorGraph,
    platform: Platform,
    batch_size: int = ...,
    seq_len: int = ...,
    mode: ExecutionMode = ...,
    phase: Phase = ...,
    context_len: int | None = ...,
    config: EngineConfig = ...,
    fusion_plan: FusionPlan | None = ...,
    recorder: RunRecorder | None = ...,
    tp: TPConfig | None = ...,
    pp: PPConfig | None = ...,
    tape: bool = ...,
    causality: CausalityLog | None = ...,
    priced: Literal[False] = ...,
) -> RunResult: ...


@overload
def run(
    model: ModelConfig,
    platform: Platform,
    batch_size: int = ...,
    seq_len: int = ...,
    mode: ExecutionMode = ...,
    phase: Phase = ...,
    context_len: int | None = ...,
    config: EngineConfig = ...,
    *,
    tp: TPConfig | None = ...,
    pp: PPConfig | None = ...,
    priced: Literal[True],
) -> tuple[float, float]: ...


def run(
    model: ModelConfig | OperatorGraph,
    platform: Platform,
    batch_size: int = 1,
    seq_len: int = 512,
    mode: ExecutionMode = ExecutionMode.EAGER,
    phase: Phase = Phase.PREFILL,
    context_len: int | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
    fusion_plan: FusionPlan | None = None,
    recorder: RunRecorder | None = None,
    tp: TPConfig | None = None,
    pp: PPConfig | None = None,
    tape: bool = False,
    causality: CausalityLog | None = None,
    priced: bool = False,
) -> RunResult | tuple[float, float]:
    """Simulate inference and return the trace plus run context, or with
    ``priced`` only the run's two headline metrics, without simulating.

    Args:
        model: A model config (a graph is built) or a prebuilt operator graph.
        platform: Platform to simulate.
        batch_size / seq_len / phase / context_len: Workload shape (ignored
            when a prebuilt graph is passed).
        mode: Execution mode; FLASH/compile modes transform the lowering.
        config: Engine constants.
        fusion_plan: Required for ``PROXIMITY_FUSED`` mode — the chains to
            fuse (from SKIP's recommender).
        recorder: Optional observability hook; samples queue occupancy
            and launch delay for every kernel launch of a launch-mode run
            (each dispatch thread, each stage) and records one ``ENGINE``
            step per measured iteration.
        tp: Tensor-parallel configuration (``None`` = single device).
        pp: Pipeline-parallel configuration (``None`` = single stage). At
            ``stages == 1`` the run takes the untouched single-core path
            and is bit-identical to a run without the argument.
        tape: Record a :class:`~repro.trace.tape.TraceTape` instead of a
            full trace (metrics-only fast path; ``result.trace`` is None).
        causality: Optional happens-before log the run's core records into
            (``repro check hb`` consumes it); None = no logging, fast path.
        priced: Return only ``(inference_latency_ns, cpu_busy_ns)``, the
            ``metrics_from_tape`` values of the tape run, from the scalar
            pass of :mod:`repro.engine.pricing`: no simulation, trace or
            tape. Only for a model config in a mode and topology
            :func:`~repro.engine.pricing.priceable` accepts, without a
            fusion plan, recorder, tape or causality log.
    """
    if priced:
        if (isinstance(model, OperatorGraph) or not priceable(mode, tp, pp)
                or fusion_plan is not None or recorder is not None or tape
                or causality is not None):
            raise ConfigurationError(
                "a priced run needs a model config on one GPU and one "
                "stage in eager or FlashAttention mode, with no fusion "
                "plan, recorder, tape or causality log")
        return price_step(model, platform, batch_size, seq_len, phase,
                          context_len, mode, config)
    if tp is None:
        tp = TP_DISABLED
    if pp is None:
        pp = PP_DISABLED
    if pp.enabled:
        # Pipeline stages are launch-mode dispatch processes; CUDA-graph
        # replay captures the whole-model chain and cannot split, and
        # per-device TP threads would need stages x degree dispatch
        # processes the stage process already subsumes.
        if mode.uses_cuda_graph:
            raise ConfigurationError(
                f"pipeline parallelism requires launch-mode execution, "
                f"not {mode.value} (CUDA-graph replay captures the whole "
                f"model as one chain)")
        if tp.enabled and tp.dispatch is DispatchMode.THREAD_PER_DEVICE:
            raise ConfigurationError(
                "pipeline parallelism drives each stage's shards from the "
                "stage's own dispatch thread; use single-thread TP dispatch")
    # The lowering cache applies only to shapes it can key: a model config
    # (prebuilt graphs carry no shape key) without a caller-owned fusion
    # plan. Cached graphs/lowerings are shared read-only; see engine.cache.
    cacheable = (not isinstance(model, OperatorGraph)
                 and fusion_plan is None and LOWERING_CACHE.enabled)
    if isinstance(model, OperatorGraph):
        graph = model
    else:
        validate_tp(tp, model.heads, model.name)
        attention = (AttentionImpl.FLASH if mode.uses_flash_attention
                     else AttentionImpl.EAGER)
        if cacheable:
            graph = LOWERING_CACHE.graph(model, batch_size, seq_len,
                                         phase, attention, context_len)
        else:
            graph = build_graph(model, batch_size, seq_len, phase=phase,
                                attention=attention, context_len=context_len)

    if cacheable:
        key_shape = (model, batch_size, seq_len, phase, attention,
                     context_len)
        lowered = LOWERING_CACHE.lowering(key_shape, graph, mode)
    else:
        lowered = lower_graph(graph)
        lowered = apply_inductor_fusion(lowered, mode)

    if mode is ExecutionMode.PROXIMITY_FUSED:
        if fusion_plan is None:
            raise ConfigurationError("PROXIMITY_FUSED mode requires a fusion_plan")
        lowered = apply_fusion_plan(lowered, fusion_plan)
    elif fusion_plan is not None:
        raise ConfigurationError(f"fusion_plan is only valid in PROXIMITY_FUSED mode, not {mode}")

    lowered = shard_lowered(lowered, tp)

    kernel_count = sum(len(lo.kernels) for lo in lowered)
    report = compile_time(graph, mode, kernel_count)

    metadata = {
        "platform": platform.name,
        "model": graph.model_name,
        "mode": mode.value,
        "phase": graph.phase.value,
        "batch_size": graph.batch_size,
        "seq_len": graph.seq_len,
    }
    if tp.enabled:
        metadata["tp_degree"] = tp.degree
        metadata["tp_dispatch"] = tp.dispatch.value
        metadata["tp_link"] = tp.link.name
    if pp.enabled:
        metadata["pp_stages"] = pp.stages
        metadata["pp_microbatches"] = pp.microbatches
        metadata["pp_link"] = pp.link.name
    builder: TraceBuilder | TapeBuilder
    builder = TapeBuilder(metadata) if tape else TraceBuilder(metadata=metadata)

    if pp.enabled:
        validate_pp(pp, len(lowered), graph.model_name)
        if cacheable:
            stage_lowerings = PP_STAGE_CACHE.partition(
                (*key_shape, mode, tp.degree, pp.stages), lowered, pp.stages)
        else:
            stage_lowerings = partition_lowered(lowered, pp.stages)
        core = build_core(tp, pp, causality=causality)
        core.spawn_all(pp_stage_processes(core, builder, stage_lowerings,
                                          platform, mode, config, pp,
                                          recorder=recorder))
    else:
        core = build_core(tp, causality=causality)
        if mode.uses_cuda_graph:
            core.spawn(graph_replay_process(core, builder, lowered, platform,
                                            config))
        elif tp.enabled and tp.dispatch is DispatchMode.THREAD_PER_DEVICE:
            core.spawn_all(per_device_launch_processes(
                core, builder, lowered, platform, mode, config,
                recorder=recorder))
        else:
            core.spawn(single_thread_launch_process(
                core, builder, lowered, platform, mode, config,
                recorder=recorder))
    core.run()

    finished = builder.finish()
    result = RunResult(
        trace=None if tape else finished,
        graph=graph,
        lowered=lowered,
        platform=platform,
        mode=mode,
        compile_report=report,
        config=config,
        tp=tp,
        pp=pp,
        core=core,
        tape=finished if tape else None,
    )
    if recorder is not None:
        for mark in finished.iterations:
            recorder.record_step(StepKind.ENGINE, mark.ts,
                                 mark.ts_end - mark.ts, graph.batch_size)
    return result
