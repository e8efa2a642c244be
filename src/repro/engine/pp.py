"""Pipeline parallelism: stage partitioning + microbatched stage processes.

GPipe-style pipeline parallelism along the layer axis, composing with the
tensor-parallel sharding pass (:mod:`repro.engine.tp`): the (TP-sharded)
lowered op stream is split into ``stages`` contiguous segments balanced by
kernel work, each stage owns its own CPU dispatch thread and ``tp.degree``
devices on the simulation core, and the global batch is split into
``microbatches`` slices that flow through the stages as a pipeline
(SNIPPETS.md's ``PipelineParallelLLMEngine`` shape: staged queues between
ranks, each rank busy with a different microbatch).

Inter-stage handoff is a *staged queue of depth one*: a two-party rendezvous
per (boundary, iteration, microbatch) where the producer arrives when its
microbatch's kernels drain plus the activation transfer over the
interconnect (``LinkResource`` pricing), and the consumer arrives when its
dispatch thread is free. Both resume at the max — a synchronous handoff that
still pipelines compute, because the producer immediately starts its next
microbatch while the consumer works.

``PP_DISABLED`` (``stages == 1``) never reaches any of this: the executor
takes its untouched single-core path, which is the ``pp=1`` bit-parity
guarantee mirroring ``tp=1`` and ``chunk_tokens=0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.engine.cache import CACHE_ENTRIES
from repro.engine.lowering import KernelTask, LoweredOp
from repro.engine.modes import ExecutionMode
from repro.engine.processes import _op_walk, _synchronize
from repro.engine.tp import TP_DISABLED, TPConfig
from repro.errors import ConfigurationError
from repro.hardware.interconnect import InterconnectSpec, NVLINK4_P2P
from repro.hardware.platform import Platform
from repro.obs.recorder import RunRecorder
from repro.sim.core import Process, SimCore


@dataclass(frozen=True)
class PPConfig:
    """Pipeline-parallel run configuration.

    Attributes:
        stages: Number of pipeline stages the layer stack splits into
            (1 = off).
        microbatches: Microbatches the global batch splits into; each
            carries ``1/microbatches`` of every kernel's work through the
            pipeline.
        link: Interconnect the inter-stage activation transfers ride.
    """

    stages: int = 1
    microbatches: int = 1
    link: InterconnectSpec = NVLINK4_P2P

    def __post_init__(self) -> None:
        if self.stages < 1:
            raise ConfigurationError("pp stages must be >= 1")
        if self.microbatches < 1:
            raise ConfigurationError("pp microbatches must be >= 1")

    @property
    def enabled(self) -> bool:
        return self.stages > 1


PP_DISABLED = PPConfig()


@dataclass(frozen=True)
class ParallelConfig:
    """The tp × pp parallelism plan for one engine run.

    Bundles the two orthogonal axes: tensor parallelism shards every
    kernel *within* a stage across ``tp.degree`` devices; pipeline
    parallelism splits the layer stack *across* ``pp.stages`` stages.
    Total device count is the product.
    """

    tp: TPConfig = TP_DISABLED
    pp: PPConfig = PP_DISABLED

    @property
    def world(self) -> int:
        return self.tp.degree * self.pp.stages

    @property
    def enabled(self) -> bool:
        return self.tp.enabled or self.pp.enabled


def validate_pp(pp: PPConfig, op_count: int, model_name: str = "model") -> None:
    """Reject stage counts the partitioner cannot realize."""
    if not pp.enabled:
        return
    if pp.stages > op_count:
        raise ConfigurationError(
            f"pp stages {pp.stages} exceeds {model_name}'s {op_count} "
            f"lowered ops; a stage would be empty")


def _op_weight(lowered_op: LoweredOp) -> float:
    """Work weight for balancing: roofline terms plus a dispatch epsilon.

    The epsilon keeps zero-kernel ops (views, metadata) from collapsing to
    weightless — they still cost dispatch, and counting them stabilizes the
    split for kernel-free prefixes.
    """
    return sum(k.flops + k.bytes_moved for k in lowered_op.kernels) + 1.0


def partition_lowered(lowered: list[LoweredOp],
                      stages: int) -> list[list[LoweredOp]]:
    """Split a lowered op stream into contiguous work-balanced stages.

    Greedy prefix-sum split: stage ``s`` ends at the first op where the
    cumulative weight reaches ``total * (s+1) / stages``, clamped so every
    stage (including the trailing ones) gets at least one op. Returns
    ``stages`` non-empty lists that concatenate to the input.
    """
    if stages < 1:
        raise ConfigurationError("stages must be >= 1")
    if stages > len(lowered):
        raise ConfigurationError(
            f"cannot split {len(lowered)} ops into {stages} stages")
    if stages == 1:
        return [list(lowered)]
    weights = [_op_weight(lo) for lo in lowered]
    total = sum(weights)
    out: list[list[LoweredOp]] = []
    start = 0
    cumulative = 0.0
    for stage in range(stages):
        remaining_stages = stages - stage - 1
        if remaining_stages == 0:
            end = len(lowered)
        else:
            target = total * (stage + 1) / stages
            end = start + 1
            cumulative += weights[start]
            # Leave at least one op per remaining stage.
            limit = len(lowered) - remaining_stages
            while end < limit and cumulative < target:
                cumulative += weights[end]
                end += 1
        out.append(list(lowered[start:end]))
        start = end
    return out


def stage_boundary_bytes(stage: list[LoweredOp]) -> float:
    """Activation bytes handed to the next stage at a stage boundary.

    The last kernel-bearing op's written output is what crosses the wire
    (frozen activations of the boundary layer).
    """
    for lowered_op in reversed(stage):
        if lowered_op.kernels:
            return lowered_op.op.bytes_written
    return 0.0


# ---------------------------------------------------------------------------
# Per-stage partition cache
# ---------------------------------------------------------------------------

@dataclass
class PPStageCache:
    """FIFO-bounded cache of stage partitions, keyed per lowering + plan.

    Extends the lowered-graph cache's keying (:mod:`repro.engine.cache`)
    with the parallelism axes that shape the partition: the TP degree
    (sharding changes kernel weights and inserts collectives) and the stage
    count. Values are shared, not copied — stages hold the same immutable
    ``LoweredOp`` objects the lowering cache vended. Bounded like the
    lowering cache, whose keys it extends.
    """

    max_entries: int = CACHE_ENTRIES
    enabled: bool = True
    hits: int = 0
    misses: int = 0
    _stages: dict = field(default_factory=dict, repr=False)

    def partition(self, key, lowered: list[LoweredOp],
                  stages: int) -> list[list[LoweredOp]]:
        if not self.enabled:
            return partition_lowered(lowered, stages)
        cached = self._stages.get(key)
        if cached is None:
            self.misses += 1
            cached = partition_lowered(lowered, stages)
            if len(self._stages) >= self.max_entries:
                self._stages.pop(next(iter(self._stages)))
            self._stages[key] = cached
        else:
            self.hits += 1
        return cached

    def clear(self) -> None:
        self._stages.clear()
        self.hits = self.misses = 0


PP_STAGE_CACHE = PPStageCache()


# ---------------------------------------------------------------------------
# Stage processes
# ---------------------------------------------------------------------------

def _microbatch_kernel(kernel: KernelTask, microbatches: int) -> KernelTask:
    """One microbatch's share of a kernel: all work terms divide."""
    if microbatches == 1:
        return kernel
    return replace(
        kernel,
        flops=kernel.flops / microbatches,
        bytes_read=kernel.bytes_read / microbatches,
        bytes_written=kernel.bytes_written / microbatches,
        comm_bytes=kernel.comm_bytes / microbatches,
        members=tuple(_microbatch_kernel(m, microbatches)
                      for m in kernel.members),
    )


def microbatch_lowered(stage: list[LoweredOp],
                       microbatches: int) -> list[LoweredOp]:
    """The per-microbatch op stream for one stage."""
    if microbatches == 1:
        return stage
    return [LoweredOp(lo.op, tuple(_microbatch_kernel(k, microbatches)
                                   for k in lo.kernels))
            for lo in stage]


def pp_stage_processes(
    core: SimCore,
    builder,
    stage_lowerings: list[list[LoweredOp]],
    platform: Platform,
    mode: ExecutionMode,
    config,
    pp: PPConfig,
    recorder: RunRecorder | None = None,
) -> list[Process]:
    """One launch-mode dispatch process per pipeline stage.

    Stage ``s`` is trace thread ``1 + s`` and owns the device slice
    ``[s*tpd, (s+1)*tpd)``, so its thread drives all of the stage's TP
    shards and their all-reduces need no rendezvous. Microbatches flow
    through the inter-stage rendezvous described in the module docstring.
    The first stage opens iteration marks, the last stage closes them, so
    recorded inference latency is the true pipeline latency including fill
    and drain.
    """
    stages = len(stage_lowerings)
    tp_world = len(core.devices) // stages

    def stage_process(stage_index: int) -> Process:
        streams = core.streams()[stage_index * tp_world:
                                 (stage_index + 1) * tp_world]
        tid = 1 + stage_index
        first = stage_index == 0
        last = stage_index == stages - 1
        stage = stage_lowerings[stage_index]
        send_ns = (0.0 if last
                   else pp.link.transfer_ns(stage_boundary_bytes(stage)
                                            / pp.microbatches))
        walk = _op_walk(core, builder,
                        microbatch_lowered(stage, pp.microbatches), platform,
                        mode, config, recorder, tid, streams, streams)
        cpu = 0.0
        for iteration in range(config.warmup_iterations + config.iterations):
            measured = iteration >= config.warmup_iterations
            if measured and first:
                builder.begin_iteration(cpu)
            for microbatch in range(pp.microbatches):
                if not first:
                    # Staged queue (recv): wait for upstream activations.
                    rdv = core.rendezvous(
                        ("pp.act", stage_index - 1, stage_index, iteration,
                         microbatch), 2)
                    cpu = yield ("join", rdv, cpu)
                cpu = yield from walk(iteration, cpu)
                if not last:
                    # Staged queue (send): activations are ready when this
                    # microbatch's kernels drain plus the link transfer; the
                    # downstream stage resumes at max(ready, its own clock).
                    ready = max(stream.free_at for stream in streams) + send_ns
                    rdv = core.rendezvous(
                        ("pp.act", stage_index, stage_index + 1, iteration,
                         microbatch), 2)
                    cpu = yield ("join", rdv, max(cpu, ready))
            # Per-stage synchronize; the last stage closes the iteration
            # mark *before* the barrier so marks never interleave across
            # iterations.
            cpu = _synchronize(builder, streams, cpu, config, tid)
            if measured and last:
                builder.end_iteration(cpu)
            barrier = core.rendezvous(("pp.iteration-end", iteration), stages)
            cpu = yield ("join", barrier, cpu)
            cpu += config.inter_iteration_gap_ns

    return [stage_process(index) for index in range(stages)]


__all__ = [
    "PP_DISABLED",
    "PP_STAGE_CACHE",
    "PPConfig",
    "PPStageCache",
    "ParallelConfig",
    "microbatch_lowered",
    "partition_lowered",
    "pp_stage_processes",
    "stage_boundary_bytes",
    "validate_pp",
]
