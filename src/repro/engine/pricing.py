"""Scalar pricing pass — Eq. 4 latency and CPU busy time without a trace.

A serving latency lookup keeps two numbers from an engine run: the mean
inference latency (IL, Eq. 4) and the mean root-operator CPU busy time.
For a single-GPU launch-mode run (eager or FlashAttention, no TP, no PP)
both follow from one walk of the op stream through the single-thread
dispatch → launch → in-order-stream recurrence, so :func:`price_step`
computes them without a :class:`~repro.sim.SimCore`, a
:class:`~repro.trace.tape.TraceTape` or the copies of the repeated layer.

The pass builds the compact graph (head, layer 0, tail), lowers and plans
each op once, and walks head + layer 0 × ``count`` + tail. Every float is
computed by the same expression, in the same order, as
:func:`~repro.engine.processes.single_thread_launch_process`,
:meth:`~repro.sim.resources.StreamResource.submit`,
:func:`~repro.engine.processes._end_iteration_sync` and
:func:`~repro.skip.metrics.metrics_from_tape`, so the result is
bit-identical to ``metrics_from_tape(run(..., tape=True).tape)``; the
fast-path parity suite locks that, and each of those four points back
here: a change to one of them must be made here too. Callers reach the
pass through the engine entry point, ``run(..., priced=True)``, so a
priced latency miss is still one engine call. Compiled and graph-replay
modes do not qualify: Inductor fusion merges kernels across layer
boundaries, so their lowering does not repeat layer by layer.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING

from repro.engine.lowering import lower_op
from repro.engine.modes import ExecutionMode
from repro.engine.pp import PPConfig
from repro.engine.processes import _op_plans
from repro.engine.tp import TPConfig
from repro.errors import AnalysisError, SimulationError
from repro.hardware.platform import Platform
from repro.workloads.builder import AttentionImpl, build_compact_graph
from repro.workloads.config import ModelConfig
from repro.workloads.graph import Phase

if TYPE_CHECKING:
    from repro.engine.executor import EngineConfig

#: Modes whose lowering is per-op eager, so layer 0's plans stand for
#: every layer.
PRICED_MODES = frozenset({ExecutionMode.EAGER, ExecutionMode.FLASH_ATTENTION})


def priceable(mode: ExecutionMode, tp: TPConfig | None,
              pp: PPConfig | None) -> bool:
    """Whether :func:`price_step` covers a run in ``mode`` under ``tp`` and
    ``pp``: one GPU, one stage, a mode in :data:`PRICED_MODES`."""
    return (mode in PRICED_MODES and (tp is None or not tp.enabled)
            and (pp is None or not pp.enabled))


def price_step(model: ModelConfig, platform: Platform, batch_size: int,
               seq_len: int, phase: Phase, context_len: int | None,
               mode: ExecutionMode,
               config: EngineConfig) -> tuple[float, float]:
    """``(inference_latency_ns, cpu_busy_ns)`` of one single-GPU engine run.

    Equal to those two metrics of ``metrics_from_tape`` over
    ``run(model, platform, ..., tape=True)`` for a mode in
    :data:`PRICED_MODES`, including warm-up iterations, several measured
    iterations and the bounded launch queue.

    The engine entry point calls this for ``run(..., priced=True)``.

    Raises:
        AnalysisError: when an iteration launches no kernels or has no
            operators, as ``metrics_from_tape`` does.
        SimulationError: for a negative kernel duration, stream gap or
            launch latency, as ``StreamResource.submit`` does.
    """
    attention = (AttentionImpl.FLASH if mode.uses_flash_attention
                 else AttentionImpl.EAGER)
    compact = build_compact_graph(model, batch_size, seq_len, phase=phase,
                                  attention=attention, context_len=context_len)
    lowered = [lower_op(op)
               for op in chain(compact.head, compact.layer, compact.tail)]
    # One device, so no kernel is a collective and no link is consulted.
    planned = _op_plans(lowered, None, platform, mode, config, 1)
    head, width = len(compact.head), len(compact.layer)
    plans = (planned[:head] + planned[head:head + width] * compact.count
             + planned[head + width:])
    if not any(kernels for *_, kernels in planned):
        raise AnalysisError("iteration 0 launched no kernels")

    launch_cpu = platform.launch_call_cpu_ns
    launch_latency = platform.launch_latency_ns
    gap = config.stream_kernel_gap_ns
    # StreamResource.submit's checks, made once over the distinct kernels.
    # The CPU clock never runs backwards, so an arrival is negative only if
    # the launch latency is.
    if any(duration < 0 for *_, kernels in planned
           for _kernel, duration, _collective in kernels):
        raise SimulationError("kernel duration must be non-negative")
    if launch_latency < 0:
        raise SimulationError("kernel arrival must be non-negative")
    if gap < 0:
        raise SimulationError("gap must be non-negative")
    queue_depth = config.launch_queue_depth
    child_frac = config.child_dispatch_fraction
    cpu = 0.0
    free = 0.0            # the stream's free_at
    starts: list[float] = []   # every kernel start, for the launch queue
    # End (ts + dur) of each open operator scope, innermost last: an op is
    # a root when it starts at or after all of them, as metrics_from_tape
    # decides it.
    open_ends: list[float] = []
    latencies: list[float] = []
    busy_times: list[float] = []
    for iteration in range(config.warmup_iterations + config.iterations):
        measured = iteration >= config.warmup_iterations
        first_root: float | None = None
        busy = 0
        for _name, _dispatch, epilogue, pre, child_name, kernels in plans:
            op_ts = cpu
            if child_name is not None:
                cpu += pre * (1.0 - child_frac)
                child_ts = cpu
                cpu += pre * child_frac
            else:
                cpu += pre
            for _kernel, duration, _collective in kernels:
                backlog_index = len(starts) - queue_depth
                if backlog_index >= 0:
                    cpu = max(cpu, starts[backlog_index])
                start = max(cpu + launch_latency,
                            free + (gap if starts else 0.0))
                free = start + duration
                starts.append(start)
                cpu += launch_cpu
            child_end = cpu
            cpu += epilogue

            dur = cpu - op_ts
            while open_ends and op_ts >= open_ends[-1]:
                open_ends.pop()
            if not open_ends:
                busy += dur
                if first_root is None:
                    first_root = op_ts
            open_ends.append(op_ts + dur)
            if child_name is not None:
                # The child starts at least one launch call before its
                # parent ends, so it is never a root; its end still bounds
                # the next op.
                open_ends.append(child_ts + (child_end - child_ts))

        wait = max(0.0, free - cpu)
        cpu += config.sync_call_ns + wait
        if measured:
            if first_root is None:
                raise AnalysisError(
                    f"iteration {len(latencies)} has no operators")
            latencies.append(free - first_root)
            busy_times.append(busy)
        cpu += config.inter_iteration_gap_ns
    return (sum(latencies) / len(latencies),
            sum(busy_times) / len(busy_times))
