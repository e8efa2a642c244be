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
computed by the same expression, in the same order, as the launch-mode
op walk :func:`~repro.engine.processes._op_walk` (driven by
:func:`~repro.engine.processes.single_thread_launch_process`),
:meth:`~repro.sim.resources.StreamResource.submit`,
:func:`~repro.engine.processes._synchronize` and
:func:`~repro.skip.metrics.metrics_from_tape`, so the result is
bit-identical to ``metrics_from_tape(run(..., tape=True).tape)``; the
fast-path parity suite locks that, and each of those four points back
here: a change to one of them must be made here too. Callers reach the
pass through the engine entry point, ``run(..., priced=True)``, so a
priced latency miss is still one engine call. Compiled and graph-replay
modes do not qualify: Inductor fusion merges kernels across layer
boundaries, so their lowering does not repeat layer by layer.

Three things are settled once instead of replayed op by op. Each compact
op's dispatch split, epilogue and kernel durations are computed before
the walk, once for every layer. A run of at most ``launch_queue_depth`` kernels keeps no kernel
start times, since the launch queue can never hold it back. And the root
rule is proved, not stacked: an op that starts with no scope open is a
root, and when its duration is at most its start time, Sterbenz's lemma
makes its recorded end exactly the clock, which the next op would pop, so
nothing is pushed. Only a root that outlasts its own start time (the
first ops of a run, ops the launch queue holds back) goes on the stack,
with the ops that start inside it.
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
    if not any(kernels for *_, kernels in planned):
        raise AnalysisError("iteration 0 launched no kernels")

    # Each compact op's walk constants, computed once rather than once per
    # layer: the CPU time before the child scope opens (all of ``pre`` when
    # the op opens none), the child's share (None when it opens none), the
    # epilogue and the kernel durations. The products are the floats the
    # launch process computes per op.
    child_frac = config.child_dispatch_fraction
    walked = []
    for _name, _dispatch, epilogue, pre, child_name, kernels in planned:
        durations = tuple(duration for _kernel, duration, _ in kernels)
        walked.append(
            (pre, None, epilogue, durations) if child_name is None
            else (pre * (1.0 - child_frac), pre * child_frac, epilogue,
                  durations))
    head, width = len(compact.head), len(compact.layer)
    walk = (walked[:head] + walked[head:head + width] * compact.count
            + walked[head + width:])

    launch_cpu = platform.launch_call_cpu_ns
    launch_latency = platform.launch_latency_ns
    gap = config.stream_kernel_gap_ns
    # StreamResource.submit's checks, made once over the compact graph's
    # kernels.
    # The CPU clock never runs backwards, so an arrival is negative only if
    # the launch latency is.
    if any(duration < 0 for *_, durations in walked
           for duration in durations):
        raise SimulationError("kernel duration must be non-negative")
    if launch_latency < 0:
        raise SimulationError("kernel arrival must be non-negative")
    if gap < 0:
        raise SimulationError("gap must be non-negative")
    runs = config.warmup_iterations + config.iterations
    queue_depth = config.launch_queue_depth
    # The launch queue holds back the k-th launch until kernel
    # k - queue_depth has started, so a run of at most queue_depth kernels
    # never waits on it and keeps no start times.
    per_op = [len(durations) for *_, durations in walked]
    bounded = (sum(per_op[:head])
               + sum(per_op[head:head + width]) * compact.count
               + sum(per_op[head + width:])) * runs > queue_depth
    cpu = 0.0
    free = 0.0            # the stream's free_at
    lead = 0.0            # gap before the next kernel; none before the first
    starts: list[float] = []   # every kernel start, when the queue can fill
    # End (ts + dur) of each open operator scope, innermost last: an op is
    # a root when it starts at or after all of them, as metrics_from_tape
    # decides it.
    open_ends: list[float] = []
    latencies: list[float] = []
    busy_times: list[float] = []
    for iteration in range(runs):
        measured = iteration >= config.warmup_iterations
        first_root: float | None = None
        busy = 0
        for pre, child_pre, epilogue, durations in walk:
            op_ts = cpu
            cpu += pre
            if child_pre is not None:
                child_ts = cpu
                cpu += child_pre
            # max(a, b) is b only when b > a; the comparisons below keep
            # that operand choice.
            for duration in durations:
                if bounded:
                    backlog_index = len(starts) - queue_depth
                    if backlog_index >= 0:
                        backlog = starts[backlog_index]
                        if backlog > cpu:
                            cpu = backlog
                arrival = cpu + launch_latency
                start = free + lead
                if not start > arrival:
                    start = arrival
                free = start + duration
                if bounded:
                    starts.append(start)
                lead = gap
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
                # Root proof. Every cost the clock adds is non-negative
                # (EngineConfig checks the iteration-boundary ones), so
                # 0 <= op_ts <= cpu, and dur <= op_ts holds iff
                # cpu <= 2 * op_ts. Sterbenz's lemma then makes cpu - op_ts
                # exact: the recorded end op_ts + dur is cpu itself. A child
                # scope lies inside, op_ts <= child_ts <= child_end <= cpu,
                # so its end is exactly child_end. The next op starts at or
                # after cpu and would pop both, so neither is pushed.
                if dur <= op_ts:
                    continue
            open_ends.append(op_ts + dur)
            if child_pre is not None:
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
