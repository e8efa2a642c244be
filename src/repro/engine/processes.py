"""Execution modes as processes on the simulation core.

The engine's launch-per-kernel and CUDA-graph modes are written as
generator processes scheduled by :class:`repro.sim.SimCore`.

Launch mode has one op walk, :func:`_op_walk`: a dispatch thread runs each
op's prologue, launches every kernel on each stream it owns (one
``cudaLaunchKernel`` per stream, held back by the bounded launch queue of
its first stream) and runs the op's epilogue. Three drivers run that walk
and differ only at iteration boundaries:

* **Single dispatch thread**: one CPU process owns every device — the
  PyTorch-default topology, where launch overhead compounds with the TP
  degree. At TP=1 it performs exactly the floating-point operations of the
  legacy single-device executor, in the same order, so its traces are
  bit-identical to the legacy ones (frozen as digests).
* **Per-device dispatch threads**: one CPU process per device (trace
  ``tid`` = 1 + device), each owning only its own device. Processes meet at
  collectives and at an end-of-iteration barrier via the core's rendezvous.
* **Pipeline stages** (:mod:`repro.engine.pp`): one CPU process per stage,
  owning the stage's devices, with microbatch handoffs between stages.

Each driver ends an iteration with :func:`_synchronize`.

**Graph replay** (one process) is the other mode: it replays the captured
kernel chain on every device; per-device arrival chaining, collectives
joined across devices.

Collective kernels (``KernelTask.is_collective``) price their duration with
the link's ring all-reduce model and start simultaneously on every device at
the earliest instant all streams can take them.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

from repro.engine.lowering import KernelTask, LoweredOp
from repro.engine.modes import ExecutionMode
from repro.hardware.platform import Platform
from repro.obs.recorder import RunRecorder
from repro.sim.core import Process, SimCore
from repro.sim.resources import StreamResource
from repro.trace.builder import TraceBuilder
from repro.trace.events import DEVICE_SYNCHRONIZE, GRAPH_LAUNCH
from repro.workloads.ops import OpKind

_CHILD_OP_NAMES = {
    OpKind.LINEAR: "aten::addmm",
    OpKind.MATMUL: "aten::bmm",
}


def kernel_duration(platform: Platform, kernel: KernelTask,
                    floor_scale: float = 1.0) -> float:
    """Duration of one (non-collective) kernel task on a platform.

    Proximity-fused kernels (``members`` set) execute as the sum of their
    members' durations — the paper's assumption that fusion changes launch
    counts, not kernel work.
    """
    if kernel.members:
        return sum(kernel_duration(platform, member, floor_scale)
                   for member in kernel.members)
    return (platform.kernel_duration_ns(kernel.flops, kernel.bytes_moved,
                                        floor_scale=floor_scale)
            * kernel.duration_scale)


def _op_plans(lowered, core, platform, mode, config, world):
    """Precompute per-op dispatch timings and per-kernel durations.

    Every value here is a pure function of the lowering, platform, mode,
    config, and link spec — none depends on simulation state — so hoisting
    the arithmetic out of the iteration loop reuses the *exact same floats*
    the per-iteration computation produced. Traces are bit-identical; only
    per-event Python work shrinks (property lookups, duration recomputation).

    Returns one ``(aten_name, dispatch, epilogue, pre, child_name, kernels)``
    tuple per lowered op, where ``kernels`` is a tuple of
    ``(kernel, duration_ns, is_collective_here)`` and ``child_name`` is
    already None whenever the child-op scope would not be emitted.

    A plan reads only the op's kind and its kernel tuple, never its label,
    so ops that share both share one plan tuple. :func:`lower_graph` shares
    kernel tuples across identical decoder layers, so each distinct operator
    is planned once per call. The memo keys on the kernel tuple's identity:
    ``lowered`` keeps every tuple alive for the whole call, so no id is
    reused, and tuples that are equal but not shared simply plan again.
    """
    fuses = mode.fuses_elementwise
    guard = config.compiled_guard_ns / platform.cpu.dispatch_score
    plan_by_op: dict[tuple, tuple] = {}
    plans = []
    for lowered_op in lowered:
        op = lowered_op.op
        key = (op.kind, id(lowered_op.kernels))
        plan = plan_by_op.get(key)
        if plan is None:
            dispatch = (guard if fuses
                        else platform.dispatch_ns(op.dispatch_cost_ns))
            epilogue = dispatch * config.dispatch_epilogue_fraction
            pre = dispatch - epilogue
            child_name = _CHILD_OP_NAMES.get(op.kind)
            if not (child_name and lowered_op.kernels and not fuses):
                child_name = None
            kernels = tuple(
                (kernel,
                 core.link.allreduce_ns(kernel.comm_bytes, world)
                 if kernel.is_collective and world > 1
                 else kernel_duration(platform, kernel),
                 kernel.is_collective and world > 1)
                for kernel in lowered_op.kernels)
            plan = plan_by_op[key] = (op.aten_name, dispatch, epilogue, pre,
                                      child_name, kernels)
        plans.append(plan)
    return plans


def _synchronize(builder: TraceBuilder, streams: list[StreamResource],
                 cpu: float, config, tid: int) -> float:
    """Emit a device synchronize and return the CPU clock after it.

    Waits for every stream the dispatching thread feeds; the caller then
    closes the iteration mark and adds the inter-iteration gap where its
    topology puts them. :func:`repro.engine.pricing.price_step` repeats this
    for one stream; the two must change together.
    """
    wait = max(0.0, max(stream.free_at for stream in streams) - cpu)
    builder.runtime_call(DEVICE_SYNCHRONIZE, cpu, config.sync_call_ns + wait,
                         tid=tid)
    return cpu + (config.sync_call_ns + wait)


# ---------------------------------------------------------------------------
# Launch-per-kernel execution: one op walk, three drivers
# ---------------------------------------------------------------------------

def _op_walk(core: SimCore, builder: TraceBuilder, lowered: list[LoweredOp],
             platform: Platform, mode: ExecutionMode, config,
             recorder: RunRecorder | None, tid: int,
             streams: list[StreamResource], group: list[StreamResource]
             ) -> Callable[[int, float], Generator[tuple, float, float]]:
    """One dispatch thread's launch-mode walk over the op stream.

    The thread with trace ``tid`` dispatches every op and launches each
    kernel on every stream in ``streams``, the devices it owns. ``group``
    is the streams a collective spans. When it holds streams the thread
    does not own, the threads that own them meet at an ``("allreduce",
    iteration, op_index, kernel_index)`` rendezvous, and only the owner of
    ``group[0]`` records the link occupancy.

    Returns ``walk(iteration, cpu)``: a generator that runs the op stream
    once from CPU time ``cpu`` and returns the clock after the last op.
    :func:`repro.engine.pricing.price_step` repeats this walk's timing for
    one stream; the two must change together.
    """
    plans = _op_plans(lowered, core, platform, mode, config, len(group))
    peers = len(group) // len(streams)
    records_link = streams[0] is group[0]
    # The rendezvous key suffix of each collective, in walk order.
    positions = [(op_index, kernel_index)
                 for op_index, (*_, kernels) in enumerate(plans)
                 for kernel_index, (_, _, is_collective) in enumerate(kernels)
                 if is_collective] if peers > 1 else []
    stream0 = streams[0]
    # Hot-loop hoists: platform costs are @property lookups and the plan
    # arithmetic is iteration-invariant (see _op_plans).
    launch_cpu = platform.launch_call_cpu_ns
    launch_latency = platform.launch_latency_ns
    gap = config.stream_kernel_gap_ns
    queue_depth = config.launch_queue_depth
    child_frac = config.child_dispatch_fraction

    def walk(iteration: int,
             cpu: float) -> Generator[tuple, float, float]:
        collective_keys = iter(positions)
        for aten_name, dispatch, epilogue, pre, child_name, kernels in plans:
            parent = builder.begin_operator(aten_name, cpu, tid=tid)
            child = None
            if child_name is not None:
                cpu += pre * (1.0 - child_frac)
                child = builder.begin_operator(child_name, cpu, tid=tid)
                cpu += pre * child_frac
            else:
                cpu += pre

            for kernel, duration, is_collective in kernels:
                # Bounded launch queue: the CPU cannot run more than
                # `launch_queue_depth` launches ahead of kernel starts.
                backlog_index = stream0.kernel_count - queue_depth
                if backlog_index >= 0:
                    cpu = max(cpu, stream0.nth_start(backlog_index))
                if is_collective:
                    # Every stream starts it at once, when the last can.
                    call_ts = cpu
                    ready = []
                    for stream in streams:
                        ready.append(stream.earliest_start(
                            call_ts + launch_latency, gap))
                        call_ts += launch_cpu
                    start_at = max(ready)
                    if peers > 1:
                        rdv = core.rendezvous(
                            ("allreduce", iteration, *next(collective_keys)),
                            peers)
                        start_at = yield ("join", rdv, start_at)
                for stream in streams:
                    start, _end = stream.submit(
                        start_at if is_collective else cpu + launch_latency,
                        duration, gap_ns=gap)
                    builder.launch_kernel(
                        cpu, launch_cpu, kernel.name, start, duration,
                        stream=stream.stream_id, device=stream.device,
                        tid=tid, flops=kernel.flops,
                        bytes_moved=kernel.bytes_moved)
                    if recorder is not None:
                        recorder.observe_launch_delay(start - cpu)
                        recorder.observe_launch_queue(stream.pending_at(cpu))
                    cpu += launch_cpu
                if is_collective and records_link:
                    core.link.record(duration, start_at)

            if child is not None:
                builder.end_operator(child, cpu)
            cpu += epilogue
            builder.end_operator(parent, cpu)
        return cpu

    return walk


def single_thread_launch_process(
    core: SimCore,
    builder: TraceBuilder,
    lowered: list[LoweredOp],
    platform: Platform,
    mode: ExecutionMode,
    config,
    recorder: RunRecorder | None = None,
) -> Process:
    """One CPU thread dispatches ops and launches to every device in turn."""
    streams = core.streams()
    walk = _op_walk(core, builder, lowered, platform, mode, config, recorder,
                    1, streams, streams)
    cpu = 0.0
    for iteration in range(config.warmup_iterations + config.iterations):
        # Warm-up iterations run like measured ones but leave no iteration
        # mark, so analyses skip them.
        measured = iteration >= config.warmup_iterations
        if measured:
            builder.begin_iteration(cpu)
        cpu = yield from walk(iteration, cpu)
        cpu = _synchronize(builder, streams, cpu, config, 1)
        if measured:
            builder.end_iteration(cpu)
        cpu = yield ("at", cpu + config.inter_iteration_gap_ns)


def per_device_launch_processes(
    core: SimCore,
    builder: TraceBuilder,
    lowered: list[LoweredOp],
    platform: Platform,
    mode: ExecutionMode,
    config,
    recorder: RunRecorder | None = None,
) -> list[Process]:
    """One dispatch process per device; rendezvous at collectives/barriers.

    Device ``d``'s process is trace thread ``1 + d`` and owns that
    device's stream. Device 0's process opens and closes the iteration
    marks.
    """
    group = core.streams()

    def device_process(device_index: int) -> Process:
        streams = group[device_index:device_index + 1]
        tid = 1 + device_index
        leader = device_index == 0
        walk = _op_walk(core, builder, lowered, platform, mode, config,
                        recorder, tid, streams, group)
        cpu = 0.0
        for iteration in range(config.warmup_iterations + config.iterations):
            measured = iteration >= config.warmup_iterations
            if measured and leader:
                builder.begin_iteration(cpu)
            cpu = yield from walk(iteration, cpu)
            # Per-device synchronize, then an iteration barrier so all
            # threads enter the next iteration together (mirroring a
            # framework-level step boundary).
            cpu = _synchronize(builder, streams, cpu, config, tid)
            barrier = core.rendezvous(("iteration-end", iteration),
                                      len(group))
            cpu = yield ("join", barrier, cpu)
            if measured and leader:
                builder.end_iteration(cpu)
            cpu += config.inter_iteration_gap_ns

    return [device_process(index) for index in range(len(group))]


# ---------------------------------------------------------------------------
# CUDA-graph execution (reduce-overhead / max-autotune)
# ---------------------------------------------------------------------------

def graph_replay_process(
    core: SimCore,
    builder: TraceBuilder,
    lowered: list[LoweredOp],
    platform: Platform,
    config,
) -> Process:
    """Replay the captured kernel chain on every device."""
    streams = core.streams()
    world = len(streams)
    launch_cpu = platform.launch_call_cpu_ns
    launch_latency = platform.launch_latency_ns
    kernel_gap = config.graph_replay_kernel_gap_ns
    replay_dispatch = platform.dispatch_ns(config.graph_replay_dispatch_ns)
    # Durations are iteration-invariant (same floats every replay), so
    # compute the whole chain once; see _op_plans for the invariance note.
    plan = [
        (kernel,
         core.link.allreduce_ns(kernel.comm_bytes, world)
         if kernel.is_collective and world > 1
         else kernel_duration(platform, kernel,
                              floor_scale=config.graph_kernel_floor_scale),
         kernel.is_collective and world > 1)
        for lo in lowered for kernel in lo.kernels]
    cpu = 0.0
    total = config.warmup_iterations + config.iterations
    for iteration in range(total):
        measured = iteration >= config.warmup_iterations
        if measured:
            builder.begin_iteration(cpu)
        parent = builder.begin_operator("cuda_graph::replay", cpu)
        cpu += replay_dispatch
        arrivals = []
        for _ in streams:
            call_ts = cpu
            builder.runtime_call(GRAPH_LAUNCH, call_ts, launch_cpu)
            cpu += launch_cpu
            arrivals.append(call_ts + launch_latency)
        for kernel, duration, is_collective in plan:
            if is_collective:
                start_at = max(
                    stream.earliest_start(arrivals[di])
                    for di, stream in enumerate(streams))
                for di, stream in enumerate(streams):
                    start, end = stream.submit(start_at, duration)
                    builder.enqueue_graph_kernel(
                        kernel.name, start, duration,
                        stream=stream.stream_id, device=stream.device,
                        flops=kernel.flops, bytes_moved=kernel.bytes_moved)
                    arrivals[di] = end + kernel_gap
                core.link.record(duration, start_at)
            else:
                for di, stream in enumerate(streams):
                    start, end = stream.submit(arrivals[di], duration)
                    builder.enqueue_graph_kernel(
                        kernel.name, start, duration,
                        stream=stream.stream_id, device=stream.device,
                        flops=kernel.flops, bytes_moved=kernel.bytes_moved)
                    arrivals[di] = end + kernel_gap
        builder.end_operator(parent, cpu)
        cpu = _synchronize(builder, streams, cpu, config, 1)
        if measured:
            builder.end_iteration(cpu)
        cpu = yield ("at", cpu + config.inter_iteration_gap_ns)
