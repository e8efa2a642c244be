"""Execution modes as processes on the simulation core.

The engine's launch-per-kernel and CUDA-graph modes are written as
generator processes scheduled by :class:`repro.sim.SimCore`. Three process
shapes exist:

* **Single dispatch thread** (launch mode): one CPU process walks the op
  stream and issues one ``cudaLaunchKernel`` per device per kernel — the
  PyTorch-default topology, where launch overhead compounds with the TP
  degree. At TP=1 this process performs exactly the floating-point
  operations of the legacy single-device executor, in the same order, so
  its traces are bit-identical to the legacy ones (frozen as digests).
* **Per-device dispatch threads** (launch mode): one CPU process per device
  (trace ``tid`` = 1 + device), each launching only to its own device.
  Processes meet at collectives and at an end-of-iteration barrier via the
  core's rendezvous.
* **Graph replay** (one process): replays the captured kernel chain on every
  device; per-device arrival chaining, collectives joined across devices.

Collective kernels (``KernelTask.is_collective``) price their duration with
the link's ring all-reduce model and start simultaneously on every device at
the earliest instant all streams can take them.
"""

from __future__ import annotations

from typing import Hashable

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


def _end_iteration_sync(builder: TraceBuilder, streams: list[StreamResource],
                        cpu: float, config, measured: bool = True,
                        tid: int | None = None) -> float:
    """Emit the end-of-iteration synchronize and advance the CPU clock.

    Waits for every stream the dispatching thread feeds. Warm-up iterations
    (``measured=False``) synchronize like real ones but leave no iteration
    mark, so analyses skip them. :func:`repro.engine.pricing.price_step`
    repeats this for one stream; the two must change together.
    """
    free = max(stream.free_at for stream in streams)
    wait = max(0.0, free - cpu)
    builder.runtime_call(DEVICE_SYNCHRONIZE, cpu, config.sync_call_ns + wait,
                         tid=tid)
    cpu += config.sync_call_ns + wait
    if measured:
        builder.end_iteration(cpu)
    return cpu + config.inter_iteration_gap_ns


# ---------------------------------------------------------------------------
# Launch-per-kernel execution, single dispatch thread
# ---------------------------------------------------------------------------

def single_thread_launch_process(
    core: SimCore,
    builder: TraceBuilder,
    lowered: list[LoweredOp],
    platform: Platform,
    mode: ExecutionMode,
    config,
    recorder: RunRecorder | None = None,
) -> Process:
    """One CPU thread dispatches ops and launches to every device in turn.

    :func:`repro.engine.pricing.price_step` repeats this loop's timing for
    one device; the two must change together.
    """
    streams = core.streams()
    world = len(streams)
    thread = core.cpu_threads[0]
    stream0 = streams[0]
    # Hot-loop hoists: platform costs are @property lookups and the plan
    # arithmetic is iteration-invariant (see _op_plans).
    launch_cpu = platform.launch_call_cpu_ns
    launch_latency = platform.launch_latency_ns
    gap = config.stream_kernel_gap_ns
    queue_depth = config.launch_queue_depth
    child_frac = config.child_dispatch_fraction
    plans = _op_plans(lowered, core, platform, mode, config, world)
    cpu = 0.0
    launched = 0
    total = config.warmup_iterations + config.iterations
    for iteration in range(total):
        measured = iteration >= config.warmup_iterations
        if measured:
            builder.begin_iteration(cpu)
        for aten_name, dispatch, epilogue, pre, child_name, kernels in plans:
            parent = builder.begin_operator(aten_name, cpu)
            child = None
            if child_name is not None:
                cpu += pre * (1.0 - child_frac)
                child = builder.begin_operator(child_name, cpu)
                cpu += pre * child_frac
            else:
                cpu += pre
            thread.occupy(dispatch)

            for kernel, duration, is_collective in kernels:
                # Bounded launch queue: the CPU cannot run more than
                # `launch_queue_depth` launches ahead of kernel starts.
                backlog_index = launched - queue_depth
                if backlog_index >= 0:
                    cpu = max(cpu, stream0.nth_start(backlog_index))
                if is_collective:
                    calls = []
                    for _ in streams:
                        calls.append(cpu)
                        cpu += launch_cpu
                        thread.occupy(launch_cpu)
                    start_at = max(
                        stream.earliest_start(calls[di] + launch_latency, gap)
                        for di, stream in enumerate(streams))
                    for di, stream in enumerate(streams):
                        start, _end = stream.submit(start_at, duration,
                                                    gap_ns=gap)
                        builder.launch_kernel(
                            calls[di], launch_cpu,
                            kernel.name, start, duration,
                            stream=stream.stream_id, device=stream.device,
                            flops=kernel.flops, bytes_moved=kernel.bytes_moved)
                        if recorder is not None:
                            recorder.observe_launch_delay(start - calls[di])
                            recorder.observe_launch_queue(
                                stream.pending_at(calls[di]))
                    core.link.record(duration, start_at)
                else:
                    for stream in streams:
                        call_ts = cpu
                        arrival = call_ts + launch_latency
                        start, _end = stream.submit(arrival, duration,
                                                    gap_ns=gap)
                        builder.launch_kernel(
                            call_ts, launch_cpu,
                            kernel.name, start, duration,
                            stream=stream.stream_id, device=stream.device,
                            flops=kernel.flops, bytes_moved=kernel.bytes_moved)
                        if recorder is not None:
                            recorder.observe_launch_delay(start - call_ts)
                            recorder.observe_launch_queue(
                                stream.pending_at(call_ts))
                        cpu += launch_cpu
                        thread.occupy(launch_cpu)
                launched += 1

            if child is not None:
                builder.end_operator(child, cpu)
            cpu += epilogue
            builder.end_operator(parent, cpu)

        cpu = _end_iteration_sync(builder, streams, cpu, config,
                                  measured=measured)
        cpu = yield ("at", cpu)


# ---------------------------------------------------------------------------
# Launch-per-kernel execution, one dispatch thread per device
# ---------------------------------------------------------------------------

def per_device_launch_processes(
    core: SimCore,
    builder: TraceBuilder,
    lowered: list[LoweredOp],
    platform: Platform,
    mode: ExecutionMode,
    config,
    recorder: RunRecorder | None = None,
    tenant: Hashable = None,
) -> list[Process]:
    """One dispatch process per device; rendezvous at collectives/barriers.

    ``tenant`` namespaces the rendezvous keys, so two independent engine
    process groups (two models, two replicas) can share one
    :class:`~repro.sim.core.SimCore` without their collectives colliding.
    The default (``None``) keeps the historical keys, so single-tenant runs
    are bit-identical to before the parameter existed.
    """
    world = len(core.devices)
    return [
        _device_dispatch_process(
            core, builder, lowered, platform, mode, config,
            recorder if device_index == 0 else None, device_index, world,
            tenant=tenant)
        for device_index in range(world)
    ]


def _device_dispatch_process(
    core: SimCore,
    builder: TraceBuilder,
    lowered: list[LoweredOp],
    platform: Platform,
    mode: ExecutionMode,
    config,
    recorder: RunRecorder | None,
    device_index: int,
    world: int,
    tenant: Hashable = None,
) -> Process:
    def rendezvous_key(*key: Hashable) -> tuple[Hashable, ...]:
        return key if tenant is None else (tenant, *key)

    stream = core.devices[device_index].compute_stream
    thread = core.cpu_threads[device_index]
    tid = thread.tid
    leader = device_index == 0
    launch_cpu = platform.launch_call_cpu_ns
    launch_latency = platform.launch_latency_ns
    gap = config.stream_kernel_gap_ns
    queue_depth = config.launch_queue_depth
    child_frac = config.child_dispatch_fraction
    plans = _op_plans(lowered, core, platform, mode, config, world)
    cpu = 0.0
    launched = 0
    total = config.warmup_iterations + config.iterations
    for iteration in range(total):
        measured = iteration >= config.warmup_iterations
        if measured and leader:
            builder.begin_iteration(cpu)
        for op_index, plan in enumerate(plans):
            aten_name, dispatch, epilogue, pre, child_name, kernels = plan
            parent = builder.begin_operator(aten_name, cpu, tid=tid)
            child = None
            if child_name is not None:
                cpu += pre * (1.0 - child_frac)
                child = builder.begin_operator(child_name, cpu, tid=tid)
                cpu += pre * child_frac
            else:
                cpu += pre
            thread.occupy(dispatch)

            for kernel_index, (kernel, duration, is_collective) in enumerate(
                    kernels):
                backlog_index = launched - queue_depth
                if backlog_index >= 0:
                    cpu = max(cpu, stream.nth_start(backlog_index))
                call_ts = cpu
                arrival = call_ts + launch_latency
                if is_collective:
                    ready = stream.earliest_start(arrival, gap)
                    rdv = core.rendezvous(
                        rendezvous_key("allreduce", iteration, op_index,
                                       kernel_index), world)
                    start_at = yield ("join", rdv, ready)
                    start, _end = stream.submit(start_at, duration, gap_ns=gap)
                    if leader:
                        core.link.record(duration, start)
                else:
                    start, _end = stream.submit(arrival, duration, gap_ns=gap)
                builder.launch_kernel(
                    call_ts, launch_cpu, kernel.name,
                    start, duration, stream=stream.stream_id,
                    device=stream.device, tid=tid,
                    flops=kernel.flops, bytes_moved=kernel.bytes_moved)
                if recorder is not None:
                    recorder.observe_launch_delay(start - call_ts)
                    recorder.observe_launch_queue(stream.pending_at(call_ts))
                cpu += launch_cpu
                thread.occupy(launch_cpu)
                launched += 1

            if child is not None:
                builder.end_operator(child, cpu)
            cpu += epilogue
            builder.end_operator(parent, cpu)

        # Per-device synchronize, then an iteration barrier so all threads
        # enter the next iteration together (mirroring a framework-level
        # step boundary).
        wait = max(0.0, stream.free_at - cpu)
        builder.runtime_call(DEVICE_SYNCHRONIZE, cpu,
                             config.sync_call_ns + wait, tid=tid)
        cpu += config.sync_call_ns + wait
        barrier = core.rendezvous(rendezvous_key("iteration-end", iteration),
                                  world)
        cpu = yield ("join", barrier, cpu)
        if measured and leader:
            builder.end_iteration(cpu)
        cpu += config.inter_iteration_gap_ns


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
    thread = core.cpu_threads[0]
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
        thread.occupy(replay_dispatch)
        arrivals = []
        for _ in streams:
            call_ts = cpu
            builder.runtime_call(GRAPH_LAUNCH, call_ts, launch_cpu)
            cpu += launch_cpu
            thread.occupy(launch_cpu)
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
        cpu = _end_iteration_sync(builder, streams, cpu, config,
                                  measured=measured)
        cpu = yield ("at", cpu)
