"""Export a recorded serving run as a SKIP-analyzable :class:`Trace`.

Self-hosting is the point: the serving loops are priced by memoized engine
runs, and every engine run already produces a full PyTorch-Profiler-style
trace. The exporter replays each recorded step's engine shape through the
same :class:`LatencyModel`, time-shifts the engine trace onto the serving
clock at the step's recorded begin, and remaps correlation ids so the
spliced steps coexist in one trace. Each step becomes one ``ProfilerStep``
iteration, so SKIP's depgraph/metrics/classification/fusion pipeline — and
``repro skip analyze`` on the dumped Chrome JSON — runs unmodified on the
simulator's own serving traces.

Steps priced by closed-form math rather than an engine run (static
batching's generation tail) carry no :class:`EngineShape`; they are
synthesized as a single ``serving::<kind>`` operator launching one covering
kernel, which keeps every iteration analyzable.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Mapping

from repro.errors import AnalysisError
from repro.obs.events import StepEvent, StepKind
from repro.obs.recorder import RunRecorder
from repro.trace.events import (
    KernelEvent,
    LAUNCH_KERNEL,
    OperatorEvent,
    RuntimeEvent,
)
from repro.trace.trace import Trace
from repro.workloads.config import ModelConfig
from repro.workloads.graph import Phase

if TYPE_CHECKING:  # avoids a cycle: serving.latency imports the engine,
    # which imports repro.obs for its recorder hooks.
    from repro.serving.latency import LatencyModel


def recording_to_trace(
    recorder: RunRecorder,
    latency: LatencyModel,
    model: ModelConfig | Mapping[str, ModelConfig],
    metadata: dict | None = None,
    devices_per_replica: int = 1,
) -> Trace:
    """Build one Chrome-trace-exportable :class:`Trace` from a recorded run.

    Args:
        recorder: The recorder a serving simulation wrote into.
        latency: The same latency model the simulation used (its platform,
            mode, and engine config determine the replayed step traces).
        model: The served model, or a name -> config mapping when the run
            mixed models (agentic pipelines, speculative decoding).
        metadata: Extra trace metadata (merged over the defaults).
        devices_per_replica: GPU devices (tensor-parallel shards) per engine
            replica. Steps from replica ``r`` land on device ordinals
            ``r * devices_per_replica ...`` and on their own CPU thread ids,
            so multi-replica runs export as one coherent multi-GPU trace.

    Raises:
        AnalysisError: when no steps were recorded or a step references a
            model the mapping does not contain.
    """
    if not recorder.steps:
        raise AnalysisError("recorded run has no steps to export")
    if devices_per_replica <= 0:
        raise AnalysisError("devices_per_replica must be positive")
    models = model if isinstance(model, Mapping) else {model.name: model}

    out = Trace(metadata={
        "source": "repro.obs",
        "platform": latency.platform.name,
        "mode": latency.mode.value,
        "models": sorted(models),
        **(metadata or {}),
    })
    if recorder.kv_pools or recorder.kv_events:
        # The KV audit trail rides in the trace so `repro check trace` can
        # re-verify pool accounting (rules K001-K004) from the file alone.
        out.metadata["kv"] = {
            "pools": {str(replica): dict(info)
                      for replica, info in sorted(recorder.kv_pools.items())},
            "events": [event.to_dict() for event in recorder.kv_events],
        }
    if recorder.cluster_meta or recorder.routing:
        # Routing decisions ride along too, so `repro check trace` can
        # re-verify conservation and session affinity (rules R001/R002).
        out.metadata["cluster"] = {
            **recorder.cluster_meta,
            "events": [dict(event) for event in recorder.routing],
        }
    if recorder.host_meta:
        # Host-topology description plus every core-time grant, so `repro
        # check trace` can re-verify the CPU schedule (rules N001-N004).
        out.metadata["host"] = {
            **recorder.host_meta,
            "grants": [dict(grant) for grant in recorder.host_grants],
        }
    splicer = _Splicer(out, devices_per_replica=devices_per_replica)
    marks: list[tuple[float, float]] = []
    for step in sorted(recorder.steps, key=lambda s: (s.ts_ns, s.index)):
        if step.shape is not None:
            if step.shape.model not in models:
                raise AnalysisError(
                    f"step {step.index} references model "
                    f"{step.shape.model!r} not passed to the exporter")
            result = latency.run_for(
                models[step.shape.model],
                batch_size=step.shape.batch_size,
                seq_len=step.shape.seq_len,
                phase=Phase(step.shape.phase),
                context_len=step.shape.context_len,
            )
            splicer.splice(result.trace, step)
        else:
            splicer.synthesize(step, latency)
        marks.append((step.ts_ns, step.ts_end_ns))
    for ts, ts_end in _merge_overlapping(marks):
        out.mark_iteration(ts, ts_end)
    out.sort()
    out.validate()
    return out


def _merge_overlapping(
        marks: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Coalesce iteration marks that strictly overlap.

    Replicas step concurrently, and ProfilerStep iterations must not overlap
    (trace lint T008). Marks that merely touch stay separate — single-replica
    runs, whose steps are contiguous, export exactly as before.
    """
    merged: list[tuple[float, float]] = []
    for ts, ts_end in sorted(marks):
        if merged and ts < merged[-1][1]:
            last_ts, last_end = merged[-1]
            merged[-1] = (last_ts, max(last_end, ts_end))
        else:
            merged.append((ts, ts_end))
    return merged


class _Splicer:
    """Copies engine-trace events onto the serving clock with fresh ids.

    Multi-replica runs shift each replica's events onto its own device
    ordinals (``replica * devices_per_replica + local``) and its own CPU
    thread ids, so kernels from concurrently-stepping replicas never collide
    on one (device, stream) lane and each replica's operator nesting stays
    self-contained. Replica 0's offsets are zero, which keeps single-replica
    exports byte-identical to the pre-replica format.
    """

    def __init__(self, out: Trace, devices_per_replica: int = 1) -> None:
        self._out = out
        self._devices_per_replica = devices_per_replica
        self._correlation = itertools.count(1)
        self._graph_correlation = itertools.count(1)
        self._seq = itertools.count(0)

    def _offsets(self, step: StepEvent) -> tuple[int, int]:
        """(device, tid) offsets for the step's replica. The tid stride is
        ``devices_per_replica + 1`` because an engine run uses one dispatch
        tid per device plus the main thread."""
        device = step.replica * self._devices_per_replica
        tid = step.replica * (self._devices_per_replica + 1)
        return device, tid

    def splice(self, engine_trace: Trace, step: StepEvent) -> None:
        """Copy the engine trace's first measured iteration into the step."""
        if not engine_trace.iterations:
            raise AnalysisError(
                f"engine trace for step {step.index} has no iterations")
        device_offset, tid_offset = self._offsets(step)
        mark = engine_trace.iterations[0]
        offset = step.ts_ns - mark.ts
        in_window = lambda e: mark.ts <= e.ts < mark.ts_end

        ops = sorted((o for o in engine_trace.operators if in_window(o)),
                     key=lambda o: (o.ts, o.seq, o.event_id))
        for op in ops:
            self._out.add(OperatorEvent(
                name=op.name, ts=op.ts + offset, dur=op.dur,
                tid=op.tid + tid_offset, seq=next(self._seq)))

        remap: dict[int, int] = {}
        for call in engine_trace.runtime_calls:
            if not in_window(call):
                continue
            correlation = -1
            if call.is_launch and call.correlation_id >= 0:
                correlation = next(self._correlation)
                remap[call.correlation_id] = correlation
            self._out.add(RuntimeEvent(
                name=call.name, ts=call.ts + offset, dur=call.dur,
                tid=call.tid + tid_offset, correlation_id=correlation))

        for kernel in engine_trace.kernels:
            if kernel.correlation_id >= 0:
                correlation = remap.get(kernel.correlation_id)
                if correlation is None:
                    continue  # launched outside the spliced iteration
            elif in_window(kernel):
                correlation = -next(self._graph_correlation) - 1_000_000_000
            else:
                continue
            self._out.add(KernelEvent(
                name=kernel.name, ts=kernel.ts + offset, dur=kernel.dur,
                tid=0, correlation_id=correlation, stream=kernel.stream,
                device=kernel.device + device_offset, flops=kernel.flops,
                bytes_moved=kernel.bytes_moved))

    #: Stream id synthesized KV swap transfers land on — a copy-engine lane
    #: distinct from the compute streams (7+), so interconnect traffic shows
    #: up as its own row in trace viewers.
    COPY_STREAM = 15
    #: Compute stream every device's in-order stream uses (mirrors
    #: ``SimCore.add_device``). ``KernelEvent`` is a slots dataclass, so the
    #: default cannot be read off the class attribute.
    COMPUTE_STREAM = 7

    def synthesize(self, step: StepEvent, latency: LatencyModel) -> None:
        """Emit a minimal analyzable iteration for a closed-form step."""
        device_offset, tid_offset = self._offsets(step)
        platform = latency.platform
        call_dur = min(platform.launch_call_cpu_ns, step.dur_ns)
        kernel_ts = min(step.ts_ns + platform.launch_latency_ns,
                        step.ts_end_ns)
        correlation = next(self._correlation)
        swap = step.kind in (StepKind.SWAP_OUT, StepKind.SWAP_IN)
        stream = self.COPY_STREAM if swap else self.COMPUTE_STREAM
        self._out.add(OperatorEvent(
            name=f"serving::{step.kind.value}", ts=step.ts_ns,
            dur=step.dur_ns, tid=1 + tid_offset, seq=next(self._seq)))
        self._out.add(RuntimeEvent(
            name=LAUNCH_KERNEL, ts=step.ts_ns, dur=call_dur,
            tid=1 + tid_offset, correlation_id=correlation))
        self._out.add(KernelEvent(
            name=f"serving_{step.kind.value}_kernel", ts=kernel_ts,
            dur=step.ts_end_ns - kernel_ts, tid=0,
            correlation_id=correlation, stream=stream,
            device=device_offset))

