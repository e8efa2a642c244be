"""Named simulation resources: GPU devices/streams and links.

``StreamResource`` is the in-order CUDA stream model (formerly
``repro.engine.gpu_stream.GpuStream``, folded in here): a kernel starts at
``max(arrival, previous kernel's end)`` — the difference between its start
and its launch-call begin is exactly the paper's per-kernel launch-and-queuing
time ``t_l`` (Eq. 1).

``LinkResource`` wraps an :class:`~repro.hardware.interconnect.InterconnectSpec`
for device-to-device traffic and provides the ring all-reduce cost model the
tensor-parallel collectives use.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.hardware.interconnect import InterconnectSpec

if TYPE_CHECKING:  # import would be circular only in annotations' eyes; kept
    from repro.sim.causality import CausalityLog  # lazy for import hygiene.


@dataclass(slots=True)
class StreamResource:
    """One in-order stream on one GPU device.

    Attributes:
        stream_id: Stream number reported in traces (CUDA's default compute
            stream shows up as 7 in profiler output; additional streams on
            the same device count up from there).
        device: Owning GPU ordinal.
        free_at: Time the stream finishes its last submitted kernel.
        busy_ns: Accumulated kernel execution time.
        kernel_count: Number of kernels submitted.
        start_times: Start time of every submitted kernel, in order (used by
            the executor to model the bounded launch queue).
        log: Optional causality log; when attached (``SimCore(causality=…)``)
            every submitted kernel records an ``occupy`` interval.
    """

    stream_id: int = 7
    device: int = 0
    free_at: float = 0.0
    busy_ns: float = 0.0
    kernel_count: int = 0
    start_times: list[float] = field(default_factory=list)
    log: CausalityLog | None = None

    @property
    def label(self) -> str:
        """Stable causality-log resource name for this stream."""
        return f"device{self.device}.stream{self.stream_id}"

    def submit(self, arrival_ns: float, duration_ns: float,
               gap_ns: float = 0.0) -> tuple[float, float]:
        """Submit a kernel; returns (start, end) timestamps.

        Args:
            arrival_ns: When the kernel reaches the GPU front-end (launch-call
                begin + launch latency).
            duration_ns: Execution duration.
            gap_ns: Stream front-end gap between back-to-back kernels
                (individually launched kernels pay a small teardown/setup
                cost that CUDA-graph replay avoids).

        :func:`repro.engine.pricing.price_step` repeats the start rule
        and the checks; the two must change together.
        """
        if duration_ns < 0:
            raise SimulationError("kernel duration must be non-negative")
        if arrival_ns < 0:
            raise SimulationError("kernel arrival must be non-negative")
        if gap_ns < 0:
            raise SimulationError("gap must be non-negative")
        back_to_back = self.kernel_count > 0
        start = max(arrival_ns, self.free_at + (gap_ns if back_to_back else 0.0))
        end = start + duration_ns
        self.free_at = end
        self.busy_ns += duration_ns
        self.kernel_count += 1
        self.start_times.append(start)
        if self.log is not None:
            self.log.occupy(self.label, start, end)
        return start, end

    def earliest_start(self, arrival_ns: float, gap_ns: float = 0.0) -> float:
        """When a kernel arriving at ``arrival_ns`` could start, without
        submitting it. Collectives use this to compute the cross-device
        rendezvous time before committing the kernel to every stream."""
        back_to_back = self.kernel_count > 0
        return max(arrival_ns, self.free_at + (gap_ns if back_to_back else 0.0))

    def pending_at(self, ts: float) -> int:
        """Submitted kernels that have not yet started executing at ``ts``.

        This is the launch-queue occupancy the observability layer samples:
        ``start_times`` is non-decreasing on an in-order stream, so a binary
        search keeps the sample O(log n).
        """
        return self.kernel_count - bisect_right(self.start_times, ts)

    def nth_start(self, index: int) -> float:
        """Start time of the ``index``-th submitted kernel (0-based)."""
        try:
            return self.start_times[index]
        except IndexError:
            raise SimulationError(f"no kernel {index} submitted yet") from None


@dataclass(slots=True)
class GpuDevice:
    """One GPU with one or more in-order streams.

    The default compute stream is ``streams[0]`` (stream id 7, matching what
    profilers report for the first CUDA stream); extra streams count up.
    ``replica`` identifies the serving engine replica the device belongs to
    (0 for single-engine runs; see :mod:`repro.serving.runtime`).
    """

    index: int = 0
    streams: list[StreamResource] = field(default_factory=list)
    replica: int = 0

    def __post_init__(self) -> None:
        if not self.streams:
            self.streams = [StreamResource(stream_id=7, device=self.index)]

    @property
    def compute_stream(self) -> StreamResource:
        return self.streams[0]


@dataclass(slots=True)
class LinkResource:
    """A device-to-device interconnect link.

    Wraps an :class:`InterconnectSpec` and adds the collective cost model:
    a ring all-reduce over ``world`` devices moves ``2*(world-1)`` chunks of
    ``message/world`` bytes per device, paying the link's base latency per
    step — the standard bandwidth-optimal ring schedule.
    """

    spec: InterconnectSpec
    log: CausalityLog | None = None

    def allreduce_ns(self, message_bytes: float, world: int) -> float:
        """Duration of one ring all-reduce of ``message_bytes`` (full tensor
        size) across ``world`` devices."""
        if message_bytes < 0:
            raise SimulationError("all-reduce message size must be non-negative")
        if world < 1:
            raise SimulationError("all-reduce world size must be positive")
        if world == 1 or message_bytes == 0:
            return 0.0
        steps = 2 * (world - 1)
        chunk = message_bytes / world
        # bandwidth_gbs GB/s is numerically equal to bytes per nanosecond.
        return steps * (self.spec.base_latency_ns + chunk / self.spec.bandwidth_gbs)

    def record(self, duration_ns: float,
               start_ns: float | None = None) -> None:
        """Record one collective/transfer occupancy on the link.

        A negative duration is refused. Callers that know when the transfer
        begins pass ``start_ns`` so an attached causality log can record
        the occupancy *interval*.
        """
        if duration_ns < 0:
            raise SimulationError("link occupancy must be non-negative")
        if self.log is not None and start_ns is not None:
            self.log.occupy("link", start_ns, start_ns + duration_ns)
