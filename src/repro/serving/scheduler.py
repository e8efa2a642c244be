"""Priority-aware serving: the paper's "intelligent scheduling" lever.

Section VI: GH200's low-batch weakness can be addressed by "enhancing CPU
performance or employing intelligent scheduling in CC/TC designs". This
scheduler implements the second lever: two request classes share one
engine —

* **interactive** requests are served immediately at small batch (low TTFT);
* **bulk** requests accumulate into large batches that run whenever no
  interactive work is waiting, exploiting the CC system's large-batch
  strength.

Compared with a single FIFO queue, interactive latency approaches BS=1
serving while bulk work keeps the GPU in its high-throughput region.

:class:`PriorityPolicy` serves through the batched loop
(:func:`repro.serving.batched.batched_serving_process`): its ``claim`` hook
is the two-class rule and its ``plan`` hook prices the padded batch. It
fixes the legacy loop's batch-accounting bug: the original standalone
loop charged every request in a bulk batch the batch maximum
``output_tokens``, overstating
short requests' completion latency; the sim-backed path charges each
request its own generation time (the engine still runs for the padded
batch maximum, so scheduling decisions and TTFTs are unchanged).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.obs.recorder import RunRecorder
from repro.serving.batched import BatchPlan, padded_plan
from repro.serving.batcher import ServingReport
from repro.serving.latency import LatencyModel
from repro.serving.planner import BatchDecision
from repro.serving.requests import Request, RequestOutcome
from repro.workloads.config import ModelConfig

if TYPE_CHECKING:
    from repro.serving.runtime import AdmissionQueue, ServingRuntime


class RequestClass(enum.Enum):
    INTERACTIVE = "interactive"
    BULK = "bulk"


@dataclass(frozen=True)
class ClassifiedRequest:
    """A request tagged with its service class."""

    request: Request
    request_class: RequestClass


@dataclass(frozen=True)
class PriorityPolicy:
    """Scheduling knobs.

    Attributes:
        interactive_batch: Maximum batch for interactive service.
        bulk_batch: Target batch for bulk service.
        bulk_max_wait_ns: Oldest bulk request age that forces a bulk run
            even when the batch is not full (starvation guard).
        chunk_tokens: Per-step token budget for chunked prefill; 0 keeps
            whole-batch prefills (bit-identical to the legacy schedule).
    """

    interactive_batch: int = 2
    bulk_batch: int = 32
    bulk_max_wait_ns: float = 500e6
    chunk_tokens: int = 0

    def __post_init__(self) -> None:
        if self.interactive_batch <= 0 or self.bulk_batch <= 0:
            raise ConfigurationError("batch sizes must be positive")
        if self.bulk_max_wait_ns < 0:
            raise ConfigurationError("bulk_max_wait_ns must be non-negative")
        if self.chunk_tokens < 0:
            raise ConfigurationError(
                "chunk_tokens must be non-negative (0 disables chunking)")

    def claim(self, queue: AdmissionQueue, now: float) -> BatchDecision:
        """Waiting interactive requests first, at small batch; bulk
        requests once the batch fills, the oldest hits the starvation
        guard, or no further arrivals are coming. Requests carry their
        class as the admission-queue tag (see ``ClassifiedRequest``)."""
        if queue.all_claimed():
            return BatchDecision(done=True)
        interactive = queue.claim(now, self.interactive_batch,
                                  tag=RequestClass.INTERACTIVE)
        if interactive:
            return BatchDecision(batch=tuple(interactive), launch_ns=now)
        bulk_depth = queue.depth(now, tag=RequestClass.BULK)
        if bulk_depth:
            oldest = queue.first_unclaimed(tag=RequestClass.BULK)
            assert oldest is not None
            bulk_due = (
                bulk_depth >= self.bulk_batch
                or now - oldest.arrival_ns >= self.bulk_max_wait_ns
                or queue.next_unclaimed_arrival(after=now) is None)
            if bulk_due:
                return BatchDecision(
                    batch=tuple(queue.claim(now, self.bulk_batch,
                                            tag=RequestClass.BULK)),
                    launch_ns=now)
        nxt = queue.next_unclaimed_arrival(after=now)
        if nxt is not None:
            return BatchDecision(wake_at=nxt)
        if bulk_depth:
            # Let the starvation guard fire.
            return BatchDecision(wake_at=now + self.bulk_max_wait_ns)
        waiting = queue.first_unclaimed()
        assert waiting is not None
        raise ConfigurationError(
            f"request {waiting.request.request_id} has no service class; "
            f"priority scheduling serves ClassifiedRequest streams")

    def plan(self, runtime: ServingRuntime,
             batch: tuple[Request, ...]) -> BatchPlan:
        """The batch prefill padded to its longest prompt and generation to
        its longest output. Each request is charged its own generation
        time; the engine still runs for the padded batch maximum, so the
        clock advance and every scheduling decision are unchanged."""
        return padded_plan(runtime.latency, runtime.model, batch,
                           max(r.prompt_len for r in batch), own_output=True)


@dataclass
class PriorityReport:
    """Per-class serving statistics."""

    interactive: ServingReport
    bulk: ServingReport

    @property
    def all_outcomes(self) -> list[RequestOutcome]:
        return [*self.interactive.outcomes, *self.bulk.outcomes]


def simulate_priority_scheduling(
    requests: list[ClassifiedRequest],
    model: ModelConfig,
    latency: LatencyModel,
    policy: PriorityPolicy = PriorityPolicy(),
    recorder: RunRecorder | None = None,
) -> PriorityReport:
    """Run the two-class scheduler over a classified arrival stream.

    This is a thin wrapper over :func:`repro.serving.runtime.simulate_serving`
    with one replica, re-partitioning the outcomes by class.
    """
    from repro.serving.runtime import simulate_serving

    if not requests:
        raise ConfigurationError("no requests to serve")
    classes = {c.request.request_id: c.request_class for c in requests}
    result = simulate_serving(requests, model, latency, policy=policy,
                              recorder=recorder)
    by_class: dict[RequestClass, list[RequestOutcome]] = {
        RequestClass.INTERACTIVE: [],
        RequestClass.BULK: [],
    }
    for outcome in result.outcomes:
        by_class[classes[outcome.request.request_id]].append(outcome)
    interactive_outcomes = by_class[RequestClass.INTERACTIVE]
    bulk_outcomes = by_class[RequestClass.BULK]
    if not interactive_outcomes or not bulk_outcomes:
        raise ConfigurationError(
            "stream must contain both interactive and bulk requests")
    return PriorityReport(
        interactive=ServingReport(outcomes=interactive_outcomes),
        bulk=ServingReport(outcomes=bulk_outcomes),
    )
