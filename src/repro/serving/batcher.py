"""Static batching: policy and report.

Section II-A of the paper frames the central serving trade-off: large batches
maximize throughput but inflate per-user latency (TTFT); BS=1 minimizes
latency but wastes hardware. Static batching is the classic form: collect
requests until the batch is full or the oldest has waited too long, then run
prefill + decode for the whole batch padded to its longest member.

:class:`StaticBatchPolicy` serves through the batched loop
(:func:`repro.serving.batched.batched_serving_process`): its ``claim`` hook
gathers the batching window and its ``plan`` hook prices the padded batch;
:func:`simulate_static_batching` wraps it for the single-call API. With one
replica its outcomes match the original standalone loop's frozen ones
except where the batched loop's booked clock moves a completion by a few
ulps (``tests/golden/data/legacy_parity_rows.json`` holds the moved rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError
from repro.obs.recorder import RunRecorder
from repro.serving.batched import BatchPlan, padded_plan
from repro.serving.latency import LatencyModel
from repro.serving.planner import BatchDecision
from repro.serving.requests import Request, RequestOutcome
from repro.workloads.config import ModelConfig

if TYPE_CHECKING:
    from repro.serving.runtime import AdmissionQueue, ServingRuntime


@dataclass(frozen=True)
class StaticBatchPolicy:
    """Collect up to ``max_batch_size`` requests or wait at most ``max_wait_ns``.

    ``max_batch_size=1`` degenerates to latency-critical single-stream
    serving (MLPerf SingleStream, per Section IV-B).
    """

    max_batch_size: int = 8
    max_wait_ns: float = 50e6  # 50 ms

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ConfigurationError("max_batch_size must be positive")
        if self.max_wait_ns < 0:
            raise ConfigurationError("max_wait_ns must be non-negative")

    def claim(self, queue: AdmissionQueue, now: float) -> BatchDecision:
        """The oldest waiting request plus everything that arrived within
        its batching window, launched once the last of them is in."""
        seed = queue.first_unclaimed()
        if seed is None:
            return BatchDecision(done=True)
        if seed.arrival_ns > now:
            # Nothing waiting yet: sleep until the next arrival. Another
            # replica may claim it first; re-check on wake.
            return BatchDecision(wake_at=seed.arrival_ns)
        batch_start = max(seed.arrival_ns, now)
        deadline = seed.arrival_ns + self.max_wait_ns
        batch = queue.claim_batch(seed, self.max_batch_size,
                                  max(deadline, batch_start))
        return BatchDecision(batch=tuple(batch),
                             launch_ns=max(batch_start, batch[-1].arrival_ns))

    def plan(self, runtime: ServingRuntime,
             batch: tuple[Request, ...]) -> BatchPlan:
        """One prefill padded to the longest prompt, then a closed-form
        generation to the longest output; every request is charged the
        padded batch."""
        return padded_plan(runtime.latency, runtime.model, batch,
                           max(r.prompt_len for r in batch))


@dataclass
class ServingReport:
    """Aggregate statistics for one simulated serving run."""

    outcomes: list[RequestOutcome]

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ConfigurationError("no outcomes to report")

    def _values(self, attr: str) -> list[float]:
        return sorted(getattr(o, attr) for o in self.outcomes)

    def mean_ttft_ns(self) -> float:
        values = self._values("ttft_ns")
        return sum(values) / len(values)

    def p99_ttft_ns(self) -> float:
        values = self._values("ttft_ns")
        return values[min(len(values) - 1, int(0.99 * len(values)))]

    def mean_completion_ns(self) -> float:
        values = self._values("completion_ns")
        return sum(values) / len(values)

    def throughput_tokens_per_s(self) -> float:
        total_tokens = sum(o.request.output_tokens for o in self.outcomes)
        makespan_ns = max(o.request.arrival_ns + o.completion_ns
                          for o in self.outcomes)
        return total_tokens / (makespan_ns / 1e9)

    def mean_batch_size(self) -> float:
        return sum(o.batch_size for o in self.outcomes) / len(self.outcomes)


def simulate_static_batching(
    requests: Sequence[Request],
    model: ModelConfig,
    latency: LatencyModel,
    policy: StaticBatchPolicy = StaticBatchPolicy(),
    recorder: RunRecorder | None = None,
) -> ServingReport:
    """Run a static-batching serving loop over an arrival stream.

    The server collects requests until the batch is full or the oldest
    request has waited ``max_wait_ns``, then runs prefill + decode for the
    whole batch (padded to the longest prompt/output in the batch — the
    classic static-batching inefficiency).

    A recorder, when given, sees each batch as one engine-shaped prefill step
    plus a closed-form generation step (decode here is priced by a trapezoid
    integral, not per-step engine runs).

    This is a thin wrapper over :func:`repro.serving.runtime.simulate_serving`
    with one replica; use ``simulate_serving`` directly for multi-replica
    runs or per-replica statistics.
    """
    from repro.serving.runtime import simulate_serving

    return simulate_serving(requests, model, latency, policy=policy,
                            recorder=recorder).report
