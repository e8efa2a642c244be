"""Agentic pipelines: chained model invocations (Section II-A).

In agentic systems an orchestrator LLM's output feeds downstream models; the
paper's point is that per-stage latency *compounds*, so batching-induced
latency anywhere in the chain degrades end-to-end responsiveness. This module
composes per-stage generation latencies from the engine-backed LatencyModel.

:func:`stage_prefills` prices a chain once. :class:`PipelineServingPolicy`
serves it through the batched loop
(:func:`repro.serving.batched.batched_serving_process`), and
:meth:`AgenticPipeline.run` prices and records one batch from the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError
from repro.obs.recorder import RunRecorder
from repro.serving.batched import BatchPlan, Prefill, record_plan
from repro.serving.latency import LatencyModel
from repro.serving.planner import BatchDecision, StepPlanner
from repro.serving.requests import Request
from repro.workloads.config import ModelConfig

if TYPE_CHECKING:
    from repro.serving.runtime import AdmissionQueue, ServingRuntime


@dataclass(frozen=True)
class PipelineStage:
    """One model invocation in an agentic chain.

    ``consumes_upstream`` adds the previous stage's generated tokens to this
    stage's prompt (output chaining).
    """

    name: str
    model: ModelConfig
    prompt_len: int
    output_tokens: int
    consumes_upstream: bool = True

    def __post_init__(self) -> None:
        if self.prompt_len <= 0 or self.output_tokens <= 0:
            raise ConfigurationError(
                f"stage {self.name}: lengths must be positive")


@dataclass(frozen=True)
class StageLatency:
    """Latency of one executed stage."""

    stage: str
    prompt_len: int
    ttft_ns: float
    total_ns: float


@dataclass(frozen=True)
class PipelineResult:
    """End-to-end latency of a pipeline execution."""

    stages: tuple[StageLatency, ...]

    @property
    def total_ns(self) -> float:
        return sum(s.total_ns for s in self.stages)

    @property
    def total_ttft_ns(self) -> float:
        """Sum of per-stage TTFTs — the 'first signs of progress' latency."""
        return sum(s.ttft_ns for s in self.stages)

    def slowest_stage(self) -> StageLatency:
        return max(self.stages, key=lambda s: s.total_ns)


def stage_prefills(stages: Sequence[PipelineStage], latency: LatencyModel,
                   batch_size: int, request_prompt: int) -> tuple[Prefill, ...]:
    """Each stage of a chain as one priced prefill with its generation.

    The first stage's prompt is its ``prompt_len`` plus
    ``request_prompt``; a later stage adds the previous stage's output
    tokens when it ``consumes_upstream``.
    """
    prefills = []
    upstream_tokens = request_prompt
    for position, stage in enumerate(stages):
        consumes = position == 0 or stage.consumes_upstream
        prompt = stage.prompt_len + (upstream_tokens if consumes else 0)
        prefills.append(Prefill(
            stage.model, prompt,
            latency.ttft_ns(stage.model, batch_size, prompt),
            latency.generation_ns(stage.model, batch_size, prompt,
                                  stage.output_tokens)))
        upstream_tokens = stage.output_tokens
    return tuple(prefills)


class AgenticPipeline:
    """A chain of model invocations evaluated on one platform."""

    def __init__(self, stages: list[PipelineStage], latency: LatencyModel) -> None:
        if not stages:
            raise ConfigurationError("pipeline needs at least one stage")
        self.stages = list(stages)
        self.latency = latency

    def run(self, batch_size: int = 1,
            recorder: RunRecorder | None = None) -> PipelineResult:
        """Evaluate end-to-end latency when every stage runs at ``batch_size``.

        Larger batch sizes model a deployment that batches concurrent
        pipeline executions at each stage; latency compounds per stage. A
        recorder sees the serving policy's timeline of one batch: each
        stage as a prefill step (engine-shaped) followed by a closed-form
        generation step on one compounding clock.
        """
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        prefills = stage_prefills(self.stages, self.latency, batch_size, 0)
        if recorder is not None:
            record_plan(recorder, prefills, self.latency, batch_size)
        return PipelineResult(stages=tuple(
            StageLatency(stage=stage.name, prompt_len=prefill.prompt_len,
                         ttft_ns=prefill.ttft_ns, total_ns=prefill.total_ns)
            for stage, prefill in zip(self.stages, prefills)))


@dataclass(frozen=True)
class PipelineServingPolicy:
    """Serve an arrival stream where every request runs an agentic chain.

    Each claimed batch executes the whole stage chain back to back: the
    first stage's prompt is its configured ``prompt_len`` plus the padded
    request prompt; downstream stages chain on the previous stage's output
    when ``consumes_upstream`` is set, exactly like
    :class:`AgenticPipeline`.
    """

    stages: tuple[PipelineStage, ...]
    max_batch_size: int = 8
    chunk_tokens: int = 0

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigurationError("pipeline needs at least one stage")
        if self.max_batch_size <= 0:
            raise ConfigurationError("max_batch_size must be positive")
        if self.chunk_tokens < 0:
            raise ConfigurationError(
                "chunk_tokens must be non-negative (0 disables chunking)")

    def claim(self, queue: AdmissionQueue, now: float) -> BatchDecision:
        """The oldest waiting requests, up to ``max_batch_size``."""
        return StepPlanner.next_fifo_batch(queue, now, self.max_batch_size)

    def plan(self, runtime: ServingRuntime,
             batch: tuple[Request, ...]) -> BatchPlan:
        """Every stage of the chain for the padded batch, back to back.
        TTFT is the first stage's prefill (the user's first signs of
        progress); completion is the whole chain, which compounds per
        stage — the paper's agentic-latency point."""
        return BatchPlan(
            stage_prefills(self.stages, runtime.latency, len(batch),
                           max(r.prompt_len for r in batch)),
            lambda request, booked: booked.end_ns)
