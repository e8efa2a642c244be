"""Continuous (iteration-level) batching, vLLM-style.

Section IV-B: serving frameworks like vLLM "aim to maximize throughput while
approaching the low latency characteristic of BS=1 execution" using
continuous batching. This policy admits requests at decode-step boundaries
instead of waiting to assemble a full static batch: new arrivals are
prefilled as soon as the engine is free, then join the running decode batch,
so one slow request never holds a batch hostage.

Decode-step latencies are looked up through the engine-backed LatencyModel
with context lengths bucketed (decode cost is near-affine in context, and
bucketing bounds the number of engine runs).

Batch composition is delegated to the token-budget planner
(:mod:`repro.serving.planner`). With ``chunk_tokens == 0`` (the default)
prompts prefill whole and the loop reproduces the legacy continuous loop's
frozen outcomes bit-for-bit; with a
positive budget, prompts are prefilled in budget-sized *chunks* interleaved
with decode steps (sarathi-serve's stall-free scheduling), so a long prompt
delays in-flight decodes by at most one chunk instead of a whole prefill.

The serving loop is :func:`continuous_batching_process`, a process on
:class:`repro.serving.runtime.ServingRuntime`. Passing a
:class:`repro.obs.RunRecorder` records every admission, prefill batch or
chunk, decode step, token, and completion; the recorded run exports as a
SKIP-analyzable Chrome trace (see ``docs/observability.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError
from repro.obs.events import EngineShape, StepKind
from repro.obs.recorder import RunRecorder
from repro.serving.batcher import ServingReport
from repro.serving.latency import LatencyModel
from repro.serving.planner import (ChunkedSequenceState, PlannerConfig,
                                   PromptChunk, StepPlanner,
                                   decode_schedule_label)
from repro.serving.requests import Request
from repro.workloads.config import ModelConfig

if TYPE_CHECKING:
    from repro.serving.runtime import EngineSession, ServingRuntime
    from repro.sim.core import Process


@dataclass(frozen=True)
class ContinuousBatchPolicy:
    """Iteration-level scheduling knobs.

    Attributes:
        max_active: Maximum sequences decoding concurrently.
        context_bucket: Decode context lengths are rounded up to this
            multiple for latency lookups.
        chunk_tokens: Per-step token budget for chunked prefill
            (``max_num_batched_tokens``); 0 disables chunking and
            reproduces whole-prefill serving bit-identically.
    """

    max_active: int = 16
    context_bucket: int = 64
    chunk_tokens: int = 0

    def __post_init__(self) -> None:
        if self.max_active <= 0:
            raise ConfigurationError("max_active must be positive")
        if self.context_bucket <= 0:
            raise ConfigurationError("context_bucket must be positive")
        if self.chunk_tokens < 0:
            raise ConfigurationError(
                "chunk_tokens must be non-negative (0 disables chunking)")
        if self.chunk_tokens and self.chunk_tokens < self.max_active:
            raise ConfigurationError(
                f"chunk_tokens ({self.chunk_tokens}) must cover one decode "
                f"token per active sequence (max_active={self.max_active})")


def continuous_batching_process(runtime: ServingRuntime,
                                session: EngineSession,
                                policy: ContinuousBatchPolicy) -> Process:
    """One replica's iteration-level scheduler, as a sim process.

    Each wake-up runs one decode window (see
    :meth:`StepPlanner.decode_window`): every active sequence decodes one
    token per step, for as many steps as nothing else could happen in
    between. A window's first step is planner-composed: the leftover token
    budget (if chunking is on) runs prompt chunks for
    claimed-but-unprefilled requests, and such a step is a window of one.
    Finished sequences retire and new arrivals are admitted at the window
    boundary. With chunking off, admission prefills the whole batch
    immediately and steps are pure decodes — the legacy schedule, bit for
    bit.
    """
    queue = session.queue
    latency = runtime.latency
    model = runtime.model
    recorder = runtime.recorder
    # Finite-host runs price each step's dispatch-CPU share so the
    # session can book it on the contended core pool; the infinite-CPU
    # path passes 0.0 and performs no extra lookups.
    host = session.host
    planner = StepPlanner(PlannerConfig(chunk_tokens=policy.chunk_tokens),
                          max_active=policy.max_active)
    active: list[ChunkedSequenceState] = []
    # Chunked mode: requests claimed but still prefilling, by id, with the
    # claim time (queue-delay accounting needs it once the last chunk lands).
    admitted: dict[int, tuple[Request, float]] = {}
    newly_joined: list[int] = []        # rids whose first decode is next step
    clock = 0.0

    def start_sequence(request: Request, admitted_ns: float,
                       batch_size: int) -> None:
        """Shared post-prefill bookkeeping: first token, retire or join."""
        seq = ChunkedSequenceState(
            request=request,
            first_token_ns=clock - request.arrival_ns,
            remaining=request.output_tokens - 1,
            context=request.prompt_len + 1,
            admitted_ns=admitted_ns,
            last_token_ns=clock - request.arrival_ns,
        )
        if recorder is not None:
            recorder.on_first_token(request.request_id, clock)
        if seq.remaining <= 0:
            # Single-token request: its first (prefill) token is its
            # last; it completes here and never joins the decode batch.
            if recorder is not None:
                recorder.on_completed(request.request_id, clock)
            runtime.complete(request,
                             ttft_ns=seq.first_token_ns,
                             completion_ns=seq.first_token_ns,
                             batch_size=batch_size,
                             service_start_ns=admitted_ns,
                             session=session)
        else:
            active.append(seq)
            if planner.enabled:
                newly_joined.append(request.request_id)

    def admit() -> None:
        nonlocal clock
        batch = queue.claim(
            clock, policy.max_active - len(active) - planner.pending_count)
        if not batch:
            return
        admitted_ns = clock
        if recorder is not None:
            for request in batch:
                recorder.on_admitted(request.request_id, request.arrival_ns,
                                     clock)
        if planner.enabled:
            # Chunked mode: defer prefill to the step loop, where the
            # planner interleaves budget-sized chunks with decodes.
            planner.admit(batch, clock)
            for request in batch:
                admitted[request.request_id] = (request, admitted_ns)
            return
        prompt_len = max(r.prompt_len for r in batch)
        for chunk in planner.prefill_plan(batch[0].request_id, prompt_len):
            # Whole-prompt plan: one chunk priced by the same single
            # ttft_ns lookup the pre-planner loop made (the parity anchor).
            prefill_ns = StepPlanner.chunk_cost_ns(latency, model,
                                                   len(batch), chunk)
            clock += session.execute(
                chunk.kind, clock, prefill_ns, len(batch),
                queue_depth=queue.depth(clock) if recorder is not None else 0,
                shape=EngineShape(model.name, len(batch), prompt_len)
                if recorder is not None else None,
                schedule_label=chunk.schedule_label,
                cpu_ns=StepPlanner.chunk_cpu_ns(latency, model, len(batch),
                                                chunk)
                if host is not None else 0.0)
        for request in batch:
            start_sequence(request, admitted_ns, len(batch))

    def run_chunk(chunk: PromptChunk) -> None:
        """Execute one planned prompt chunk (BS=1 marginal-prefill cost)."""
        nonlocal clock
        chunk_ns = StepPlanner.chunk_cost_ns(latency, model, 1, chunk)
        clock += session.execute(
            chunk.kind, clock, chunk_ns, 1,
            queue_depth=queue.depth(clock) if recorder is not None else 0,
            shape=None, schedule_label=chunk.schedule_label,
            cpu_ns=StepPlanner.chunk_cpu_ns(latency, model, 1, chunk)
            if host is not None else 0.0)
        if chunk.is_last:
            request, admitted_ns = admitted.pop(chunk.request_id)
            start_sequence(request, admitted_ns, 1)

    while True:
        clock = yield ("at", clock)
        if not active and not planner.has_pending:
            nxt = queue.next_unclaimed_arrival()
            if nxt is None:
                break
            if nxt > clock:
                # Idle engine: sleep until the next arrival (another replica
                # may claim it first; re-check on wake).
                clock = nxt
                continue
            admit()
            continue
        # Compose the step up front: decode tokens first (decode priority),
        # then whatever budget remains as prompt chunks.
        plan = planner.plan_step(len(active))
        if active:
            # A decode window for the whole active set. Prompt chunks
            # after the first step, a newly joined sequence's labelled
            # first decode, or a due request with a free slot to claim it
            # make it a window of one.
            step_batch = len(active)

            def limit() -> int:
                if plan.chunks or newly_joined:
                    return 1
                if step_batch + planner.pending_count < policy.max_active:
                    due = queue.next_unclaimed_arrival()
                    if due is not None and due <= clock:
                        return 1
                return min(seq.remaining for seq in active)

            horizon = runtime.core.next_event_ns()
            steps = planner.decode_window(
                latency, model, step_batch,
                max(seq.context for seq in active), policy.context_bucket,
                clock, horizon, limit, priced_cpu=host is not None,
                shaped=recorder is not None)
            clocks = session.execute_steps(
                StepKind.DECODE, clock, steps, step_batch,
                queue_depth=queue.depth(clock) if recorder is not None else 0,
                horizon_ns=horizon,
                schedule_label=decode_schedule_label(newly_joined))
            newly_joined.clear()
            count = len(clocks) - 1
            clock = clocks[-1]
            if recorder is not None:
                recorder.on_token_steps(
                    [seq.request.request_id for seq in active], clocks[1:])
            finished: list[ChunkedSequenceState] = []
            for seq in active:
                seq.context += count
                seq.remaining -= count
                seq.last_token_ns = clock - seq.request.arrival_ns
                if seq.remaining <= 0:
                    finished.append(seq)
            for seq in finished:
                active.remove(seq)
                if recorder is not None:
                    recorder.on_completed(seq.request.request_id, clock)
                runtime.complete(seq.request,
                                 ttft_ns=seq.first_token_ns,
                                 completion_ns=seq.last_token_ns,
                                 batch_size=step_batch,
                                 service_start_ns=seq.admitted_ns,
                                 session=session)
        for chunk in plan.chunks:
            run_chunk(chunk)
        # Admit newly arrived requests at the step boundary.
        admit()


def simulate_continuous_batching(
    requests: Sequence[Request],
    model: ModelConfig,
    latency: LatencyModel,
    policy: ContinuousBatchPolicy = ContinuousBatchPolicy(),
    recorder: RunRecorder | None = None,
) -> ServingReport:
    """Run an iteration-level serving loop over an arrival stream.

    This is a thin wrapper over :func:`repro.serving.runtime.simulate_serving`
    with one replica; use ``simulate_serving`` directly for multi-replica
    runs or per-replica statistics.
    """
    from repro.serving.runtime import simulate_serving

    return simulate_serving(requests, model, latency, policy=policy,
                            recorder=recorder).report
