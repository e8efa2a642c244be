"""The batched serving loop: one process for every batch-at-a-time policy.

Static batching, priority scheduling, speculative decoding, agentic
pipelines and RAG serve the same way: a replica sleeps until it is free,
claims a batch, admits it, runs the batch's priced steps back to back and
completes each request. :func:`batched_serving_process` owns that sequence;
a policy supplies two hooks, both methods on its policy object:

* ``claim(queue, now)`` returns a :class:`~repro.serving.planner.BatchDecision`:
  done, a wake-up time, or a claimed batch and its launch time;
* ``plan(runtime, batch)`` returns a :class:`BatchPlan`: :class:`Prefill`
  and :class:`Step` items in order, and the charge that turns where they
  landed (:class:`Booked`) into each request's completion time.

The loop splits each prefill into planner chunks and moves its clock by
exactly the steps it books, so a request's first token is the end of its
batch's first prefill and the next batch starts where the last step ended.
With ``chunk_tokens == 0`` a prefill is one whole step. The loop hands the
booked first-token and completion times to
:meth:`~repro.serving.runtime.ServingRuntime.complete`, which derives the
outcome's latencies from them as it does for continuous batching, so an
outcome is exactly its recorded span. :func:`record_plan`
records a plan off the sim, for the standalone
:class:`~repro.serving.pipeline.AgenticPipeline` and
:func:`~repro.serving.speculative.speculative_generation_ns`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Protocol, Sequence

from repro.obs.events import EngineShape, StepKind
from repro.serving.planner import BatchDecision, PlannerConfig, StepPlanner
from repro.serving.requests import Request
from repro.workloads.config import ModelConfig

if TYPE_CHECKING:
    from repro.obs.recorder import RunRecorder
    from repro.serving.latency import LatencyModel
    from repro.serving.runtime import (AdmissionQueue, EngineSession,
                                       ServingRuntime)
    from repro.sim.core import Process


class Prefill(NamedTuple):
    """A batch prefill of ``prompt_len`` tokens on ``model``.

    ``ttft_ns`` prices the whole prompt; ``total_ns`` prices the prefill
    plus its generation tail. A tail longer than nothing runs as one
    GENERATION step of ``total_ns - ttft_ns``.
    """

    model: ModelConfig
    prompt_len: int
    ttft_ns: float
    total_ns: float


class Step(NamedTuple):
    """One priced step that is not a prefill (retrieval, draft, verify)."""

    kind: StepKind
    dur_ns: float
    shape: EngineShape | None = None


class Booked(NamedTuple):
    """Where a batch's steps landed, as its charge reads them: its first
    prefill ended (the batch's first token) at ``first_token_ns`` and its
    last step at ``end_ns``."""

    first_token_ns: float
    end_ns: float


class BatchPlan(NamedTuple):
    """A priced batch: its steps in order, and ``charge(request, booked)``
    returning the booked time at which a request completes."""

    steps: tuple[Prefill | Step, ...]
    charge: Callable[[Request, Booked], float]


class BatchedPolicy(Protocol):
    """The two hooks a policy gives :func:`batched_serving_process`."""

    def claim(self, queue: AdmissionQueue, now: float) -> BatchDecision:
        ...

    def plan(self, runtime: ServingRuntime,
             batch: tuple[Request, ...]) -> BatchPlan:
        ...


def padded_plan(latency: LatencyModel, model: ModelConfig,
                batch: Sequence[Request], prompt_len: int,
                lead: tuple[Step, ...] = (),
                own_output: bool = False) -> BatchPlan:
    """The plan of a padded batch: ``lead`` steps, then a ``prompt_len``
    prefill on ``model`` with a closed-form generation to the batch's
    longest output. Every request is charged that padded generation, or
    with ``own_output`` the generation of its own output length."""
    batch_size = len(batch)
    output_tokens = max(r.output_tokens for r in batch)
    ttft = latency.ttft_ns(model, batch_size, prompt_len)
    total = latency.generation_ns(model, batch_size, prompt_len,
                                  output_tokens)

    def charge(request: Request, booked: Booked) -> float:
        # The generation tail past the whole-prompt price runs from the
        # first token, so a request charged the batch's whole generation
        # completes exactly where its GENERATION step ends.
        own = (latency.generation_ns(model, batch_size, prompt_len,
                                     request.output_tokens)
               if own_output else total)
        return booked.first_token_ns + (own - ttft)

    return BatchPlan((*lead, Prefill(model, prompt_len, ttft, total)),
                     charge)


def book_steps(steps: Sequence[Prefill | Step], clock: float,
               sink: Callable[..., object], latency: LatencyModel,
               batch_size: int, planner: StepPlanner, seed_id: int,
               shaped: bool) -> Booked:
    """Book ``steps`` back to back from ``clock`` through
    ``sink(kind, ts_ns, dur_ns, shape, schedule_label)``.

    Each prefill runs as its planner chunks (a whole-prompt chunk at
    ``ttft_ns``, partial ones at their marginal cost), then its tail as
    one GENERATION step; the clock moves by exactly the steps booked.
    Whole prefills carry their engine shape when ``shaped``.
    """
    first_token: float | None = None
    for item in steps:
        if isinstance(item, Step):
            sink(item.kind, clock, item.dur_ns, item.shape, None)
            clock += item.dur_ns
            continue
        chunks = planner.prefill_plan(seed_id, item.prompt_len)
        for chunk in chunks:
            chunk_ns = (item.ttft_ns if chunk.is_whole
                        else StepPlanner.chunk_cost_ns(latency, item.model,
                                                       batch_size, chunk))
            sink(chunk.kind, clock, chunk_ns,
                 EngineShape(item.model.name, batch_size, item.prompt_len)
                 if shaped and chunk.is_whole else None,
                 chunk.schedule_label)
            clock += chunk_ns
        if first_token is None:
            first_token = clock
        tail_ns = item.total_ns - item.ttft_ns
        if item.total_ns > item.ttft_ns:
            sink(StepKind.GENERATION, clock, tail_ns, None, None)
        clock += tail_ns
    assert first_token is not None, "a batch plan needs a prefill"
    return Booked(first_token, clock)


def record_plan(recorder: RunRecorder, steps: Sequence[Prefill | Step],
                latency: LatencyModel, batch_size: int) -> None:
    """Record one batch's ``steps`` from time 0, whole and shaped."""
    book_steps(steps, 0.0,
               lambda kind, ts_ns, dur_ns, shape, _: recorder.record_step(
                   kind, ts_ns, dur_ns, batch_size, shape=shape),
               latency, batch_size, StepPlanner(PlannerConfig()), 0, True)


def batched_serving_process(runtime: ServingRuntime, session: EngineSession,
                            policy: BatchedPolicy) -> Process:
    """One replica serving a batch-at-a-time policy, as a sim process;
    ``policy.chunk_tokens`` (0 when absent) sets the prefill chunks."""
    queue = session.queue
    recorder = runtime.recorder
    planner = StepPlanner(PlannerConfig(
        chunk_tokens=getattr(policy, "chunk_tokens", 0)))
    wake = 0.0
    while True:
        now = yield ("at", wake)
        decision = policy.claim(queue, now)
        if decision.done:
            break
        if decision.wake_at is not None:
            wake = decision.wake_at
            continue
        launch = decision.launch_ns
        batch = decision.batch
        batch_size = len(batch)
        plan = policy.plan(runtime, batch)
        waiting = queue.depth(launch) if recorder is not None else 0
        if recorder is not None:
            for request in batch:
                recorder.on_admitted(request.request_id, request.arrival_ns,
                                     launch)
        booked = book_steps(
            plan.steps, launch,
            lambda kind, ts_ns, dur_ns, shape, label: session.execute(
                kind, ts_ns, dur_ns, batch_size, queue_depth=waiting,
                shape=shape, schedule_label=label),
            runtime.latency, batch_size, planner, batch[0].request_id,
            recorder is not None)
        for request in batch:
            if recorder is not None:
                recorder.on_first_token(request.request_id,
                                        booked.first_token_ns)
            runtime.complete(request, booked.first_token_ns,
                             plan.charge(request, booked), batch_size,
                             launch, session)
        wake = booked.end_ns
