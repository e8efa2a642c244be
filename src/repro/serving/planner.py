"""Token-budget step planner: chunked prefill and hybrid batch composition.

Sarathi-serve's observation (ROADMAP open item 1): a serving loop that runs
*whole* prefills stalls every in-flight decode whenever a long prompt
arrives — the scheduling tax that dominates tail time-between-tokens under
mixed long-prompt traffic. The fix is a token budget: each engine step may
process at most ``max_num_batched_tokens`` tokens, decodes take priority
(one token per running sequence), and the remaining budget is filled with
prompt *chunks*; a prompt larger than the leftover budget carries its
remainder as sequence state into the next step.

This module is the planning layer every serving policy consumes:

* :class:`PlannerConfig` — the budget knob. ``chunk_tokens == 0`` disables
  chunking entirely: plans degenerate to one whole-prompt chunk, policies
  perform exactly the float operations they performed before the planner
  existed, and the parity suites hold them to bit-identical outcomes.
* :class:`PromptChunk` / :class:`StepPlan` — what the planner emits. Chunks
  carry their ``(start, length, total)`` coordinates so the schedule
  checker (rule S007, :mod:`repro.check.schedule`) can statically verify
  that a chunked prefill never interleaves out of order with its own
  decodes.
* :class:`StepPlanner` — the planner itself: prompt-progress state for
  chunked admissions, decode-priority hybrid step composition, the FIFO
  batch-claim decision of the batched policies, the marginal-prefill chunk
  cost model, and the decode window the continuous loop runs between
  boundaries (:meth:`StepPlanner.decode_window`).

Chunk cost model: chunk ``i`` covering ``[start, start+length)`` costs
``ttft_ns(bs, start+length) - ttft_ns(bs, start)`` — the *marginal* prefill
cost of extending the processed prefix. The chunk costs of one prompt
telescope to (within float rounding) the unchunked ``ttft_ns(bs, total)``,
and a single whole-prompt chunk is the *identical* ``ttft_ns`` call the
unplanned policies made, which is what makes the ``chunk_tokens=0`` parity
lock possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Hashable, Iterator, NamedTuple,
                    Sequence)

from repro.errors import ConfigurationError, SimulationError
from repro.obs.events import EngineShape, StepKind
from repro.serving.requests import Request

if TYPE_CHECKING:
    from repro.serving.latency import LatencyModel
    from repro.serving.runtime import AdmissionQueue
    from repro.workloads.config import ModelConfig


@dataclass(frozen=True)
class PlannerConfig:
    """Step-planner knobs.

    Attributes:
        chunk_tokens: The per-step token budget (sarathi-serve's
            ``max_num_batched_tokens``). ``0`` disables chunking: prompts
            prefill whole, reproducing the pre-planner serving traces
            bit-identically.
    """

    chunk_tokens: int = 0

    def __post_init__(self) -> None:
        if self.chunk_tokens < 0:
            raise ConfigurationError(
                "chunk_tokens must be non-negative (0 disables chunking)")

    @property
    def enabled(self) -> bool:
        return self.chunk_tokens > 0

    @property
    def max_num_batched_tokens(self) -> int:
        """Alias for the budget under its sarathi-serve name."""
        return self.chunk_tokens


@dataclass(frozen=True)
class PromptChunk:
    """One planned slice of a prompt's prefill.

    ``request_id`` identifies the owning request (for batched prefills, the
    batch's seed request); ``start``/``length``/``total`` locate the slice
    in the prompt. A whole-prompt chunk (``start == 0 and length == total``)
    is indistinguishable from an unchunked prefill.
    """

    request_id: int
    start: int
    length: int
    total: int

    def __post_init__(self) -> None:
        if self.length <= 0 or self.total <= 0:
            raise ConfigurationError("chunk lengths must be positive")
        if self.start < 0 or self.start + self.length > self.total:
            raise ConfigurationError(
                f"chunk [{self.start}, {self.start + self.length}) falls "
                f"outside a {self.total}-token prompt")

    @property
    def is_first(self) -> bool:
        return self.start == 0

    @property
    def is_last(self) -> bool:
        return self.start + self.length == self.total

    @property
    def is_whole(self) -> bool:
        return self.is_first and self.is_last

    @property
    def kind(self) -> StepKind:
        """Whole chunks record as plain prefills (the legacy step kind)."""
        return (StepKind.PREFILL if self.is_whole
                else StepKind.PREFILL_CHUNK)

    @property
    def schedule_label(self) -> str | None:
        """Checkable kernel name for partial chunks (None = default name).

        The coordinates ride the per-device schedule so rule S007 can
        verify chunk contiguity and chunk/decode ordering statically.
        """
        if self.is_whole:
            return None
        return (f"serving::prefill_chunk[r{self.request_id}:"
                f"{self.start}+{self.length}/{self.total}]")


@dataclass
class PromptProgress:
    """A claimed request whose prompt is still being prefilled in chunks."""

    request: Request
    done: int = 0

    @property
    def remaining(self) -> int:
        return self.request.prompt_len - self.done


@dataclass(frozen=True)
class StepPlan:
    """One hybrid engine step: decode tokens plus prompt chunks."""

    decode_tokens: int
    chunks: tuple[PromptChunk, ...]

    @property
    def total_tokens(self) -> int:
        return self.decode_tokens + sum(c.length for c in self.chunks)


@dataclass(frozen=True)
class BatchDecision:
    """A batched policy's claim decision (its ``claim`` hook's answer).

    Exactly one of three shapes: ``done`` (no unclaimed work remains),
    an empty ``batch`` with ``wake_at`` set (nothing to serve yet — sleep
    until then and ask again), or a non-empty ``batch`` with ``launch_ns``
    set (the claimed batch starts service then).
    """

    batch: tuple[Request, ...] = ()
    launch_ns: float = 0.0
    wake_at: float | None = None
    done: bool = False


class DecodeStep(NamedTuple):
    """One priced decode step of a window (see
    :meth:`StepPlanner.decode_window`)."""

    step_ns: float
    cpu_ns: float
    shape: EngineShape | None


def _price_decode(latency: LatencyModel, model: ModelConfig,
                  batch_size: int, bucketed: int, priced_cpu: bool,
                  shaped: bool) -> DecodeStep:
    """One decode step at bucketed context ``bucketed``, priced."""
    return tuple.__new__(DecodeStep, (
        latency.decode_step_ns(model, batch_size, bucketed),
        latency.decode_step_cpu_ns(model, batch_size, bucketed)
        if priced_cpu else 0.0,
        EngineShape(model.name, batch_size, 1, phase="decode",
                    context_len=bucketed) if shaped else None))


def chunk_plan(request_id: int, prompt_len: int,
               budget: int) -> tuple[PromptChunk, ...]:
    """Split one prompt into budget-sized chunks (pure).

    ``budget <= 0`` means unbounded: one whole-prompt chunk. Chunk lengths
    always sum to exactly ``prompt_len`` and no chunk exceeds the budget.
    """
    if prompt_len <= 0:
        raise ConfigurationError("prompt_len must be positive")
    if budget <= 0:
        return (PromptChunk(request_id, 0, prompt_len, prompt_len),)
    chunks = []
    start = 0
    while start < prompt_len:
        length = min(budget, prompt_len - start)
        chunks.append(PromptChunk(request_id, start, length, prompt_len))
        start += length
    return tuple(chunks)


def decode_schedule_label(joined_ids: Sequence[int]) -> str | None:
    """Checkable decode-kernel name marking newly joined sequences.

    A sequence's *first* decode step after its final prompt chunk carries a
    ``+r<id>`` marker, which is what lets rule S007 place each request's
    decode phase relative to its chunk stream without tagging every decode
    with the whole batch. ``None`` keeps the default ``serving::decode``.
    """
    if not joined_ids:
        return None
    inner = ",".join(f"+r{rid}" for rid in joined_ids)
    return f"serving::decode[{inner}]"


class StepPlanner:
    """Decode-priority hybrid step planning over a token budget.

    The planner owns the chunked-admission state (claimed requests whose
    prompts are mid-prefill) and composes each engine step: every running
    sequence gets its decode token first, then the leftover budget fills
    with prompt chunks in FIFO admission order. Policies execute the plans;
    the planner never touches the clock, the session, or the recorder.
    """

    def __init__(self, config: PlannerConfig) -> None:
        self.config = config
        self.pending: list[PromptProgress] = []

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    @property
    def pending_count(self) -> int:
        return len(self.pending)

    @property
    def has_pending(self) -> bool:
        return bool(self.pending)

    # -- chunked admission ---------------------------------------------
    def admit(self, batch: Sequence[Request]) -> None:
        """Queue claimed requests for chunked prefill (enabled mode only)."""
        if not self.enabled:
            raise SimulationError(
                "chunked admission requires chunk_tokens > 0; whole-prompt "
                "policies use prefill_plan instead")
        for request in batch:
            self.pending.append(PromptProgress(request=request))

    def plan_step(self, decode_count: int) -> StepPlan:
        """Compose the next hybrid step and commit its chunk progress.

        ``decode_count`` running sequences consume one budget token each;
        the remainder fills with prompt chunks FIFO. The emitted step never
        exceeds ``max_num_batched_tokens`` — the budget-conservation
        property the hypothesis suite locks.
        """
        if decode_count < 0:
            raise SimulationError("decode_count must be non-negative")
        if not self.enabled:
            return StepPlan(decode_tokens=decode_count, chunks=())
        budget = self.config.chunk_tokens - decode_count
        if budget < 0:
            raise SimulationError(
                f"{decode_count} decode tokens exceed the "
                f"{self.config.chunk_tokens}-token step budget")
        chunks: list[PromptChunk] = []
        while self.pending and budget > 0:
            prompt = self.pending[0]
            length = min(prompt.remaining, budget)
            chunks.append(PromptChunk(prompt.request.request_id,
                                      prompt.done, length,
                                      prompt.request.prompt_len))
            prompt.done += length
            budget -= length
            if prompt.remaining == 0:
                self.pending.pop(0)
        return StepPlan(decode_tokens=decode_count, chunks=tuple(chunks))

    # -- whole-batch prefill plans (batched policies) ------------------
    def prefill_plan(self, request_id: int,
                     prompt_len: int) -> tuple[PromptChunk, ...]:
        """The chunk sequence for one batch prefill of ``prompt_len``.

        Disabled mode returns a single whole-prompt chunk, so consuming
        policies execute exactly one step with exactly the legacy cost.
        """
        return chunk_plan(request_id, prompt_len, self.config.chunk_tokens)

    # -- costs ---------------------------------------------------------
    @staticmethod
    def chunk_cost_ns(latency: LatencyModel, model: ModelConfig,
                      batch_size: int, chunk: PromptChunk) -> float:
        """Marginal prefill cost of one chunk (see module docstring).

        A whole-prompt chunk is priced by the identical single
        ``ttft_ns`` call the pre-planner policies made — the bit-parity
        anchor for ``chunk_tokens=0``. Partial-chunk marginals floor at
        the platform's kernel-launch path cost: launch-bound
        configurations (notably pipeline-parallel engines, whose stage
        split re-balances per shape) can price a longer prefix *cheaper*
        than a shorter one, and a chunk step at minimum still dispatches
        one kernel.
        """
        end = latency.ttft_ns(model, batch_size, chunk.start + chunk.length)
        if chunk.is_first:
            return end
        floor = (latency.platform.launch_call_cpu_ns
                 + latency.platform.launch_latency_ns)
        return max(floor,
                   end - latency.ttft_ns(model, batch_size, chunk.start))

    @staticmethod
    def chunk_cpu_ns(latency: LatencyModel, model: ModelConfig,
                     batch_size: int, chunk: PromptChunk) -> float:
        """Marginal dispatch-CPU share of one chunk (host-contention runs).

        The CPU analog of :meth:`chunk_cost_ns`: a whole-prompt chunk
        books the prefill's full CPU busy time, a partial chunk the
        difference of the two prefix CPU times, floored at one launch
        call — a chunk step at minimum still dispatches one kernel.
        """
        end = latency.ttft_cpu_ns(model, batch_size,
                                  chunk.start + chunk.length)
        if chunk.is_first:
            return end
        return max(latency.platform.launch_call_cpu_ns,
                   end - latency.ttft_cpu_ns(model, batch_size, chunk.start))

    # -- decode windows -------------------------------------------------
    @staticmethod
    def decode_window(latency: LatencyModel, model: ModelConfig,
                      batch_size: int, context: int, context_bucket: int,
                      clock: float, horizon_ns: float,
                      limit: Callable[[], int], priced_cpu: bool,
                      shaped: bool) -> Iterator[DecodeStep]:
        """The decode steps a fixed batch runs before its next boundary.

        Step ``j`` decodes at the batch's longest context ``context + j``,
        rounded up to ``context_bucket`` and priced by one
        ``decode_step_ns`` lookup per bucket (plus ``decode_step_cpu_ns``
        when ``priced_cpu``; 0.0 otherwise), and carries its recorded
        shape when ``shaped`` (None otherwise). The window always yields one
        step. It goes on while the clock, advanced by repeated addition of
        the step durations, stays strictly below ``horizon_ns`` and the
        step count stays below ``limit()``: the caller's bound from
        finishing sequences, pool growth, pending prompt chunks and
        admissions that could act.

        ``horizon_ns`` is :meth:`SimCore.next_event_ns`: another replica,
        the router or a wake-up acts there, and a step ending exactly on it
        must yield so the tie goes through the queue's own order. It bounds
        arrivals too, because every arrival is a core event (the
        runtime's arrival process, or the cluster router): a new arrival
        could be claimed or would change the queue depth the steps
        record. ``limit`` is called only once
        the first step ends before the horizon, so a one-step window
        costs one lookup.

        Steps are priced as they are drawn, so a consumer that stops
        early (:meth:`EngineSession.execute_steps` under host stalls)
        looks up no bucket it does not run. Nothing yields, admits or
        rescans the queue between the steps: the boundaries guarantee
        none of that could change the outcome.
        """
        bucketed = -(-context // context_bucket) * context_bucket
        step = _price_decode(latency, model, batch_size, bucketed,
                             priced_cpu, shaped)
        yield step
        clock += step.step_ns
        if clock >= horizon_ns:
            return
        for _ in range(1, limit()):
            context += 1
            nxt = -(-context // context_bucket) * context_bucket
            if nxt != bucketed:
                bucketed = nxt
                step = _price_decode(latency, model, batch_size, bucketed,
                                     priced_cpu, shaped)
            yield step
            clock += step.step_ns
            if clock >= horizon_ns:
                return

    # -- shared FIFO claim decision ------------------------------------
    @staticmethod
    def next_fifo_batch(queue: AdmissionQueue, now: float, limit: int,
                        tag: Hashable = None) -> BatchDecision:
        """The oldest-first batch claim of the FIFO batched policies
        (speculative, pipeline, RAG).

        Peeks the oldest unclaimed entry, sleeps until it arrives if it is
        in the future, otherwise claims it plus everything else waiting (up
        to ``limit``) and launches the batch at ``now``.
        """
        seed = queue.first_unclaimed(tag)
        if seed is None:
            return BatchDecision(done=True)
        if seed.arrival_ns > now:
            return BatchDecision(wake_at=seed.arrival_ns)
        batch = queue.claim(now, limit, tag)
        return BatchDecision(batch=tuple(batch),
                             launch_ns=max(seed.arrival_ns, now))


@dataclass
class ChunkedSequenceState:
    """Bookkeeping the continuous loop keeps per sequence it is decoding
    (or holds parked: swapped out, or preempted for recompute).

    ``first_token_ns`` and ``admitted_ns`` are serving-clock times; the
    sequence's latencies are derived from them only when it completes
    (:meth:`~repro.serving.runtime.ServingRuntime.complete`)."""

    request: Request
    first_token_ns: float
    remaining: int
    context: int
    admitted_ns: float


__all__ = [
    "BatchDecision",
    "ChunkedSequenceState",
    "DecodeStep",
    "PlannerConfig",
    "PromptChunk",
    "PromptProgress",
    "StepPlan",
    "StepPlanner",
    "chunk_plan",
    "decode_schedule_label",
]
