"""Structured events recorded by the observability layer.

Two event families cover everything the serving and engine layers do:

* :class:`RequestSpan` — one request's lifecycle: arrival, admission into a
  batch, first token, completion (all absolute nanoseconds on the serving
  clock).
* :class:`StepEvent` — one engine invocation (prefill batch, decode step,
  speculative draft/verify round, static-batch generation tail). Steps that
  were priced through the engine carry an :class:`EngineShape`, which lets
  the trace exporter replay the exact engine run that produced the step's
  latency — the substrate of self-hosted SKIP analysis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.errors import AnalysisError


class StepKind(enum.Enum):
    """What one recorded engine invocation did."""

    PREFILL = "prefill"
    PREFILL_CHUNK = "prefill_chunk"  # token-budget slice of a larger prefill
    DECODE = "decode"
    GENERATION = "generation"   # static batching's closed-form decode tail
    DRAFT = "draft"             # speculative: draft-model decode steps
    VERIFY = "verify"           # speculative: target-model verification pass
    RETRIEVAL = "retrieval"     # RAG: vector-index lookup before generation
    ENGINE = "engine"           # one raw engine iteration (executor hook)
    SWAP_OUT = "swap_out"       # kv offload: blocks to host over the link
    SWAP_IN = "swap_in"         # kv offload: blocks back to the device


@dataclass(frozen=True)
class EngineShape:
    """The (model, shape) key of the memoized engine run behind a step.

    Mirrors the arguments of :func:`repro.engine.executor.run`; the exporter
    replays this shape through the same :class:`LatencyModel` to recover the
    step's full kernel-level trace.
    """

    model: str
    batch_size: int
    seq_len: int
    phase: str = "prefill"
    context_len: int | None = None

    def __post_init__(self) -> None:
        if self.batch_size <= 0 or self.seq_len <= 0:
            raise AnalysisError("engine shape dimensions must be positive")


class _StepEventFields(NamedTuple):
    index: int
    kind: StepKind
    ts_ns: float
    dur_ns: float
    batch_size: int
    queue_depth: int = 0
    shape: EngineShape | None = None
    replica: int = 0


class StepEvent(_StepEventFields):
    """One engine invocation on the serving timeline (immutable, validated).

    A named tuple rather than a frozen dataclass: the recorder builds one
    per engine step, and a validated tuple costs less than half of a
    frozen dataclass to build.

    Attributes:
        index: Monotonic step number within the run.
        kind: What the step did.
        ts_ns: Step begin on the serving clock.
        dur_ns: Step duration.
        batch_size: Sequences processed by the step.
        queue_depth: Requests arrived but not yet admitted at step begin.
        shape: Engine shape that priced the step (None for closed-form steps).
        replica: Engine replica that executed the step (multi-replica runs).
    """

    __slots__ = ()

    def __new__(cls, index: int, kind: StepKind, ts_ns: float, dur_ns: float,
                batch_size: int, queue_depth: int = 0,
                shape: EngineShape | None = None,
                replica: int = 0) -> StepEvent:
        if dur_ns < 0:
            raise AnalysisError(f"step {index} has negative duration")
        if batch_size <= 0:
            raise AnalysisError(f"step {index} has no sequences")
        if queue_depth < 0:
            raise AnalysisError(f"step {index} has negative queue depth")
        if replica < 0:
            raise AnalysisError(f"step {index} has negative replica")
        return tuple.__new__(cls, (index, kind, ts_ns, dur_ns, batch_size,
                                   queue_depth, shape, replica))

    @classmethod
    def series(cls, index: int, kind: StepKind, starts: Sequence[float],
               durations: Sequence[float], batch_size: int,
               queue_depth: int,
               shapes: Sequence[EngineShape | None] | None,
               replica: int) -> list[StepEvent]:
        """Steps ``index``, ``index + 1``, ... of one kind and batch.

        Step ``j`` began at ``starts[j]``, lasted ``durations[j]`` and ran
        shape ``shapes[j]`` (None when ``shapes`` is None). The steps are
        checked by :meth:`check_series`.
        """
        cls.check_series(index, starts, durations, batch_size, queue_depth,
                         replica)
        new = tuple.__new__
        return [new(cls, (index + j, kind, ts_ns, dur_ns, batch_size,
                          queue_depth, None if shapes is None else shapes[j],
                          replica))
                for j, (ts_ns, dur_ns) in enumerate(zip(starts, durations))]

    @staticmethod
    def check_series(index: int, starts: Sequence[float],
                     durations: Sequence[float], batch_size: int,
                     queue_depth: int, replica: int) -> None:
        """Raise the constructor's :class:`AnalysisError` for the first bad
        step of a :meth:`series`, without building the steps.

        The fields the steps share are checked once, then each duration.
        """
        if starts and batch_size <= 0:
            raise AnalysisError(f"step {index} has no sequences")
        if starts and queue_depth < 0:
            raise AnalysisError(f"step {index} has negative queue depth")
        if starts and replica < 0:
            raise AnalysisError(f"step {index} has negative replica")
        for j, (_, dur_ns) in enumerate(zip(starts, durations)):
            if dur_ns < 0:
                raise AnalysisError(f"step {index + j} has negative duration")

    @property
    def ts_end_ns(self) -> float:
        return self.ts_ns + self.dur_ns


@dataclass
class RequestSpan:
    """One request's recorded lifecycle (absolute serving-clock times)."""

    request_id: int
    arrival_ns: float
    admitted_ns: float | None = None
    first_token_ns: float | None = None
    completed_ns: float | None = None

    @property
    def queue_ns(self) -> float:
        """Time spent waiting before admission."""
        if self.admitted_ns is None:
            raise AnalysisError(f"request {self.request_id} was never admitted")
        return self.admitted_ns - self.arrival_ns

    @property
    def complete(self) -> bool:
        return self.completed_ns is not None
