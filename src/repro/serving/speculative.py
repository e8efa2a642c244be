"""Speculative decoding: a draft model proposes, the target model verifies.

A latency-optimization technique squarely in the paper's problem space —
with a regime dependence the simulator makes explicit. Speculation replaces
K sequential target-model steps with K draft steps plus one verification
pass. That trade only pays when a decode step's cost scales with model
*size* (memory-bound weight streaming, e.g. under CUDA-graph execution).
In the eager dispatch-bound regime the paper characterizes, every forward
pass costs roughly the same CPU time regardless of model width, so a
"small" draft model is no cheaper per step and speculation loses — fuse or
capture graphs first, then speculate.

Latency model per round (draft length K, acceptance rate a):

* K draft-model decode steps;
* one target-model forward over the K proposed tokens (a small prefill);
* expected accepted tokens per round: classic geometric acceptance,
  ``E = (1 - a^(K+1)) / (1 - a)`` (includes the bonus token).

:func:`speculative_steps` prices one batch's timeline.
:class:`SpeculativeServingPolicy` serves it through the batched loop
(:func:`repro.serving.batched.batched_serving_process`), and
:func:`speculative_generation_ns` prices and records one batch from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.obs.events import EngineShape, StepKind
from repro.obs.recorder import RunRecorder
from repro.serving.batched import (BatchPlan, Booked, Prefill, Step,
                                   record_plan)
from repro.serving.latency import LatencyModel
from repro.serving.planner import BatchDecision, StepPlanner
from repro.serving.requests import Request
from repro.workloads.config import ModelConfig

if TYPE_CHECKING:
    from repro.serving.runtime import AdmissionQueue, ServingRuntime


@dataclass(frozen=True)
class SpeculativeConfig:
    """Draft/verify configuration.

    Attributes:
        draft_tokens: Tokens proposed per round (K).
        acceptance_rate: Probability each proposed token matches the target
            model's choice (a).
    """

    draft_tokens: int = 4
    acceptance_rate: float = 0.7

    def __post_init__(self) -> None:
        if self.draft_tokens <= 0:
            raise ConfigurationError("draft_tokens must be positive")
        if not (0.0 < self.acceptance_rate < 1.0):
            raise ConfigurationError("acceptance_rate must be in (0, 1)")

    @property
    def expected_tokens_per_round(self) -> float:
        """Expected accepted tokens per round, including the bonus token."""
        a = self.acceptance_rate
        k = self.draft_tokens
        return (1 - a ** (k + 1)) / (1 - a)


@dataclass(frozen=True)
class SpeculativeLatency:
    """Latency comparison for one generation request."""

    baseline_ns: float          # target model decoding alone
    speculative_ns: float       # draft + verify rounds
    rounds: float
    tokens: int

    @property
    def speedup(self) -> float:
        return self.baseline_ns / self.speculative_ns


def speculative_steps(
    target: ModelConfig,
    draft: ModelConfig,
    latency: LatencyModel,
    config: SpeculativeConfig,
    batch_size: int,
    prompt_len: int,
    output_tokens: int,
    shaped: bool,
) -> tuple[tuple[Prefill | Step, ...], float, float]:
    """One batch's draft-and-verify timeline, priced.

    Returns the steps (the target prefill, then per round ``draft_tokens``
    draft decode steps and one verification pass, the fractional last
    round as one closed-form step of each kind), the prefill's cost and
    the cost of one round. Context growth is approximated at the
    mid-generation point (decode latency is near-affine in context). Draft
    and verify steps carry their engine shapes when ``shaped``.
    """
    mid_context = prompt_len + output_tokens // 2
    prefill = latency.ttft_ns(target, batch_size, prompt_len)
    draft_step = latency.decode_step_ns(draft, batch_size, mid_context)
    # Verification: one target forward over K proposed tokens. Modeled as a
    # K-token prefill continuation (the KV cache covers the context).
    verify = latency.ttft_ns(target, batch_size, config.draft_tokens)
    per_round = config.draft_tokens * draft_step + verify
    rounds = output_tokens / config.expected_tokens_per_round
    draft_shape = verify_shape = None
    if shaped:
        draft_shape = EngineShape(draft.name, batch_size, 1, phase="decode",
                                  context_len=mid_context)
        verify_shape = EngineShape(target.name, batch_size,
                                   config.draft_tokens)
    one_round = ((Step(StepKind.DRAFT, draft_step, draft_shape),)
                 * config.draft_tokens
                 + (Step(StepKind.VERIFY, verify, verify_shape),))
    steps: list[Prefill | Step] = [Prefill(target, prompt_len, prefill,
                                           prefill)]
    steps.extend(one_round * math.floor(rounds))
    remainder = rounds - math.floor(rounds)
    if remainder > 1e-9:
        steps.append(Step(StepKind.DRAFT,
                          remainder * config.draft_tokens * draft_step))
        steps.append(Step(StepKind.VERIFY, remainder * verify))
    return tuple(steps), prefill, per_round


def speculative_generation_ns(
    target: ModelConfig,
    draft: ModelConfig,
    latency: LatencyModel,
    config: SpeculativeConfig = SpeculativeConfig(),
    prompt_len: int = 256,
    output_tokens: int = 128,
    batch_size: int = 1,
    recorder: RunRecorder | None = None,
) -> SpeculativeLatency:
    """Compare plain decoding against draft-and-verify decoding.

    Both paths pay the target model's prefill; the decode phase differs.
    The speculative path is the serving policy's timeline
    (:func:`speculative_steps`); a recorder sees its steps: the target
    prefill, then per-round draft decode steps and verification passes
    (the fractional last round is recorded as a closed-form step so
    recorded time matches the returned latency exactly).
    """
    if output_tokens <= 0:
        raise ConfigurationError("output_tokens must be positive")
    steps, prefill, per_round = speculative_steps(
        target, draft, latency, config, batch_size, prompt_len,
        output_tokens, shaped=recorder is not None)
    mid_context = prompt_len + output_tokens // 2
    target_step = latency.decode_step_ns(target, batch_size, mid_context)
    baseline = prefill + output_tokens * target_step
    rounds = output_tokens / config.expected_tokens_per_round
    speculative = prefill + rounds * per_round
    if recorder is not None:
        record_plan(recorder, steps, latency, batch_size)
    return SpeculativeLatency(
        baseline_ns=baseline,
        speculative_ns=speculative,
        rounds=rounds,
        tokens=output_tokens,
    )


@dataclass(frozen=True)
class SpeculativeServingPolicy:
    """Serve an arrival stream with draft-and-verify decoding.

    Attributes:
        draft: The draft model proposing tokens (the runtime's model is the
            verifying target).
        config: Draft length / acceptance knobs.
        max_batch_size: Requests served together (padded to the batch
            maximum, like static batching).
        chunk_tokens: Per-step token budget for chunked target prefill;
            0 keeps whole-batch prefills (bit-identical legacy schedule).
    """

    draft: ModelConfig
    config: SpeculativeConfig = field(default_factory=SpeculativeConfig)
    max_batch_size: int = 8
    chunk_tokens: int = 0

    def __post_init__(self) -> None:
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
        """The target prefill and draft-and-verify rounds until the padded
        batch maximum output is generated (:func:`speculative_steps`).
        Each request finishes at its own expected round count after the
        first token, not the batch maximum's."""
        output_tokens = max(r.output_tokens for r in batch)
        steps, _, per_round = speculative_steps(
            runtime.model, self.draft, runtime.latency, self.config,
            len(batch), max(r.prompt_len for r in batch), output_tokens,
            shaped=runtime.recorder is not None)
        expected = self.config.expected_tokens_per_round
        rounds_ns = output_tokens / expected * per_round

        def charge(request: Request, booked: Booked) -> float:
            # A request needing fewer rounds than the batch's longest
            # finishes the missing rounds' cost before the last step ends.
            own = request.output_tokens / expected * per_round
            return booked.end_ns - (rounds_ns - own)

        return BatchPlan(steps, charge)
