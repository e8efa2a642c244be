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

A replica with a finite KV pool (its session's
:class:`~repro.kvcache.manager.KvManager`) runs the same loop, gated where
a real engine touches KV memory: a request is claimed only once its
prompt's blocks are allocated (FIFO, so a head-of-line request that does
not fit blocks later ones), each decode step first grows every active
sequence by one token, and when the pool cannot cover that growth the
newest sequences are evicted, to be recomputed later or swapped over the
CPU-GPU link as ``SWAP_OUT``/``SWAP_IN`` steps on the engine's critical
path (see ``docs/kvcache.md``). A gated replica runs a prompt's chunks
back to back at admission instead of interleaving them.

The serving loop is :func:`continuous_batching_process`, a process on
:class:`repro.serving.runtime.ServingRuntime`. Passing a
:class:`repro.obs.RunRecorder` records every admission, prefill batch or
chunk, decode step, token, and completion; the recorded run exports as a
SKIP-analyzable Chrome trace (see ``docs/observability.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    ConfigurationError, SimulationError, require_non_negative, require_positive,
)
from repro.kvcache.manager import KvManager, KvPolicy
from repro.obs.events import EngineShape, StepKind
from repro.serving.planner import (ChunkedSequenceState, PlannerConfig,
                                   PromptChunk, StepPlanner,
                                   decode_schedule_label)
from repro.serving.requests import Request

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
        require_positive(self, "max_active", "context_bucket")
        # 0 disables chunking.
        require_non_negative(self, "chunk_tokens")
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
    between. On an ungated replica, a window's first step is
    planner-composed: the leftover token budget (if chunking is on) runs
    prompt chunks for claimed-but-unprefilled requests, and such a step is
    a window of one. Finished sequences retire and new arrivals are
    admitted at the window boundary. With chunking off, admission prefills
    the whole batch immediately and steps are pure decodes — the legacy
    schedule, bit for bit. A session with a KV pool (``session.kv``) gates
    admission, decode growth and eviction on it (see the module docstring).
    """
    core = runtime.core
    queue = session.queue
    latency = runtime.latency
    model = runtime.model
    recorder = runtime.recorder
    # Finite-host runs price each step's dispatch-CPU share so the
    # session can book it on the contended core pool (a swap pays one
    # launch call, so KV pressure itself contends for host cores); the
    # infinite-CPU path passes 0.0 and performs no extra lookups.
    host = session.host
    kv = session.kv
    planner = StepPlanner(PlannerConfig(chunk_tokens=policy.chunk_tokens))
    # The one schedule difference a KV pool makes (an open question, see
    # ROADMAP.md item 3): only an ungated replica interleaves prompt chunks
    # with decodes. A gated one allocates a prompt's blocks at admission
    # and runs its chunks back to back there, so chunking bounds its step
    # granularity (observability, S007 checkability), not decode stalls.
    interleave = planner.enabled and kv is None
    active: list[ChunkedSequenceState] = []
    swapped: list[ChunkedSequenceState] = []   # offloaded, FIFO readmission order
    preempted: list[ChunkedSequenceState] = []  # recompute victims
    # Interleaved chunking: requests claimed but still prefilling, by id,
    # with the claim time (queue-delay accounting needs it once the last
    # chunk lands).
    admitted: dict[int, tuple[Request, float]] = {}
    newly_joined: list[int] = []        # rids whose first decode is next step
    clock = 0.0

    def depth() -> int:
        return queue.depth(clock) if recorder is not None else 0

    def occupied() -> int:
        """Sequences holding a slot: decoding, mid-prefill or parked."""
        return (len(active) + planner.pending_count + len(swapped)
                + len(preempted))

    def retire(seq: ChunkedSequenceState, batch_size: int) -> None:
        """A finished sequence returns its blocks and completes; ``clock``
        is its last token's time."""
        if kv is not None:
            kv.free(seq.request.request_id, clock)
        runtime.complete(seq.request, seq.first_token_ns, clock, batch_size,
                         seq.admitted_ns, session)

    def start_sequence(request: Request, admitted_ns: float,
                       batch_size: int) -> None:
        """Shared post-prefill bookkeeping: first token, retire or join."""
        seq = ChunkedSequenceState(
            request=request,
            first_token_ns=clock,
            remaining=request.output_tokens - 1,
            context=request.prompt_len + 1,
            admitted_ns=admitted_ns,
        )
        if recorder is not None:
            recorder.on_first_token(request.request_id, clock)
        if seq.remaining <= 0:
            # Single-token request: its first (prefill) token is its
            # last; it completes here and never joins the decode batch.
            retire(seq, batch_size)
        else:
            active.append(seq)
            if interleave:
                newly_joined.append(request.request_id)

    def run_chunk(chunk: PromptChunk, batch_size: int, shaped: bool) -> None:
        """Execute one prompt chunk for ``batch_size`` sequences.

        Priced at its marginal prefill cost, so a whole-prompt chunk makes
        the single ``ttft_ns`` lookup of an unchunked prefill (the parity
        anchor). ``shaped`` records a whole chunk's engine shape.
        """
        nonlocal clock
        clock += session.execute(
            chunk.kind, clock,
            StepPlanner.chunk_cost_ns(latency, model, batch_size, chunk),
            batch_size, queue_depth=depth(),
            shape=EngineShape(model.name, batch_size, chunk.total)
            if recorder is not None and shaped and chunk.is_whole else None,
            schedule_label=chunk.schedule_label,
            cpu_ns=StepPlanner.chunk_cpu_ns(latency, model, batch_size,
                                            chunk)
            if host is not None else 0.0)

    def run_prefill(seed: int, tokens: int, cached_tokens: int,
                    batch_size: int) -> None:
        """Run one prefill of ``tokens`` tokens back to back.

        The prompt runs in the planner's chunks (one whole chunk with
        chunking off). A prefix-cache hit (``cached_tokens > 0``, a batch
        of one) computes only its divergent suffix, as one step: the
        cached prefix deletes prefill *compute* but not the launch tax —
        the suffix still runs a full forward pass (every layer's kernels
        dispatch, over fewer tokens), which is exactly the mechanism that
        shifts the CPU-bound→GPU-bound crossover per platform.
        """
        if cached_tokens:
            suffix = tokens - cached_tokens
            chunks: tuple[PromptChunk, ...] = (
                PromptChunk(seed, 0, suffix, suffix),)
        else:
            chunks = planner.prefill_plan(seed, tokens)
        for chunk in chunks:
            run_chunk(chunk, batch_size, shaped=True)

    def prefill(batch: list[Request], cached_tokens: int = 0) -> None:
        """Admit ``batch``, prefill it and start its sequences."""
        admitted_ns = clock
        if recorder is not None:
            for request in batch:
                recorder.on_admitted(request.request_id, request.arrival_ns,
                                     clock)
        run_prefill(batch[0].request_id, max(r.prompt_len for r in batch),
                    cached_tokens, len(batch))
        for request in batch:
            start_sequence(request, admitted_ns, len(batch))

    def prefill_claimed(claimed: list[tuple[Request, int]]) -> None:
        """Prefill claimed ``(request, cached_tokens)`` pairs in FIFO order.

        Consecutive uncached requests prefill as one batch; cache hits run
        as suffix-only singletons. An ungated replica claims no hits, so
        its claim is one batch.
        """
        plain: list[Request] = []
        for request, cached_tokens in claimed:
            if cached_tokens:
                if plain:
                    prefill(plain)
                    plain = []
                prefill([request], cached_tokens)
            else:
                plain.append(request)
        if plain:
            prefill(plain)

    def claim_new() -> bool:
        """Claim due arrivals, FIFO, while slots (and on a gated replica,
        pool blocks) last; returns whether any was claimed."""
        claimed: list[tuple[Request, int]] = []
        if kv is None:
            claimed = [(request, 0) for request in
                       queue.claim(clock, policy.max_active - occupied())]
        else:
            while occupied() + len(claimed) < policy.max_active:
                entry = queue.first_unclaimed()
                if entry is None or entry.arrival_ns > clock:
                    break
                cached_tokens = kv.admit(entry.request, clock)
                if cached_tokens is None:
                    break  # head-of-line waits for blocks
                got = queue.claim(clock, 1)
                if not got or got[0] is not entry.request:
                    raise SimulationError(
                        f"claim raced ahead of admission gating for request "
                        f"{entry.request.request_id}")
                claimed.append((entry.request, cached_tokens))
        if not claimed:
            return False
        if not interleave:
            prefill_claimed(claimed)
            return True
        # Defer prefill to the step loop, where the planner interleaves
        # budget-sized chunks with decodes.
        batch = [request for request, _ in claimed]
        if recorder is not None:
            for request in batch:
                recorder.on_admitted(request.request_id, request.arrival_ns,
                                     clock)
        planner.admit(batch)
        for request in batch:
            admitted[request.request_id] = (request, clock)
        return True

    def swap_in_ready() -> None:
        """Bring back offloaded sequences, oldest first, while room lasts."""
        nonlocal clock
        while swapped and kv is not None:
            seq = swapped[0]
            transfer_ns = kv.swap_in(seq.request.request_id, clock)
            if transfer_ns is None:
                break
            swapped.pop(0)
            clock += session.execute(
                StepKind.SWAP_IN, clock, transfer_ns, 1,
                queue_depth=depth(),
                cpu_ns=latency.platform.launch_call_cpu_ns
                if host is not None else 0.0)
            active.append(seq)

    def readmit_preempted() -> None:
        """Re-prefill recompute victims, oldest first, while room lasts.

        A victim resumes where it stopped (vLLM's recompute): blocks for
        its prompt and the tokens it has generated are reserved again and
        prefilled, and it keeps its first token, admission time and
        remaining tokens. Its prefix binding survives preemption (only
        private blocks were dropped), so the re-prefill skips the shared
        prefix. Victims are not counted against max_active here: they are
        the ones being drained back in.
        """
        while (preempted and kv is not None
               and len(active) + len(swapped) < policy.max_active):
            seq = preempted[0]
            rid = seq.request.request_id
            if not kv.try_allocate(rid, kv.growth_delta(rid, seq.context),
                                   clock):
                break
            preempted.pop(0)
            run_prefill(rid, seq.context,
                        kv.shared_blocks_of(rid) * kv.block_tokens, 1)
            active.append(seq)

    def admit() -> None:
        swap_in_ready()
        readmit_preempted()
        claim_new()

    def admission_open(free: int) -> bool:
        """Whether :func:`admit` could act after a decode step that
        leaves ``free`` pool blocks (ignored on an ungated replica).

        Mirrors the first probe of each admission path: a swap-in, a
        recompute readmission, and a claim of the due head-of-line
        request, which a gated replica probes with
        :meth:`KvManager.could_admit`. A decode step only shrinks the free
        pool and never claims, so a probe that fails after one step of a
        window fails after every later one: those steps need no admission
        at all. Requests still to arrive bound the window as core events
        (see :meth:`StepPlanner.decode_window`).
        """
        if kv is not None:
            if (swapped and kv.host_blocks_of(swapped[0].request.request_id)
                    <= free):
                return True
            if (preempted and len(active) + len(swapped) < policy.max_active
                    and kv.growth_delta(preempted[0].request.request_id,
                                        preempted[0].context) <= free):
                return True
        if occupied() >= policy.max_active:
            return False
        entry = queue.first_unclaimed()
        if entry is None or entry.arrival_ns > clock:
            return False
        return kv is None or kv.could_admit(entry.request, free)

    def evict_until_growth_fits(kv: KvManager, ids: list[int],
                                deltas: list[int]) -> bool:
        """Make room for every active sequence to grow by one token.

        ``ids`` and ``deltas`` run parallel to ``active`` and shrink with
        it. Evicting a victim frees only the victim's blocks, so the other
        sequences' deltas stay valid and are never recomputed. Returns
        whether anything was evicted (a decode-window boundary: the freed
        blocks may readmit parked work after the step).
        """
        nonlocal clock
        evicted = False
        while True:
            needed = sum(deltas)
            if kv.pool.can_allocate(needed):
                return evicted
            evicted = True
            # Warm (idle) prefix groups are the cheapest victims: evicting
            # them costs future hits, not live work.
            if (kv.prefix_caching
                    and kv.evict_idle_prefixes(needed, clock)):
                return evicted
            if kv.policy is KvPolicy.NONE:
                raise SimulationError(
                    "kv pool exhausted with policy none: prefix caching "
                    "alone cannot evict live sequences — use recompute or "
                    "offload, or grow the pool")
            if len(active) <= 1:
                raise SimulationError(
                    "kv pool cannot cover a single sequence's decode growth "
                    "(admission capacity guard should have prevented this)")
            victim = active.pop()  # newest admission loses its residency
            ids.pop()
            deltas.pop()
            if kv.policy is KvPolicy.RECOMPUTE:
                kv.preempt(victim.request.request_id, clock)
                preempted.append(victim)
            else:
                transfer_ns = kv.swap_out(victim.request.request_id, clock)
                clock += session.execute(
                    StepKind.SWAP_OUT, clock, transfer_ns, 1,
                    queue_depth=depth(),
                    cpu_ns=latency.platform.launch_call_cpu_ns
                    if host is not None else 0.0)
                swapped.append(victim)

    while True:
        clock = yield ("at", clock)
        if not active and not planner.has_pending:
            if swapped or preempted:
                admit()
                if not active:
                    raise SimulationError(
                        "kv serving stalled: parked sequences but an empty "
                        "pool refused readmission")
                continue
            nxt = queue.next_unclaimed_arrival()
            if nxt is None:
                break
            if nxt > clock:
                # Idle engine: sleep until the next arrival (another replica
                # may claim it first; re-check on wake).
                clock = nxt
                continue
            if not claim_new() and kv is not None:
                head = queue.first_unclaimed()
                if head is not None and head.arrival_ns <= clock:
                    # Only a pool refuses a due request. Nothing is
                    # resident, so the refusal would repeat at this instant
                    # forever: only idle prefix groups can hold the blocks
                    # the head request needs.
                    if kv.prefix_caching:
                        kv.evict_idle_prefixes(
                            kv.blocks_for(head.request.prompt_len + 1), clock)
                    if not claim_new():
                        raise SimulationError(
                            f"kv serving stalled: request "
                            f"{head.request.request_id} is due but an idle "
                            f"engine with nothing resident cannot admit it")
            continue
        # Compose the step up front: decode tokens first (decode priority),
        # then whatever budget remains as prompt chunks.
        chunks = planner.plan_step(len(active)).chunks if interleave else ()
        if active:
            # A decode window for the whole active set. On a gated replica
            # the first step pays its growth up front (and evicts for it);
            # later steps run while the pool covers theirs. Prompt chunks
            # after the first step, a newly joined sequence's labelled
            # first decode, an eviction, or an admission that could act
            # make it a window of one.
            ids = [seq.request.request_id for seq in active]
            contexts = [seq.context for seq in active]
            deltas: list[int] = []
            evicted = False
            if kv is not None:
                deltas = kv.growth_deltas(
                    ids, [context + 1 for context in contexts])
                evicted = evict_until_growth_fits(kv, ids, deltas)
                del contexts[len(active):]  # victims leave from the end
            step_batch = len(active)

            def limit() -> int:
                if (chunks or newly_joined or evicted or admission_open(
                        kv.pool.free_blocks - sum(deltas)
                        if kv is not None else 0)):
                    return 1
                steps = min(seq.remaining for seq in active)
                if kv is None:
                    return steps
                return kv.decode_steps_covered(ids, contexts, deltas, steps)

            horizon = core.next_event_ns()
            clocks = session.execute_steps(
                StepKind.DECODE, clock,
                planner.decode_window(latency, model, step_batch,
                                      max(contexts), policy.context_bucket,
                                      clock, horizon, limit,
                                      priced_cpu=host is not None,
                                      shaped=recorder is not None),
                step_batch, queue_depth=depth(), horizon_ns=horizon,
                schedule_label=decode_schedule_label(newly_joined))
            newly_joined.clear()
            if kv is not None:
                kv.apply_decode_window(ids, contexts, deltas, clocks[:-1])
            count = len(clocks) - 1
            clock = clocks[-1]
            if recorder is not None:
                recorder.on_token_steps(ids, clocks[1:])
            finished: list[ChunkedSequenceState] = []
            for seq in active:
                seq.context += count
                seq.remaining -= count
                if seq.remaining <= 0:
                    finished.append(seq)
            for seq in finished:
                active.remove(seq)
                retire(seq, step_batch)
        for chunk in chunks:
            # An interleaved chunk runs at BS=1 and records no shape.
            run_chunk(chunk, 1, shaped=False)
            if chunk.is_last:
                request, admitted_ns = admitted.pop(chunk.request_id)
                start_sequence(request, admitted_ns, 1)
        # Admit newly arrived requests (and parked work) at the boundary.
        admit()

