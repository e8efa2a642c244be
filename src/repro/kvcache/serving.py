"""KV-aware continuous batching: admission and growth gated on the pool.

This is :func:`repro.serving.continuous.continuous_batching_process` with
the infinite-memory assumption removed. Each replica's process consults its
:class:`~repro.kvcache.manager.KvManager` at the two points where a real
engine touches KV memory:

* **admission** — a request is claimed only once blocks for its prompt (plus
  the prefill's first token) are allocated; the claim order stays FIFO, so
  a too-big head-of-line request blocks later ones rather than being
  skipped.
* **decode growth** — before each decode step, every active sequence gets
  the blocks for one more token. When the pool cannot cover the growth, the
  policy evicts victims newest-first (never below one resident sequence):
  ``recompute`` frees the victim and re-prefills it later; ``offload``
  pays a swap-out transfer over the interconnect now and a swap-in
  transfer before the victim's next decode step.

Swap transfers appear on the serving timeline as ``SWAP_OUT`` /
``SWAP_IN`` steps — they occupy the engine like a real synchronous
``cudaMemcpy`` on the scheduler's critical path, and they export to traces
on their own copy-engine stream lane.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.kvcache.manager import KvManager, KvPolicy
from repro.obs.events import EngineShape, StepKind
from repro.serving.planner import (ChunkedSequenceState, PlannerConfig,
                                   StepPlanner)
from repro.serving.requests import Request

if TYPE_CHECKING:
    from repro.serving.continuous import ContinuousBatchPolicy
    from repro.serving.runtime import EngineSession, ServingRuntime
    from repro.sim.core import Process


def lifetime_blocks(manager: KvManager, request: Request) -> int:
    """Blocks the request needs at its largest (full prompt + output)."""
    return manager.blocks_for(request.prompt_len + request.output_tokens)


def kv_continuous_batching_process(
        runtime: ServingRuntime, session: EngineSession,
        policy: ContinuousBatchPolicy) -> Process:
    """One replica's iteration-level scheduler with a finite KV pool."""
    core = runtime.core
    queue = session.queue
    latency = runtime.latency
    model = runtime.model
    recorder = runtime.recorder
    kv = session.kv
    if kv is None:
        raise ConfigurationError(
            "kv_continuous_batching_process needs a session with a KvManager")
    # Finite-host runs book each step's dispatch-CPU share on the shared
    # core pool; swap bookkeeping pays one launch call per transfer, so
    # KV pressure itself contends for host cores.
    host = session.host
    planner = StepPlanner(PlannerConfig(chunk_tokens=policy.chunk_tokens))
    active: list[ChunkedSequenceState] = []
    swapped: list[ChunkedSequenceState] = []   # offloaded, FIFO readmission order
    preempted: list[Request] = []     # recompute victims awaiting re-prefill
    clock = 0.0

    def depth() -> int:
        return queue.depth(clock) if recorder is not None else 0

    def admitted_count() -> int:
        return len(active) + len(swapped) + len(preempted)

    def prefill(batch: list[Request]) -> None:
        """Run one prefill step for ``batch`` (blocks already allocated)."""
        nonlocal clock
        admitted_ns = clock
        prompt_len = max(r.prompt_len for r in batch)
        prefill_ns = latency.ttft_ns(model, len(batch), prompt_len)
        if recorder is not None:
            for request in batch:
                recorder.on_admitted(request.request_id, request.arrival_ns,
                                     clock)
        # Planner-decomposed prefill. Blocks for the whole prompt are
        # already allocated, so chunks run back to back at admission time:
        # chunking here bounds step granularity (observability + S007
        # checkability), not decode interleave — see docs/serving.md.
        for chunk in planner.prefill_plan(batch[0].request_id, prompt_len):
            chunk_ns = (prefill_ns if chunk.is_whole
                        else StepPlanner.chunk_cost_ns(latency, model,
                                                       len(batch), chunk))
            if host is None:
                chunk_cpu = 0.0
            elif chunk.is_whole:
                chunk_cpu = latency.ttft_cpu_ns(model, len(batch), prompt_len)
            else:
                chunk_cpu = StepPlanner.chunk_cpu_ns(latency, model,
                                                     len(batch), chunk)
            clock += session.execute(
                chunk.kind, clock, chunk_ns, len(batch),
                queue_depth=depth(),
                shape=EngineShape(model.name, len(batch), prompt_len)
                if recorder is not None and chunk.is_whole else None,
                schedule_label=chunk.schedule_label,
                cpu_ns=chunk_cpu)
        for request in batch:
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
                if recorder is not None:
                    recorder.on_completed(request.request_id, clock)
                kv.free(request.request_id, clock)
                runtime.complete(request,
                                 ttft_ns=seq.first_token_ns,
                                 completion_ns=seq.first_token_ns,
                                 batch_size=len(batch),
                                 service_start_ns=admitted_ns,
                                 session=session)
            else:
                active.append(seq)

    def prefill_cached(request: Request, cached_tokens: int) -> None:
        """Prefill a prefix-cache hit: compute only the divergent suffix.

        The cached prefix deletes prefill *compute* but not the launch tax —
        the suffix still runs a full forward pass (every layer's kernels
        dispatch, over fewer tokens), which is exactly the mechanism that
        shifts the CPU-bound→GPU-bound crossover per platform.
        """
        nonlocal clock
        admitted_ns = clock
        suffix = request.prompt_len - cached_tokens
        prefill_ns = latency.ttft_ns(model, 1, suffix)
        if recorder is not None:
            recorder.on_admitted(request.request_id, request.arrival_ns,
                                 clock)
        clock += session.execute(
            StepKind.PREFILL, clock, prefill_ns, 1,
            queue_depth=depth(),
            shape=EngineShape(model.name, 1, suffix)
            if recorder is not None else None,
            cpu_ns=latency.ttft_cpu_ns(model, 1, suffix)
            if host is not None else 0.0)
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
            if recorder is not None:
                recorder.on_completed(request.request_id, clock)
            kv.free(request.request_id, clock)
            runtime.complete(request,
                             ttft_ns=seq.first_token_ns,
                             completion_ns=seq.first_token_ns,
                             batch_size=1,
                             service_start_ns=admitted_ns,
                             session=session)
        else:
            active.append(seq)

    def run_prefills(pending: list[tuple[Request, int]]) -> None:
        """Prefill claimed requests in FIFO order.

        Consecutive uncached requests keep the pre-refactor batched prefill
        (bit-identical when nothing is tagged); cache hits run as
        suffix-only singletons.
        """
        plain: list[Request] = []
        for request, cached_tokens in pending:
            if cached_tokens:
                if plain:
                    prefill(plain)
                    plain = []
                prefill_cached(request, cached_tokens)
            else:
                plain.append(request)
        if plain:
            prefill(plain)

    def swap_in_ready() -> None:
        """Bring back offloaded sequences, oldest first, while room lasts."""
        nonlocal clock
        while swapped:
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
        """Re-prefill recompute victims, oldest first, while room lasts."""
        batch: list[tuple[Request, int]] = []
        # Preempted sequences are not counted against max_active here:
        # they are the ones being drained back in. A victim's prefix
        # binding survives preemption (only private blocks were dropped),
        # so its re-prefill recomputes just the copy-on-write suffix.
        while (preempted
               and len(active) + len(swapped) + len(batch) < policy.max_active):
            request = preempted[0]
            need = kv.growth_delta(request.request_id,
                                   request.prompt_len + 1)
            if not kv.try_allocate(request.request_id, need, clock):
                break
            preempted.pop(0)
            shared = kv.shared_blocks_of(request.request_id)
            batch.append((request, shared * kv.block_tokens))
        if batch:
            run_prefills(batch)

    def claim_new() -> bool:
        """Claim fresh arrivals, FIFO, while blocks and slots last;
        returns whether any was claimed."""
        batch: list[tuple[Request, int]] = []
        while admitted_count() + len(batch) < policy.max_active:
            entry = queue.first_unclaimed()
            if entry is None or entry.arrival_ns > clock:
                break
            request = entry.request
            if lifetime_blocks(kv, request) > kv.capacity_blocks:
                raise ConfigurationError(
                    f"request {request.request_id} needs "
                    f"{lifetime_blocks(kv, request)} KV blocks but the pool "
                    f"holds {kv.capacity_blocks}; the pool cannot fit a "
                    f"single sequence of this length")
            cached_tokens = 0
            prefix_key = (getattr(request, "prefix_hash", None)
                          if kv.prefix_caching else None)
            if prefix_key is not None:
                got = kv.acquire_prefix(request.request_id, prefix_key,
                                        request.prefix_len, clock)
                if got is None:
                    break  # cold prefix cannot fit; head-of-line waits
                cached_tokens = got
            need = kv.growth_delta(request.request_id,
                                   request.prompt_len + 1)
            if not kv.try_allocate(request.request_id, need, clock):
                if prefix_key is not None:
                    kv.release_prefix(request.request_id, clock)
                break
            claimed = queue.claim(clock, 1)
            if not claimed or claimed[0] is not request:
                raise SimulationError(
                    f"claim raced ahead of admission gating for request "
                    f"{request.request_id}")
            batch.append((request, cached_tokens))
        if batch:
            run_prefills(batch)
        return bool(batch)

    def admission_open(free: int) -> bool:
        """Whether :func:`admit` could act after a decode step that
        leaves ``free`` pool blocks.

        Mirrors the first probe of each admission path: a swap-in, a
        recompute readmission, and a claim of the due head-of-line
        request (a prefix-tagged head touches the prefix cache even when
        refused, and one that can never fit raises). A decode step only
        shrinks the free pool and never claims, so a probe that fails
        after one step of a window fails after every later one: those
        steps need no admission at all. Requests still to arrive bound
        the window as core events (see :meth:`StepPlanner.decode_window`).
        """
        if swapped and kv.host_blocks_of(swapped[0].request.request_id) <= free:
            return True
        if preempted and len(active) + len(swapped) < policy.max_active:
            request = preempted[0]
            if kv.growth_delta(request.request_id,
                               request.prompt_len + 1) <= free:
                return True
        if admitted_count() >= policy.max_active:
            return False
        entry = queue.first_unclaimed()
        if entry is None or entry.arrival_ns > clock:
            return False
        request = entry.request
        return (lifetime_blocks(kv, request) > kv.capacity_blocks
                or (kv.prefix_caching
                    and getattr(request, "prefix_hash", None) is not None)
                or kv.growth_delta(request.request_id,
                                   request.prompt_len + 1) <= free)

    def admit() -> None:
        swap_in_ready()
        readmit_preempted()
        claim_new()

    def evict_until_growth_fits(ids: list[int], deltas: list[int]) -> bool:
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
                preempted.append(victim.request)
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
        if not active:
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
                clock = nxt
                continue
            if not claim_new():
                head = queue.first_unclaimed()
                if head is not None and head.arrival_ns <= clock:
                    # Nothing is resident, so the refusal would repeat at
                    # this instant forever: only idle prefix groups can
                    # hold the blocks the head request needs.
                    if kv.prefix_caching:
                        kv.evict_idle_prefixes(
                            kv.blocks_for(head.request.prompt_len + 1), clock)
                    if not claim_new():
                        raise SimulationError(
                            f"kv serving stalled: request "
                            f"{head.request.request_id} is due but an idle "
                            f"engine with nothing resident cannot admit it")
            continue
        # A decode window: the first step pays its growth up front (and
        # evicts for it); later steps run while the pool covers theirs.
        ids = [seq.request.request_id for seq in active]
        contexts = [seq.context for seq in active]
        deltas = kv.growth_deltas(ids, [context + 1 for context in contexts])
        evicted = evict_until_growth_fits(ids, deltas)
        del contexts[len(active):]  # evicted victims leave from the end

        def limit() -> int:
            if evicted or admission_open(kv.pool.free_blocks - sum(deltas)):
                return 1
            return kv.decode_steps_covered(
                ids, contexts, deltas, min(seq.remaining for seq in active))

        step_batch = len(active)
        horizon = core.next_event_ns()
        clocks = session.execute_steps(
            StepKind.DECODE, clock,
            planner.decode_window(latency, model, step_batch, max(contexts),
                                  policy.context_bucket, clock, horizon,
                                  limit, priced_cpu=host is not None,
                                  shaped=recorder is not None),
            step_batch, queue_depth=depth(), horizon_ns=horizon)
        kv.apply_decode_window(ids, contexts, deltas, clocks[:-1])
        steps = len(clocks) - 1
        clock = clocks[-1]
        if recorder is not None:
            recorder.on_token_steps(ids, clocks[1:])
        finished: list[ChunkedSequenceState] = []
        for seq in active:
            seq.context += steps
            seq.remaining -= steps
            seq.last_token_ns = clock - seq.request.arrival_ns
            if seq.remaining <= 0:
                finished.append(seq)
        for seq in finished:
            active.remove(seq)
            kv.free(seq.request.request_id, clock)
            if recorder is not None:
                recorder.on_completed(seq.request.request_id, clock)
            runtime.complete(seq.request,
                             ttft_ns=seq.first_token_ns,
                             completion_ns=seq.last_token_ns,
                             batch_size=step_batch,
                             service_start_ns=seq.admitted_ns,
                             session=session)
        admit()
