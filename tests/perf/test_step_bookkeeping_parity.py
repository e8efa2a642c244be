"""Parity locks for the per-step bookkeeping fast path.

Decode steps run in windows (:meth:`StepPlanner.decode_window`): every
decode-only stretch between two boundaries runs without yields, and its
bookkeeping takes a fixed number of calls per window, whatever its length
and batch size: one :meth:`EngineSession.execute_steps` (one
:meth:`RunRecorder.record_steps`), one :meth:`KvManager.apply_decode_window`
and one :meth:`RunRecorder.on_token_steps`. The records those calls build
(:class:`KvCacheEvent`, :class:`StepEvent`) are validated named tuples, and
:meth:`Histogram.summary` sorts once for all three percentiles.

None of that may show in the results. The fingerprints below were taken
from the per-sequence implementation (one ``growth_delta``, ``grow`` and
``_log`` per sequence, one ``on_token`` per sequence, frozen-dataclass
records, one sort per percentile) and hash the whole recorder state of
four small serves: every step, every KV event (the recorder's mirror and
every manager's own log, each per-step ``decode`` event hashed as the
per-sequence rows it replaced), raw histogram values in insertion order
(each beside the 1.0 weight histograms stored when the tables were taken),
counters in insertion order, aggregates, spans, the summary and
the request outcomes. A second table, taken from the one-step-per-wake-up
loops, hashes what the serves leave on their sessions' hardware.

Both tables also hold rows for the batched policies (static, priority,
speculative, pipeline and RAG), taken from their hand-written processes:
whole-prompt serves on one and on two replicas, and a chunked speculative
serve. The chunked priority, pipeline and RAG rows were taken from the one
batched loop, whose clock follows the chunks it books; the hand-written
processes moved theirs by the whole-prompt cost instead. The static,
pipeline, RAG and two-replica static and priority rows were retaken when
a whole-prompt batch came to end where its recorded steps end instead of
at the closed form ``start + total`` (a move of at most 4.8e-7 ns).
Every batched row of the first table was retaken when batched outcomes
came to be derived as booked time minus arrival, as continuous ones are:
the recorder state and the schedules did not move, only the outcomes'
latencies, by ulps (at most 8.6e-6 ns).
"""

import hashlib
from dataclasses import astuple

import pytest

from repro.analysis.pareto import mixed_prompt_requests
from repro.engine.tp import TPConfig
from repro.errors import SimulationError
from repro.hardware import get_platform
from repro.host import HostConfig, HostModel
from repro.kvcache import KvCacheConfig, KvCacheEvent, KvManager, KvPolicy
from repro.obs import RunRecorder
from repro.obs.events import EngineShape, StepKind
from repro.serving import ContinuousBatchPolicy, LatencyModel, simulate_serving
from repro.serving.cluster import simulate_cluster
from repro.serving.requests import poisson_requests
from repro.traffic import (ArrivalFamily, ArrivalSpec, PrefixSpec,
                           TrafficConfig, generate_traffic)
from repro.workloads import GPT2
from tests.scenarios import batched_run


def _step_row(step) -> tuple:
    shape = (None if step.shape is None else
             (step.shape.model, step.shape.batch_size, step.shape.seq_len,
              step.shape.phase, step.shape.context_len))
    return (step.index, step.kind.value, step.ts_ns, step.dur_ns,
            step.batch_size, step.queue_depth, shape, step.replica)


def _kv_row(event) -> tuple:
    return (event.ts_ns, event.kind, event.seq, event.blocks,
            event.allocated, event.replica, event.refs)


def _kv_rows(events) -> list[tuple]:
    """The v1 rows of a KV log: one per-step ``decode`` event becomes one
    row per sequence, in batch order, as the frozen fingerprints hash."""
    rows = []
    for event in events:
        if event.kind == "decode":
            rows.extend((event.ts_ns, "decode", seq, 0, event.allocated,
                         event.replica, 0) for seq in event.seqs)
        else:
            rows.append(_kv_row(event))
    return rows


def fingerprint(recorder: RunRecorder, run) -> str:
    """Hash of everything a serve leaves in its recorder and outcomes."""
    summary = recorder.summary()
    state = (
        [_step_row(step) for step in recorder.steps],
        _kv_rows(recorder.kv_events),
        [_kv_rows(session.kv.events)
         for session in run.sessions if session.kv is not None],
        [(name, list(h._values), [1.0] * len(h._values))
         for name, h in recorder._histograms.items()],
        list(recorder.counters.as_dict().items()),
        astuple(recorder.aggregates),
        [(rid, span.arrival_ns, span.admitted_ns, span.first_token_ns,
          span.completed_ns) for rid, span in recorder.spans.items()],
        (summary.requests_completed, summary.steps, summary.span_ns,
         [astuple(h) for h in summary.histograms.values()]),
        [(o.request.request_id, o.replica, o.batch_size, o.ttft_ns,
          o.completion_ns, o.queue_ns) for o in run.outcomes],
    )
    # repr() of a float round-trips exactly: equal hashes, equal floats.
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


def offload_chunked_serve():
    """Single replica, KV offload with chunked prefill; swaps engage."""
    requests = mixed_prompt_requests(seed=1, duration_s=2.0, rate_per_s=16.0,
                                     long_rate_per_s=4.0, output_tokens=160,
                                     long_prompt_len=1536,
                                     long_output_tokens=48)
    recorder = RunRecorder()
    run = simulate_serving(
        requests, GPT2, LatencyModel(platform=get_platform("AMD+A100")),
        policy=ContinuousBatchPolicy(max_active=16, chunk_tokens=256),
        kv=KvCacheConfig(policy=KvPolicy.OFFLOAD, pool_gib=0.12),
        recorder=recorder)
    assert recorder.counters.get("kv_swap_out") > 0
    assert recorder.counters.get("steps_prefill_chunk") > 0
    return recorder, run


def recompute_prefix_serve():
    """Single replica, recompute pressure on prefix-bound sequences,
    recording one request in two."""
    requests = generate_traffic(TrafficConfig(
        arrivals=ArrivalSpec(family=ArrivalFamily.POISSON, rate_per_s=60.0,
                             duration_s=0.5, seed=2),
        prompt_len=512, prompt_jitter=128, output_tokens=96, output_jitter=32,
        prefix=PrefixSpec(share=0.75, prefix_len=384, pool=3)))
    recorder = RunRecorder(sample_every=2)
    run = simulate_serving(
        requests, GPT2, LatencyModel(platform=get_platform("Intel+H100")),
        policy=ContinuousBatchPolicy(max_active=8),
        kv=KvCacheConfig(policy=KvPolicy.RECOMPUTE, pool_gib=0.08,
                         prefix_caching=True),
        recorder=recorder)
    assert recorder.counters.get("kv_preempt") > 0
    assert recorder.counters.get("kv_prefix_ref") > 0
    return recorder, run


def prefix_cluster_serve():
    """Four routed replicas sharing prefixes on a two-core host."""
    requests = generate_traffic(TrafficConfig(
        arrivals=ArrivalSpec(family=ArrivalFamily.BURSTY, rate_per_s=200.0,
                             duration_s=0.3, seed=1),
        prompt_len=512, prompt_jitter=128, output_tokens=32, output_jitter=16,
        prefix=PrefixSpec(share=0.75, prefix_len=384, pool=4),
        sessions=16, tenants=2))
    recorder = RunRecorder()
    run = simulate_cluster(
        requests, GPT2, LatencyModel(platform=get_platform("Intel+H100")),
        policy=ContinuousBatchPolicy(max_active=16), router="least-loaded",
        replicas=4,
        kv=KvCacheConfig(policy=KvPolicy.NONE, prefix_caching=True),
        host=HostModel.for_platform("Intel+H100", 4, HostConfig(cores=2)),
        recorder=recorder)
    assert recorder.counters.get("kv_prefix_ref") > 0
    assert recorder.counters.get("host_remote_grants") > 0
    return recorder, run


def sampled_continuous_serve():
    """Plain continuous batching, recording one request in three."""
    requests = poisson_requests(rate_per_s=60, duration_s=0.5, prompt_len=128,
                                output_tokens=24, seed=4)
    recorder = RunRecorder(sample_every=3)
    run = simulate_serving(
        requests, GPT2, LatencyModel(platform=get_platform("GH200")),
        policy=ContinuousBatchPolicy(max_active=8), recorder=recorder)
    return recorder, run


def static_serve():
    """Static batching, one replica."""
    recorder = RunRecorder()
    _, run = batched_run("static", get_platform("GH200"), recorder=recorder)
    return recorder, run


def priority_serve():
    """Two-class priority scheduling, one replica."""
    recorder = RunRecorder()
    _, run = batched_run("priority", get_platform("AMD+A100"),
                         recorder=recorder)
    return recorder, run


def speculative_serve():
    """Draft-and-verify serving, one replica."""
    recorder = RunRecorder()
    _, run = batched_run("speculative", get_platform("Intel+H100"),
                         recorder=recorder)
    return recorder, run


def pipeline_serve():
    """Two-stage agentic chains, one replica."""
    recorder = RunRecorder()
    _, run = batched_run("pipeline", get_platform("GH200"),
                         recorder=recorder)
    return recorder, run


def rag_serve():
    """Retrieval plus generation, one replica."""
    recorder = RunRecorder()
    _, run = batched_run("rag", get_platform("AMD+A100"), recorder=recorder)
    return recorder, run


def static_two_replica_serve():
    """Static batching, two replicas racing for the queue."""
    recorder = RunRecorder()
    _, run = batched_run("static", get_platform("Intel+H100"), replicas=2,
                         recorder=recorder)
    return recorder, run


def priority_two_replica_serve():
    """Priority scheduling, two replicas racing for the queue."""
    recorder = RunRecorder()
    _, run = batched_run("priority", get_platform("GH200"), replicas=2,
                         recorder=recorder)
    return recorder, run


def speculative_chunked_serve():
    """Draft-and-verify serving with a chunked target prefill."""
    recorder = RunRecorder()
    _, run = batched_run("speculative", get_platform("GH200"),
                         chunk_tokens=128, recorder=recorder)
    assert recorder.counters.get("steps_prefill_chunk") > 0
    return recorder, run


def priority_chunked_serve():
    """Priority scheduling with 64-token prefill chunks."""
    recorder = RunRecorder()
    _, run = batched_run("priority", get_platform("GH200"),
                         chunk_tokens=64, recorder=recorder)
    return recorder, run


def pipeline_chunked_serve():
    """Agentic chains with 256-token prefill chunks."""
    recorder = RunRecorder()
    _, run = batched_run("pipeline", get_platform("GH200"),
                         chunk_tokens=256, recorder=recorder)
    return recorder, run


def rag_chunked_serve():
    """RAG with 64-token prefill chunks."""
    recorder = RunRecorder()
    _, run = batched_run("rag", get_platform("GH200"), chunk_tokens=64,
                         recorder=recorder)
    return recorder, run


#: Fingerprints of the per-sequence implementation (see module docstring).
FROZEN = {
    offload_chunked_serve: "1d3fc9430f25e6ad",
    recompute_prefix_serve: "5ecaa9bbe31afafd",
    prefix_cluster_serve: "4d46ea1230c334f8",
    sampled_continuous_serve: "7d151bd19b059b91",
    static_serve: "103c9404cecb0ccc",
    priority_serve: "08f330bac5e980e3",
    speculative_serve: "ece003cd97b28832",
    pipeline_serve: "300915043885e21f",
    rag_serve: "fdd62a15ae3f4a3e",
    static_two_replica_serve: "0f62988173c6e31f",
    priority_two_replica_serve: "38b2fd3674378bb2",
    speculative_chunked_serve: "565e72c28f275d4c",
    priority_chunked_serve: "9ec24b028cabbcae",
    pipeline_chunked_serve: "f0fdc915f5e0eb29",
    rag_chunked_serve: "086b379e561446da",
}


@pytest.mark.parametrize("serve", list(FROZEN), ids=lambda f: f.__name__)
def test_recorder_state_matches_the_per_sequence_bookkeeping(serve):
    recorder, run = serve()
    assert fingerprint(recorder, run) == FROZEN[serve]


# ----------------------------------------------------------------------
# Session state: what a serve leaves on its simulated hardware
# ----------------------------------------------------------------------
def schedule_fingerprint(run) -> str:
    """Hash of every session's schedule and resource accounting.

    :func:`fingerprint` sees the recorder only; this one sees what the
    steps did to the hardware: the checkable schedule items (kernels and
    the per-step TP ``join`` items, in order), each compute stream's
    ``busy_ns``, ``free_at``, ``start_times`` and ``kernel_count``, the
    first shard's compute ``busy_ns`` once more (the hashes were frozen
    with the per-step span sum in that slot) and the step count.
    """
    state = [
        (session.replica,
         sorted(session.schedule_items.items()),
         [(device.index, stream.busy_ns, stream.free_at,
           list(stream.start_times), stream.kernel_count)
          for device in session.devices
          for stream in device.streams],
         session.devices[0].compute_stream.busy_ns,
         session.steps)
        for session in run.sessions
    ]
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


def tp2_continuous_serve():
    """Plain continuous batching on a two-shard (TP=2) replica."""
    requests = poisson_requests(rate_per_s=60, duration_s=0.3, prompt_len=96,
                                output_tokens=24, seed=5)
    recorder = RunRecorder()
    run = simulate_serving(
        requests, GPT2,
        LatencyModel(platform=get_platform("Intel+H100"),
                     tp=TPConfig(degree=2)),
        policy=ContinuousBatchPolicy(max_active=8), recorder=recorder)
    assert run.devices_per_replica == 2
    return recorder, run


def chunked_continuous_serve():
    """Chunked prefill interleaved with decodes, no KV pool."""
    requests = mixed_prompt_requests(seed=3, duration_s=0.5, rate_per_s=20.0,
                                     long_rate_per_s=4.0, output_tokens=40,
                                     long_prompt_len=900,
                                     long_output_tokens=16)
    recorder = RunRecorder()
    run = simulate_serving(
        requests, GPT2, LatencyModel(platform=get_platform("GH200")),
        policy=ContinuousBatchPolicy(max_active=8, chunk_tokens=256),
        recorder=recorder)
    assert recorder.counters.get("steps_prefill_chunk") > 0
    return recorder, run


#: Session fingerprints of the one-step-per-wake-up loops, taken before
#: decode steps ran in windows.
FROZEN_SCHEDULES = {
    offload_chunked_serve: "1a2b03734e6f7ed0",
    recompute_prefix_serve: "57d2018cc3ec6bd2",
    prefix_cluster_serve: "7d1ef8dac28d000b",
    sampled_continuous_serve: "7b0a4afe044ef316",
    tp2_continuous_serve: "62300773a7012442",
    chunked_continuous_serve: "fb826dbbbc63107c",
    static_serve: "be4b5e13ddf7d293",
    priority_serve: "692bebb424a7b44e",
    speculative_serve: "2f31d2b849bafa87",
    pipeline_serve: "f24ab2e3c62294e2",
    rag_serve: "9dcbec04e5c6324b",
    static_two_replica_serve: "a7325be783a6bdb9",
    priority_two_replica_serve: "d70ad200c26c5668",
    speculative_chunked_serve: "48b8346ed5bf8de0",
    priority_chunked_serve: "30e2c59dc6cd4cb4",
    pipeline_chunked_serve: "f78b863c89dac254",
    rag_chunked_serve: "656542603624ecc6",
}


@pytest.mark.parametrize("serve", list(FROZEN_SCHEDULES),
                         ids=lambda f: f.__name__)
def test_session_state_matches_the_one_step_loops(serve):
    _, run = serve()
    assert schedule_fingerprint(run) == FROZEN_SCHEDULES[serve]


# ----------------------------------------------------------------------
# Unit locks: the batched hooks equal their per-sequence forms
# ----------------------------------------------------------------------
def _token_state(recorder: RunRecorder) -> tuple:
    return (astuple(recorder.aggregates),
            list(recorder.counters.as_dict().items()),
            [(name, list(h._values))
             for name, h in recorder._histograms.items()],
            list(recorder._last_token_ns.items()))


def _primed(sample_every: int) -> RunRecorder:
    recorder = RunRecorder(sample_every=sample_every)
    for rid in range(6):
        recorder.on_admitted(rid, 0.0, 10.0)
        recorder.on_first_token(rid, 100.0 + rid * 3.7)
    return recorder


@pytest.mark.parametrize("sample_every", [1, 3])
def test_on_tokens_equals_a_loop_of_on_token(sample_every):
    batched, looped = _primed(sample_every), _primed(sample_every)
    # Id 7 never had a first token: it counts a token but no gap.
    steps = [([0, 1, 2, 3, 4, 5], 130.1), ([1, 3, 7], 161.3),
             ([], 170.0), ([5, 0, 7, 2, 4], 190.7)]
    for ids, ts_ns in steps:
        batched.on_tokens(ids, ts_ns)
        for rid in ids:
            looped.on_token(rid, ts_ns)
        assert _token_state(batched) == _token_state(looped)
    tbt = batched.histogram("tbt_ns")
    assert len(tbt._values) == (13 if sample_every == 1 else 4)


def test_on_tokens_of_an_empty_batch_records_nothing():
    recorder = RunRecorder()
    recorder.on_tokens([], 5.0)
    assert _token_state(recorder) == _token_state(RunRecorder())


def _pressured_manager() -> KvManager:
    """Sequences 1-3 in the three states growth must account for."""
    manager = KvManager(GPT2, get_platform("AMD+A100"), KvPolicy.OFFLOAD,
                        capacity_blocks=64, prefix_caching=True)
    bt = manager.block_tokens
    # 1: bound to a two-block shared prefix, one private suffix block.
    assert manager.acquire_prefix(1, 99, 2 * bt + 5, ts_ns=0.0) == 0
    assert manager.try_allocate(1, manager.growth_delta(1, 3 * bt), 0.0)
    # 2: swapped out and back in with its three blocks.
    assert manager.try_allocate(2, 3, 0.0)
    manager.swap_out(2, 1.0)
    assert manager.swap_in(2, 2.0) is not None
    # 3: exactly at a block boundary (two full blocks).
    assert manager.try_allocate(3, 2, 0.0)
    return manager


def test_growth_deltas_equal_growth_delta_per_sequence():
    manager = _pressured_manager()
    bt = manager.block_tokens
    seqs = [1, 2, 3, 4]    # 4 holds nothing at all
    cases = {
        (3 * bt, 3 * bt, 2 * bt, 1): [0, 0, 0, 1],
        (3 * bt + 1, 3 * bt + 1, 2 * bt + 1, bt + 1): [1, 1, 1, 2],
        (5 * bt, 2 * bt, bt, 0): [2, 0, 0, 0],
    }
    for tokens, expected in cases.items():
        batched = manager.growth_deltas(seqs, tokens)
        assert batched == [manager.growth_delta(seq, count)
                           for seq, count in zip(seqs, tokens)]
        assert batched == expected


def test_apply_growth_acquires_only_nonzero_deltas():
    manager = _pressured_manager()
    bt = manager.block_tokens
    seqs = [1, 2, 3]
    before = len(manager.events)
    deltas = manager.growth_deltas(seqs, [3 * bt + 1, 3 * bt, 2 * bt + 1])
    manager.apply_growth(seqs, deltas, ts_ns=5.0)
    grown = manager.events[before:]
    assert [(e.kind, e.seq, e.blocks) for e in grown] == [
        ("grow", 1, 1), ("grow", 3, 1)]
    assert [manager.pool.held(seq) for seq in seqs] == [2, 3, 3]
    with pytest.raises(SimulationError):
        manager.apply_growth([3], [manager.pool.free_blocks + 1], ts_ns=6.0)


def test_note_decode_logs_one_event_per_step_in_both_logs():
    recorder = RunRecorder()
    manager = KvManager(GPT2, get_platform("AMD+A100"), KvPolicy.OFFLOAD,
                        capacity_blocks=64, recorder=recorder, replica=2)
    manager.try_allocate(5, 3, 0.0)
    manager.try_allocate(9, 1, 0.0)
    manager.note_decode([9, 5], ts_ns=4.0)
    manager.note_decode([], ts_ns=5.0)
    manager.note_decode([5], ts_ns=6.0)
    assert manager.events[2:] == [
        KvCacheEvent(4.0, "decode", -1, 0, 4, 2, 0, (9, 5)),
        KvCacheEvent(6.0, "decode", -1, 0, 4, 2, 0, (5,))]
    assert _kv_rows(manager.events[2:]) == [
        (4.0, "decode", 9, 0, 4, 2, 0), (4.0, "decode", 5, 0, 4, 2, 0),
        (6.0, "decode", 5, 0, 4, 2, 0)]
    assert recorder.kv_events == manager.events
    assert recorder.counters.as_dict() == {}


@pytest.mark.parametrize("sample_every", [1, 3])
def test_on_token_steps_equals_a_loop_of_on_tokens(sample_every):
    windowed, looped = _primed(sample_every), _primed(sample_every)
    windows = [([0, 1, 2, 3, 4, 5], [130.1, 161.3, 190.7]),
               ([1, 3, 7], [201.0]), ([5, 0, 7, 8, 2, 4], [215.5, 230.25]),
               ([], [240.0]), ([2, 4], [])]
    for ids, stamps in windows:
        windowed.on_token_steps(ids, stamps)
        for ts_ns in stamps:
            looped.on_tokens(ids, ts_ns)
        assert _token_state(windowed) == _token_state(looped)


def _step_state(recorder: RunRecorder) -> tuple:
    return ([_step_row(step) for step in recorder.steps],
            [(name, list(h._values))
             for name, h in recorder._histograms.items()],
            list(recorder.counters.as_dict().items()))


@pytest.mark.parametrize("sample_every", [1, 3])
def test_record_steps_equals_a_loop_of_record_step(sample_every):
    windowed = RunRecorder(sample_every=sample_every)
    looped = RunRecorder(sample_every=sample_every)
    shape = EngineShape("gpt2", 3, 1, phase="decode", context_len=64)
    wider = EngineShape("gpt2", 3, 1, phase="decode", context_len=128)
    windows = [
        (StepKind.PREFILL, [0.0], [50.5], 2, 1, None),
        (StepKind.DECODE, [50.5, 61.25, 72.0], [10.75, 10.75, 11.5], 3, 4,
         [shape, shape, wider]),
        (StepKind.DECODE, [90.0], [12.0], 1, 0, [wider]),
        (StepKind.DECODE, [], [], 3, 0, []),
    ]
    for kind, starts, durations, batch, depth, shapes in windows:
        windowed.record_steps(kind, starts, durations, batch,
                              queue_depth=depth, shapes=shapes, replica=1)
        for j, (ts_ns, dur_ns) in enumerate(zip(starts, durations)):
            looped.record_step(kind, ts_ns, dur_ns, batch, queue_depth=depth,
                               shape=None if shapes is None else shapes[j],
                               replica=1)
        assert _step_state(windowed) == _step_state(looped)
    assert len(windowed.steps) == 5


def _window_contexts(manager: KvManager) -> list[int]:
    """Token counts matching the blocks sequences 1-3 hold: 1 and 3 sit
    at a block boundary, 2 is five tokens short of one."""
    bt = manager.block_tokens
    return [3 * bt, 3 * bt - 5, 2 * bt]


def _step_by_step(manager: KvManager, seqs, contexts, starts) -> None:
    for step, ts_ns in enumerate(starts):
        deltas = manager.growth_deltas(seqs, [c + step + 1 for c in contexts])
        manager.apply_growth(seqs, deltas, ts_ns)
        manager.note_decode(seqs, ts_ns)


def test_apply_decode_window_equals_steps_done_one_by_one():
    recorder = RunRecorder()
    windowed, looped = _pressured_manager(), _pressured_manager()
    windowed.recorder = looped.recorder = recorder
    seqs = [1, 2, 3]
    contexts = _window_contexts(windowed)
    starts = [10.0 + 3.5 * step for step in range(2 * windowed.block_tokens
                                                  + 7)]
    first = windowed.growth_deltas(seqs, [c + 1 for c in contexts])
    assert windowed.decode_steps_covered(seqs, contexts, first,
                                         len(starts)) == len(starts)
    before = len(windowed.events)
    windowed.apply_decode_window(seqs, contexts, first, starts)
    mirrored = list(recorder.kv_events)
    _step_by_step(looped, seqs, contexts, starts)
    assert windowed.events == looped.events
    assert mirrored == windowed.events[before:]
    assert windowed.pool.holdings == looped.pool.holdings
    logged = windowed.events[before:]
    # Each sequence crosses three block boundaries in 39 steps; each step
    # logs one decode event, after its growth, and every step of the
    # window shares one id tuple.
    assert [event.kind for event in logged].count("grow") == 9
    decodes = [event for event in logged if event.kind == "decode"]
    assert [event.ts_ns for event in decodes] == starts
    assert all(event.seqs == (1, 2, 3) for event in decodes)
    assert len({id(event.seqs) for event in decodes}) == 1
    allocated = windowed.pool.allocated - sum(
        event.blocks for event in logged if event.kind == "grow")
    for event in logged:
        allocated += event.blocks
        assert event.allocated == allocated


@pytest.mark.parametrize("spare", [0, 1, 2, 3, 5])
def test_decode_steps_covered_stops_where_eviction_would_run(spare):
    seqs = [1, 2, 3]
    windowed, looped = _pressured_manager(), _pressured_manager()
    contexts = _window_contexts(windowed)
    for manager in (windowed, looped):
        # Leave ``spare`` blocks beyond the first step's growth.
        assert manager.try_allocate(9, manager.pool.free_blocks - 2 - spare,
                                    0.0)
    first = windowed.growth_deltas(seqs, [c + 1 for c in contexts])
    limit = 4 * windowed.block_tokens
    covered = windowed.decode_steps_covered(seqs, contexts, first, limit)
    steps = 0
    while steps < limit:
        deltas = looped.growth_deltas(seqs,
                                      [c + steps + 1 for c in contexts])
        if not looped.pool.can_allocate(sum(deltas)):
            break
        looped.apply_growth(seqs, deltas, 0.0)
        steps += 1
    assert covered == steps
    assert windowed.decode_steps_covered(seqs, contexts, first, 1) == 1


def test_decode_steps_covered_rejects_blocks_off_the_token_count():
    manager = _pressured_manager()
    bt = manager.block_tokens
    contexts = [3 * bt, 3 * bt - 5, bt - 3]  # 3 holds two blocks, not one
    first = manager.growth_deltas([1, 2, 3], [c + 1 for c in contexts])
    with pytest.raises(SimulationError):
        manager.decode_steps_covered([1, 2, 3], contexts, first, 8)
