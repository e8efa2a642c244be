"""Parity locks for the per-step bookkeeping fast path.

A decode step does its KV bookkeeping and its recorder bookkeeping in a
fixed number of calls: one :meth:`KvManager.growth_deltas` pass, one
:meth:`KvManager.apply_growth`, one :meth:`KvManager.note_decode` and one
:meth:`RunRecorder.on_tokens`, whatever the batch size. The records those
calls build (:class:`KvCacheEvent`, :class:`StepEvent`) are validated named
tuples, and :meth:`Histogram.summary` sorts once for all three percentiles.

None of that may show in the results. The fingerprints below were taken
from the per-sequence implementation (one ``growth_delta``, ``grow`` and
``_log`` per sequence, one ``on_token`` per sequence, frozen-dataclass
records, one sort per percentile) and hash the whole recorder state of
four small serves: every step, every KV event (the recorder's mirror and
every manager's own log), raw histogram values and weights in insertion
order, counters in insertion order, aggregates, spans, the summary and
the request outcomes.
"""

import hashlib
from dataclasses import astuple

import pytest

from repro.analysis.pareto import mixed_prompt_requests
from repro.errors import SimulationError
from repro.hardware import get_platform
from repro.host import HostConfig, HostModel
from repro.kvcache import KvCacheConfig, KvManager, KvPolicy
from repro.obs import RunRecorder
from repro.serving import ContinuousBatchPolicy, LatencyModel, simulate_serving
from repro.serving.cluster import simulate_cluster
from repro.serving.requests import poisson_requests
from repro.traffic import (ArrivalFamily, ArrivalSpec, PrefixSpec,
                           TrafficConfig, generate_traffic)
from repro.workloads import GPT2


def _step_row(step) -> tuple:
    shape = (None if step.shape is None else
             (step.shape.model, step.shape.batch_size, step.shape.seq_len,
              step.shape.phase, step.shape.context_len))
    return (step.index, step.kind.value, step.ts_ns, step.dur_ns,
            step.batch_size, step.queue_depth, shape, step.replica)


def _kv_row(event) -> tuple:
    return (event.ts_ns, event.kind, event.seq, event.blocks,
            event.allocated, event.replica, event.refs)


def fingerprint(recorder: RunRecorder, run) -> str:
    """Hash of everything a serve leaves in its recorder and outcomes."""
    summary = recorder.summary()
    state = (
        [_step_row(step) for step in recorder.steps],
        [_kv_row(event) for event in recorder.kv_events],
        [[_kv_row(event) for event in session.kv.events]
         for session in run.sessions if session.kv is not None],
        [(name, list(h._values), list(h._weights))
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


#: Fingerprints of the per-sequence implementation (see module docstring).
FROZEN = {
    offload_chunked_serve: "1d3fc9430f25e6ad",
    recompute_prefix_serve: "259292d8b2cc9a19",
    prefix_cluster_serve: "4d46ea1230c334f8",
    sampled_continuous_serve: "7d151bd19b059b91",
}


@pytest.mark.parametrize("serve", list(FROZEN), ids=lambda f: f.__name__)
def test_recorder_state_matches_the_per_sequence_bookkeeping(serve):
    recorder, run = serve()
    assert fingerprint(recorder, run) == FROZEN[serve]


# ----------------------------------------------------------------------
# Unit locks: the batched hooks equal their per-sequence forms
# ----------------------------------------------------------------------
def _token_state(recorder: RunRecorder) -> tuple:
    return (astuple(recorder.aggregates),
            list(recorder.counters.as_dict().items()),
            [(name, list(h._values), list(h._weights))
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


def test_note_decode_logs_one_event_per_sequence_in_both_logs():
    recorder = RunRecorder()
    manager = KvManager(GPT2, get_platform("AMD+A100"), KvPolicy.OFFLOAD,
                        capacity_blocks=64, recorder=recorder, replica=2)
    manager.try_allocate(5, 3, 0.0)
    manager.note_decode([5, 9], ts_ns=4.0)
    manager.note_decode([], ts_ns=5.0)
    decodes = [(e.ts_ns, e.kind, e.seq, e.blocks, e.allocated, e.replica,
                e.refs) for e in manager.events[1:]]
    assert decodes == [(4.0, "decode", 5, 0, 3, 2, 0),
                       (4.0, "decode", 9, 0, 3, 2, 0)]
    assert recorder.kv_events == manager.events
    assert recorder.counters.as_dict() == {}
