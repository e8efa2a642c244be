"""Property tests locking the perf fast paths (sampling, lowering cache).

Two of the fast paths trade recorded *detail* or repeated *work* for speed
while promising unchanged results. Hypothesis searches the parameter space
for a counterexample:

* sampled recording (``RunRecorder(sample_every=k)``) must keep every
  aggregate and counter exact for **any** k and any arrival seed — only the
  per-request spans/histograms thin out;
* a lowering-cache hit must be structurally equal to a fresh lowering and
  pass the ``repro check graph`` rules (G001-G009) for any shape and mode.
"""

from __future__ import annotations

import dataclasses

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.check import check_lowering, check_sharding
from repro.engine.cache import LOWERING_CACHE
from repro.engine.executor import run
from repro.engine.modes import ExecutionMode
from repro.engine.tp import TPConfig, shard_lowered
from repro.hardware import get_platform
from repro.obs import RunRecorder
from repro.serving import (
    ContinuousBatchPolicy,
    LatencyModel,
    poisson_requests,
    simulate_serving,
)
from repro.workloads import get_model

INTEL_H100 = get_platform("Intel+H100")
GPT2 = get_model("gpt2")


def _serve(recorder: RunRecorder, seed: int) -> None:
    requests = poisson_requests(rate_per_s=60, duration_s=0.1, prompt_len=64,
                                output_tokens=4, seed=seed)
    # About one seed in 400 draws no arrival in 0.1 s; serving needs one.
    assume(requests)
    simulate_serving(requests, GPT2, LatencyModel(INTEL_H100),
                     policy=ContinuousBatchPolicy(max_active=4),
                     recorder=recorder)


@given(k=st.integers(1, 12), seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_sampled_recording_preserves_exact_aggregates(k, seed):
    full = RunRecorder()
    sampled = RunRecorder(sample_every=k)
    _serve(full, seed)
    _serve(sampled, seed)

    assert sampled.aggregates == full.aggregates
    assert sampled.counters.as_dict() == full.counters.as_dict()
    # Engine steps are per-step, never sampled: the timeline is complete.
    assert sampled.steps == full.steps
    assert (sampled.summary().requests_completed
            == full.summary().requests_completed)
    # What sampling *does* drop: spans thin out to the 1-in-k population.
    assert set(sampled.spans) == {rid for rid in full.spans if rid % k == 0}


@given(seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_sample_every_one_is_bit_identical_to_default(seed):
    default = RunRecorder()
    explicit = RunRecorder(sample_every=1)
    _serve(default, seed)
    _serve(explicit, seed)
    assert explicit.spans == default.spans
    assert explicit.aggregates == default.aggregates
    assert dataclasses.asdict(explicit.summary()) == \
        dataclasses.asdict(default.summary())


@given(
    batch=st.sampled_from([1, 2, 4, 8]),
    seq=st.sampled_from([64, 128, 256]),
    mode=st.sampled_from(list(ExecutionMode)),
    degree=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=20, deadline=None)
def test_cache_hit_lowering_equals_fresh_and_passes_graph_checks(
        batch, seq, mode, degree):
    if mode is ExecutionMode.PROXIMITY_FUSED:
        return  # requires a caller-owned fusion plan; the cache bypasses it
    kwargs = dict(batch_size=batch, seq_len=seq, mode=mode)
    if degree > 1:
        kwargs["tp"] = TPConfig(degree=degree)
    LOWERING_CACHE.clear()
    with LOWERING_CACHE.disabled():
        fresh = run(GPT2, INTEL_H100, **kwargs)
    run(GPT2, INTEL_H100, **kwargs)           # cold: populates the cache
    cached = run(GPT2, INTEL_H100, **kwargs)  # warm: must hit
    assert LOWERING_CACHE.stats.lowering_hits >= 1

    assert cached.lowered == fresh.lowered
    assert [op.label for op in cached.graph.ops] == \
        [op.label for op in fresh.graph.ops]
    # The cached stream satisfies the same structural invariants repro
    # check graph enforces (G006-G009 directly, G001-G005 across sharding).
    assert check_lowering(cached.lowered, cached.tp or None) == []
    if degree > 1:
        with LOWERING_CACHE.disabled():
            pre_shard = run(GPT2, INTEL_H100, batch_size=batch, seq_len=seq,
                            mode=mode).lowered
        tp = TPConfig(degree=degree)
        assert check_sharding(pre_shard, shard_lowered(pre_shard, tp),
                              tp) == []
