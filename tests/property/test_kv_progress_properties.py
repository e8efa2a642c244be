"""Progress property: every KV-pressured serve terminates.

Over tight pools, prefix shares, both pressure policies and chunked
prefill, a serve either completes every request exactly once or fails at
a boundary (:class:`SimulationError` or :class:`ConfigurationError`); it
never spins. Completed serves also replay clean through the K-rules. This
is the main adversary of decode windows too: a window that skipped a
needed admission probe would strand parked or queued work.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.kvrules import check_kv_events
from repro.check.findings import Severity
from repro.errors import ConfigurationError, SimulationError
from repro.hardware import INTEL_H100
from repro.kvcache import KvCacheConfig, KvPolicy
from repro.kvcache.pool import KV_BLOCK_TOKENS, block_bytes
from repro.obs import RunRecorder
from repro.serving import ContinuousBatchPolicy, LatencyModel, simulate_serving
from repro.traffic import (ArrivalFamily, ArrivalSpec, PrefixSpec,
                           TrafficConfig, generate_traffic)
from repro.workloads import GPT2
from tests.kvcache.test_idle_admission import deadline

# One latency model across all examples: its caches make later examples
# cheap.
_LATENCY = LatencyModel(INTEL_H100)
_BLOCK_BYTES = block_bytes(GPT2, KV_BLOCK_TOKENS)


@st.composite
def pressured_serves(draw):
    prompt_len = draw(st.sampled_from([64, 128]))
    output_tokens = draw(st.sampled_from([8, 16, 32]))
    requests = generate_traffic(TrafficConfig(
        arrivals=ArrivalSpec(family=ArrivalFamily.POISSON,
                             rate_per_s=draw(st.sampled_from([30.0, 60.0,
                                                              120.0])),
                             duration_s=0.1, seed=draw(st.integers(0, 50))),
        prompt_len=prompt_len, prompt_jitter=prompt_len // 4,
        output_tokens=output_tokens, output_jitter=output_tokens // 2,
        prefix=PrefixSpec(share=draw(st.sampled_from([0.0, 0.5, 0.75, 1.0])),
                          prefix_len=draw(st.sampled_from([64, 128, 192])),
                          pool=draw(st.integers(1, 4)))))
    policy = ContinuousBatchPolicy(
        max_active=draw(st.integers(2, 8)),
        chunk_tokens=draw(st.sampled_from([0, 128])))
    kv = KvCacheConfig(
        policy=draw(st.sampled_from([KvPolicy.RECOMPUTE, KvPolicy.OFFLOAD])),
        # Room for one to three of the longest requests: warm prefix
        # groups alone can fill such a pool.
        pool_gib=(draw(st.integers(26, 80)) + 0.5) * _BLOCK_BYTES / 2**30,
        prefix_caching=True)
    return requests, policy, kv


@given(serve=pressured_serves())
@settings(max_examples=60, deadline=None)
def test_every_serve_completes_or_fails_at_a_boundary(serve):
    requests, policy, kv = serve
    recorder = RunRecorder()
    with deadline(30):
        try:
            run = simulate_serving(requests, GPT2, _LATENCY, policy=policy,
                                   kv=kv, recorder=recorder)
        except (SimulationError, ConfigurationError):
            return
    served = sorted(o.request.request_id for o in run.outcomes)
    assert served == sorted(r.request_id for r in requests)
    capacity = run.kv[0].capacity_blocks
    errors = [f for f in check_kv_events(recorder.kv_events, capacity)
              if f.severity is Severity.ERROR]
    assert not errors, errors[0].render()
