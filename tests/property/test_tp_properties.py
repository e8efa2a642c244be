"""Property tests for the simulation core and tensor parallelism.

The load-bearing lock is TP=1 parity: the event-driven core must
reproduce the legacy single-threaded executor's trace bit-for-bit, which
is what keeps every golden (Fig. 6, Fig. 8, Table V) valid after the
refactor. The legacy executor's traces for the whole finite case space
(3 models x 2 platforms x 4 batch sizes x 3 lengths x 3 modes) are frozen
as digests in ``tests/golden/data/legacy_engine_digests.json``.
"""

import hashlib
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, ExecutionMode, TPConfig, run
from repro.hardware import GH200, INTEL_H100
from repro.hardware.interconnect import InterconnectSpec
from repro.sim import LinkResource
from repro.skip import compute_metrics
from repro.workloads import BERT_BASE, GPT2, LLAMA_3_2_1B
from tests.golden.conftest import DATA_DIR

FAST = EngineConfig(iterations=1)
MODELS = [BERT_BASE, GPT2, LLAMA_3_2_1B]
MODES = [ExecutionMode.EAGER, ExecutionMode.COMPILE_DEFAULT,
         ExecutionMode.COMPILE_REDUCE_OVERHEAD]

#: Every TP=1 case of the frozen corpus, one id per digest.
CASES = [
    pytest.param(model, platform, batch_size, seq_len, mode,
                 id=f"{model.name}-{platform.name}-{batch_size}-{seq_len}-"
                    f"{mode.value}")
    for model, platform, batch_size, seq_len, mode in itertools.product(
        MODELS, [INTEL_H100, GH200], [1, 2, 8, 32], [16, 64, 256], MODES)
]
FIXTURE = DATA_DIR / "legacy_engine_digests.json"


def _events(trace):
    """Every comparable field of every event, in a canonical order."""
    ops = [(o.name, o.ts, o.dur, o.tid) for o in trace.operators]
    calls = [(c.name, c.ts, c.dur, c.tid, c.correlation_id)
             for c in trace.runtime_calls]
    kernels = [(k.name, k.ts, k.dur, k.stream, k.device, k.correlation_id,
                k.flops, k.bytes_moved) for k in trace.kernels]
    marks = [(m.index, m.ts, m.ts_end) for m in trace.iterations]
    return ops, calls, kernels, marks


def digest(trace) -> str:
    """Hash of a trace's events and metadata; ``repr`` of a float
    round-trips exactly, so equal digests mean equal floats."""
    state = (_events(trace), trace.metadata)
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def frozen_digests():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("model,platform,batch_size,seq_len,mode", CASES)
def test_tp1_trace_identical_to_legacy_executor(model, platform, batch_size,
                                                seq_len, mode, request,
                                                frozen_digests):
    trace = run(model, platform, batch_size=batch_size, seq_len=seq_len,
                mode=mode, config=FAST, tp=TPConfig(degree=1)).trace
    assert digest(trace) == frozen_digests[request.node.callspec.id]


@given(
    bandwidth=st.floats(1.0, 1000.0),
    latency=st.floats(0.0, 10_000.0),
    small=st.floats(1.0, 1e8),
    growth=st.floats(1.0, 100.0),
    world=st.integers(2, 16),
)
@settings(max_examples=100, deadline=None)
def test_allreduce_monotone_in_message_size(bandwidth, latency, small,
                                            growth, world):
    link = LinkResource(spec=InterconnectSpec(
        name="t", bandwidth_gbs=bandwidth, base_latency_ns=latency,
        submission_ns=0.0))
    assert (link.allreduce_ns(small * growth, world)
            >= link.allreduce_ns(small, world))


@given(
    bandwidth=st.floats(1.0, 1000.0),
    speedup=st.floats(1.0, 100.0),
    message=st.floats(1.0, 1e9),
    world=st.integers(2, 16),
)
@settings(max_examples=100, deadline=None)
def test_allreduce_non_increasing_in_bandwidth(bandwidth, speedup, message,
                                               world):
    def at(gbs):
        return LinkResource(spec=InterconnectSpec(
            name="t", bandwidth_gbs=gbs, base_latency_ns=1000.0,
            submission_ns=0.0)).allreduce_ns(message, world)

    assert at(bandwidth * speedup) <= at(bandwidth)


@given(
    model=st.sampled_from([BERT_BASE, GPT2]),
    batch_size=st.sampled_from([1, 4, 16]),
    degree=st.sampled_from([2, 4]),
)
@settings(max_examples=10, deadline=None)
def test_per_device_tklqt_sums_to_aggregate(model, batch_size, degree):
    result = run(model, INTEL_H100, batch_size=batch_size, seq_len=64,
                 config=FAST, tp=TPConfig(degree=degree))
    metrics = compute_metrics(result.trace)
    assert len(metrics.devices) == degree
    assert math.isclose(sum(d.tklqt_ns for d in metrics.devices),
                        metrics.tklqt_ns, rel_tol=1e-9)
    assert math.isclose(sum(d.kernel_launches for d in metrics.devices),
                        metrics.kernel_launches, rel_tol=1e-9)
    assert math.isclose(sum(d.gpu_busy_ns for d in metrics.devices),
                        metrics.gpu_busy_ns, rel_tol=1e-9)
