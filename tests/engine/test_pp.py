"""Pipeline-parallel partitioning, topology, and executor integration.

The PP subsystem has three locks: ``pp=1`` never leaves the single-core
executor path (bit-parity with a run that never heard of PP), partitions
are exact contiguous covers of the lowered stream, and GPipe microbatching
actually pipelines — latency falls toward the ``(1 + (S-1)/M) / S`` ideal
on a GPU-bound shape while the traces stay lint-clean.
"""

import pytest

from repro.check import lint_trace
from repro.engine import (
    DispatchMode,
    EngineConfig,
    ExecutionMode,
    PP_STAGE_CACHE,
    PPConfig,
    TPConfig,
    partition_lowered,
    stage_boundary_bytes,
)
from repro.engine.executor import run
from repro.engine.lowering import lower_graph
from repro.engine.pp import PPStageCache, microbatch_lowered, validate_pp
from repro.errors import ConfigurationError
from repro.hardware import GH200
from repro.workloads import GPT2, build_graph, get_model

CONFIG = EngineConfig(iterations=1)


@pytest.fixture(scope="module")
def lowered():
    return lower_graph(build_graph(GPT2, batch_size=1, seq_len=64))


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_pp_config_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        PPConfig(stages=0)
    with pytest.raises(ConfigurationError):
        PPConfig(stages=2, microbatches=0)
    assert not PPConfig(stages=1).enabled
    assert PPConfig(stages=2).enabled


def test_validate_pp_rejects_more_stages_than_ops(lowered):
    with pytest.raises(ConfigurationError, match="would be empty"):
        validate_pp(PPConfig(stages=len(lowered) + 1), len(lowered), "gpt2")
    validate_pp(PPConfig(stages=2), len(lowered), "gpt2")  # fine


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stages", [1, 2, 3, 4])
def test_partition_is_a_contiguous_cover(lowered, stages):
    parts = partition_lowered(lowered, stages)
    assert len(parts) == stages
    assert all(part for part in parts)  # every stage non-empty
    flattened = [op for part in parts for op in part]
    assert flattened == list(lowered)   # same objects, same order


def test_partition_balances_kernel_work(lowered):
    from repro.engine.pp import _op_weight

    parts = partition_lowered(lowered, 2)
    weights = [sum(_op_weight(lo) for lo in part) for part in parts]
    total = sum(weights)
    # The greedy split lands within one op's weight of the ideal half, so
    # neither stage hoards more than ~2/3 of the work on a real model.
    assert max(weights) / total < 0.67


def test_partition_rejects_empty_stages(lowered):
    with pytest.raises(ConfigurationError):
        partition_lowered(lowered, len(lowered) + 1)
    with pytest.raises(ConfigurationError):
        partition_lowered(lowered, 0)


def test_stage_boundary_bytes_is_last_kernel_ops_output(lowered):
    parts = partition_lowered(lowered, 2)
    for part in parts:
        expected = next(lo.op.bytes_written for lo in reversed(part)
                        if lo.kernels)
        assert stage_boundary_bytes(part) == expected
    assert stage_boundary_bytes([]) == 0.0


def test_microbatch_divides_every_work_term(lowered):
    quarters = microbatch_lowered(lowered, 4)
    for original, sliced in zip(lowered, quarters):
        assert original.op is sliced.op
        for k_full, k_part in zip(original.kernels, sliced.kernels):
            assert k_part.flops == k_full.flops / 4
            assert k_part.bytes_read == k_full.bytes_read / 4
            assert k_part.bytes_written == k_full.bytes_written / 4
            assert k_part.comm_bytes == k_full.comm_bytes / 4
    assert microbatch_lowered(lowered, 1) is lowered


def test_stage_cache_hits_and_evicts(lowered):
    cache = PPStageCache(max_entries=2)
    first = cache.partition(("a",), lowered, 2)
    assert cache.partition(("a",), lowered, 2) is first
    assert (cache.hits, cache.misses) == (1, 1)
    cache.partition(("b",), lowered, 2)
    cache.partition(("c",), lowered, 2)   # evicts "a" (FIFO)
    cache.partition(("a",), lowered, 2)
    assert cache.misses == 4
    cache.clear()
    assert (cache.hits, cache.misses) == (0, 0)


# ----------------------------------------------------------------------
# Executor integration
# ----------------------------------------------------------------------
def _latency_ns(result):
    mark = result.trace.iterations[0]
    return mark.ts_end - mark.ts


def test_pp1_is_bit_identical_to_no_pp():
    from tests.perf.test_fastpath_parity import _trace_values

    plain = run(GPT2, GH200, batch_size=2, seq_len=128,
                mode=ExecutionMode.EAGER, config=CONFIG)
    pp1 = run(GPT2, GH200, batch_size=2, seq_len=128,
              mode=ExecutionMode.EAGER, config=CONFIG, pp=PPConfig(stages=1))
    assert _trace_values(pp1.trace) == _trace_values(plain.trace)


def test_pp2_trace_is_lint_clean_and_tagged():
    result = run(GPT2, GH200, batch_size=2, seq_len=128,
                 mode=ExecutionMode.EAGER, config=CONFIG,
                 pp=PPConfig(stages=2, microbatches=2))
    assert lint_trace(result.trace) == []
    assert result.pp.stages == 2
    assert result.trace.metadata["pp_stages"] == 2
    assert result.trace.metadata["pp_microbatches"] == 2
    devices = {k.device for k in result.trace.kernels}
    assert devices == {0, 1}


def test_pp_composes_with_tp():
    result = run(GPT2, GH200, batch_size=2, seq_len=128,
                 mode=ExecutionMode.EAGER, config=CONFIG,
                 tp=TPConfig(degree=2), pp=PPConfig(stages=2, microbatches=2))
    assert lint_trace(result.trace) == []
    devices = {k.device for k in result.trace.kernels}
    assert devices == {0, 1, 2, 3}  # stage-major: 2 stages x 2 shards


def test_microbatching_pipelines_a_gpu_bound_shape():
    """GPipe's point: latency falls toward (1 + (S-1)/M) / S of the
    unpipelined run once microbatches overlap stages."""
    model = get_model("llama-2-7b")
    kwargs = dict(batch_size=8, seq_len=2048, mode=ExecutionMode.EAGER,
                  config=CONFIG)
    base = _latency_ns(run(model, GH200, **kwargs))
    serial = _latency_ns(run(model, GH200, pp=PPConfig(stages=2), **kwargs))
    piped = _latency_ns(run(model, GH200,
                            pp=PPConfig(stages=2, microbatches=4), **kwargs))
    # One microbatch cannot pipeline: both stages run back-to-back.
    assert serial == pytest.approx(base, rel=0.05)
    # Four microbatches overlap the stages; ideal is 62.5% of base.
    assert piped < 0.75 * base


def test_pp_run_uses_the_stage_cache():
    PP_STAGE_CACHE.clear()
    kwargs = dict(batch_size=2, seq_len=128, mode=ExecutionMode.EAGER,
                  config=CONFIG, pp=PPConfig(stages=2))
    run(GPT2, GH200, **kwargs)
    misses = PP_STAGE_CACHE.misses
    run(GPT2, GH200, **kwargs)
    assert PP_STAGE_CACHE.misses == misses
    assert PP_STAGE_CACHE.hits >= 1


def test_pp_rejects_cuda_graph_modes():
    with pytest.raises(ConfigurationError, match="graph"):
        run(GPT2, GH200, batch_size=2, seq_len=128,
            mode=ExecutionMode.COMPILE_REDUCE_OVERHEAD, config=CONFIG,
            pp=PPConfig(stages=2))


def test_pp_rejects_thread_per_device_tp():
    with pytest.raises(ConfigurationError):
        run(GPT2, GH200, batch_size=2, seq_len=128,
            mode=ExecutionMode.EAGER, config=CONFIG,
            tp=TPConfig(degree=2, dispatch=DispatchMode.THREAD_PER_DEVICE),
            pp=PPConfig(stages=2))
