"""Parity locks for every simulator fast path.

Each optimization this package measures (lowering cache, repeated-layer
build and lowering, tape metrics, slimmed event queue, process-pool
sweeps) must be *invisible* in the results: same floats, same orderings,
same outcomes.
These tests run the fast path and its reference path on identical inputs
and assert bit-identical output — not approximate, not statistical.
"""

import pytest

from repro.analysis.sweep import DEFAULT_BATCH_SIZES
from repro.engine import EngineConfig, ExecutionMode, TPConfig
from repro.engine.cache import LOWERING_CACHE, LoweringCache
from repro.engine.compiler import apply_inductor_fusion
from repro.engine.executor import build_core, run
from repro.engine.lowering import lower_graph, lower_op
from repro.engine.pp import (
    PPConfig,
    build_core_pp,
    microbatch_lowered,
    partition_lowered,
)
from repro.engine.processes import _CHILD_OP_NAMES, _op_plans, kernel_duration
from repro.engine.tp import TP_DISABLED, shard_lowered
from repro.hardware import PAPER_PLATFORMS, get_platform
from repro.kvcache import KvPolicy
from repro.sim.core import SimCore
from repro.sim.queue import EventQueue, ReferenceEventQueue
from repro.skip.metrics import compute_metrics, metrics_from_tape
from repro.workloads import PAPER_MODELS, build_graph, get_model
from repro.workloads.builder import (
    AttentionImpl,
    _decoder_layer,
    _encoder_layer,
    _repeat_layer,
)
from repro.workloads.catalog import ALL_MODELS
from repro.workloads.config import Arch
from repro.workloads.graph import OperatorGraph, Phase
from repro.workloads.ops import Op
from tests import scenarios

INTEL_H100 = get_platform("Intel+H100")
GPT2 = get_model("gpt2")
LLAMA = get_model("llama-3.2-1b")


def _trace_values(trace):
    """A trace's observable content, independent of global event-id draws.

    Event ids are allocation-order artifacts (a cached run skips the
    build/lower draws a fresh run performs, shifting every subsequent id),
    so parity compares everything *but* the ids — and the correlation ids
    derived from them — plus the launch→kernel pairing they encode.
    """
    kernels_by_corr = {k.correlation_id: k for k in trace.kernels}
    pairs = []
    for call in trace.runtime_calls:
        kernel = kernels_by_corr.get(call.correlation_id)
        if kernel is not None:
            pairs.append((call.name, call.ts, kernel.name, kernel.ts))
    return (
        [(o.name, o.ts, o.dur, o.tid, o.seq) for o in trace.operators],
        [(r.name, r.ts, r.dur, r.tid) for r in trace.runtime_calls],
        [(k.name, k.ts, k.dur, k.stream, k.device, k.flops, k.bytes_moved)
         for k in trace.kernels],
        [(m.index, m.ts, m.ts_end) for m in trace.iterations],
        pairs,
    )


CONFIGS = [
    pytest.param(dict(mode=ExecutionMode.EAGER, batch_size=4), id="eager"),
    pytest.param(dict(mode=ExecutionMode.COMPILE_REDUCE_OVERHEAD,
                      batch_size=2), id="graph-replay"),
    pytest.param(dict(mode=ExecutionMode.EAGER, batch_size=2,
                      tp=TPConfig(degree=2)), id="tp2"),
]


@pytest.mark.parametrize("kwargs", CONFIGS)
def test_lowering_cache_hit_is_bit_identical(kwargs):
    LOWERING_CACHE.clear()
    with LOWERING_CACHE.disabled():
        fresh = run(GPT2, INTEL_H100, seq_len=256, **kwargs)
    cold = run(GPT2, INTEL_H100, seq_len=256, **kwargs)   # populates
    warm = run(GPT2, INTEL_H100, seq_len=256, **kwargs)   # hits
    assert LOWERING_CACHE.stats.graph_hits >= 1
    assert LOWERING_CACHE.stats.lowering_hits >= 1
    for cached in (cold, warm):
        assert _trace_values(cached.trace) == _trace_values(fresh.trace)
        assert compute_metrics(cached.trace) == compute_metrics(fresh.trace)


def test_cache_bound_keeps_every_skip_sweep_hit(monkeypatch):
    """The characterization sweep's lookups, in its order (model, then
    platform, then BS 1…128), hit as often under the default bound as in
    an unbounded cache. Only the eager profiles look up: the fused
    re-profile carries a fusion plan and bypasses the cache. The key holds
    no platform, so the second and third platforms hit."""
    monkeypatch.setattr("repro.engine.cache.build_graph",
                        lambda *args, **kwargs: object())
    monkeypatch.setattr("repro.engine.cache.lower_graph", lambda graph: [])
    bounded, unbounded = LoweringCache(), LoweringCache(max_entries=10**9)
    for cache in (bounded, unbounded):
        for model in PAPER_MODELS:
            for _platform in PAPER_PLATFORMS:
                for batch in DEFAULT_BATCH_SIZES:
                    key = (model, batch, 512, Phase.PREFILL,
                           AttentionImpl.EAGER, None)
                    cache.lowering(key, cache.graph(*key),
                                   ExecutionMode.EAGER)
    assert bounded.stats == unbounded.stats
    stats = bounded.stats
    assert stats.lowering_hits == 2 * stats.lowering_misses


@pytest.mark.parametrize("kwargs", CONFIGS)
def test_tape_metrics_match_full_trace_metrics(kwargs):
    full = run(GPT2, INTEL_H100, seq_len=256, **kwargs)
    taped = run(GPT2, INTEL_H100, seq_len=256, tape=True, **kwargs)
    assert taped.trace is None and taped.tape is not None
    assert metrics_from_tape(taped.tape) == compute_metrics(full.trace)


@pytest.mark.parametrize("kwargs", CONFIGS)
def test_slimmed_queue_matches_reference_queue(kwargs, monkeypatch):
    fast = run(GPT2, INTEL_H100, seq_len=256, **kwargs)
    assert type(fast.core._queue) is EventQueue

    reference = ReferenceEventQueue()
    monkeypatch.setattr(
        "repro.engine.executor.SimCore",
        lambda causality=None: SimCore(queue=reference,
                                       causality=causality))
    slow = run(GPT2, INTEL_H100, seq_len=256, **kwargs)
    assert _trace_values(slow.trace) == _trace_values(fast.trace)
    assert compute_metrics(slow.trace) == compute_metrics(fast.trace)
    # Both cores drained the same number of events, every one through the
    # queue under test.
    assert reference.popped == slow.core.events_processed
    assert slow.core.events_processed == fast.core.events_processed


def test_serving_on_reference_queue_is_bit_identical(monkeypatch):
    _, fast = scenarios.pressured_run(get_platform("GH200"),
                                      KvPolicy.OFFLOAD)
    monkeypatch.setattr(
        "repro.serving.runtime.SimCore",
        lambda queue=None, causality=None: SimCore(
            queue=ReferenceEventQueue(), causality=causality))
    _, slow = scenarios.pressured_run(get_platform("GH200"),
                                      KvPolicy.OFFLOAD)
    assert slow.outcomes == fast.outcomes
    assert slow.kv == fast.kv
    assert slow.throughput_tokens_per_s == fast.throughput_tokens_per_s


def test_sweep_jobs_parity():
    from repro.analysis.sweep import run_batch_sweep

    kwargs = dict(batch_sizes=(1, 4), seq_len=128,
                  engine_config=EngineConfig(iterations=1))
    serial = run_batch_sweep(LLAMA, [INTEL_H100, get_platform("GH200")],
                             **kwargs)
    pooled = run_batch_sweep(LLAMA, [INTEL_H100, get_platform("GH200")],
                             jobs=4, **kwargs)
    assert pooled.batch_sizes == serial.batch_sizes
    assert pooled.points == serial.points


# ---------------------------------------------------------------------------
# Repeated layers: built as copies of layer 0, lowered once
# ---------------------------------------------------------------------------

BATCH, SEQ, CONTEXT = 2, 64, 96


def _catalog_graphs():
    for model in ALL_MODELS:
        phases = [Phase.PREFILL]
        if model.arch is not Arch.ENCODER_ONLY:
            phases.append(Phase.DECODE)
        for phase in phases:
            for attention in AttentionImpl:
                yield pytest.param(
                    model, phase, attention,
                    id=f"{model.name}-{phase.value}-{attention.value}")


def _graph(model, phase, attention):
    context_len = CONTEXT if phase is Phase.DECODE else None
    return build_graph(model, BATCH, SEQ, phase=phase, attention=attention,
                       context_len=context_len)


def _per_layer_reference(graph, model, phase, attention):
    """``graph`` with every layer built by the op factories, one by one."""
    span = graph.layer_span
    reference = OperatorGraph(graph.model_name, graph.phase,
                              graph.batch_size, graph.seq_len)
    reference.extend(graph.ops[:span.start])
    for layer in range(model.layers):
        if model.arch is Arch.ENCODER_ONLY:
            _encoder_layer(reference, model, BATCH, SEQ, layer, attention)
        elif phase is Phase.DECODE:
            _decoder_layer(reference, model, BATCH, 1, CONTEXT, layer, phase,
                           attention)
        else:
            _decoder_layer(reference, model, BATCH, SEQ, SEQ, layer, phase,
                           attention)
    reference.extend(graph.ops[span.end:])
    return reference


@pytest.mark.parametrize("model,phase,attention", list(_catalog_graphs()))
def test_build_graph_matches_per_layer_reference(model, phase, attention):
    graph = _graph(model, phase, attention)
    span = graph.layer_span
    assert span.count == model.layers
    reference = _per_layer_reference(graph, model, phase, attention)
    assert all(type(op) is Op for op in graph.ops)
    assert [vars(op) for op in graph.ops] == [vars(op) for op in reference]


@pytest.mark.parametrize("model,phase,attention", list(_catalog_graphs()))
def test_lower_graph_matches_per_op_lowering(model, phase, attention):
    graph = _graph(model, phase, attention)
    lowered = lower_graph(graph)
    assert [lo.op for lo in lowered] == list(graph.ops)
    assert [lo.kernels for lo in lowered] == [lower_op(op).kernels
                                              for op in graph.ops]


@pytest.mark.parametrize("model,phase,attention", list(_catalog_graphs()))
def test_identical_layers_share_one_kernel_tuple(model, phase, attention):
    """Every copy holds the template layer's *own* tuples, not equal ones:
    a cached lowering keeps one tuple per op of one layer."""
    graph = _graph(model, phase, attention)
    span = graph.layer_span
    lowered = lower_graph(graph)
    template = lowered[span.start:span.start + span.width]
    for base in range(span.start + span.width, span.end, span.width):
        copies = lowered[base:base + span.width]
        assert all(copy.kernels is lo.kernels
                   for copy, lo in zip(copies, template))


def test_layer_copy_rejects_an_op_outside_layer_zero():
    built = _graph(LLAMA, Phase.DECODE, AttentionImpl.EAGER)
    span = built.layer_span
    graph = OperatorGraph(built.model_name, built.phase, built.batch_size,
                          built.seq_len)
    graph.extend(built.ops[:span.start + span.width])
    graph.append(built.ops[-1])  # the LM head, labelled outside any layer
    with pytest.raises(AssertionError, match="outside 'decoder.layer.0.'"):
        _repeat_layer(graph, span.start, "decoder.layer.", LLAMA.layers)


def test_graph_without_span_lowers_op_by_op():
    built = _graph(LLAMA, Phase.DECODE, AttentionImpl.EAGER)
    hand_built = OperatorGraph(built.model_name, built.phase,
                               built.batch_size, built.seq_len)
    hand_built.extend(built.ops)
    assert hand_built.layer_span is None
    lowered = lower_graph(hand_built)
    assert lowered == [lower_op(op) for op in hand_built.ops]
    assert lowered == lower_graph(built)
    tuples = [lo.kernels for lo in lowered if lo.kernels]
    assert len({id(kernels) for kernels in tuples}) == len(tuples)


def _reference_plans(lowered, core, platform, mode, config, world):
    """``_op_plans`` recomputed op by op, with no sharing."""
    fuses = mode.fuses_elementwise
    guard = config.compiled_guard_ns / platform.cpu.dispatch_score
    plans = []
    for lowered_op in lowered:
        op = lowered_op.op
        dispatch = guard if fuses else platform.dispatch_ns(op.dispatch_cost_ns)
        epilogue = dispatch * config.dispatch_epilogue_fraction
        child_name = _CHILD_OP_NAMES.get(op.kind)
        if not (child_name and lowered_op.kernels and not fuses):
            child_name = None
        kernels = tuple(
            (kernel,
             core.link.allreduce_ns(kernel.comm_bytes, world)
             if kernel.is_collective and world > 1
             else kernel_duration(platform, kernel),
             kernel.is_collective and world > 1)
            for kernel in lowered_op.kernels)
        plans.append((op.aten_name, dispatch, epilogue, dispatch - epilogue,
                      child_name, kernels))
    return plans


def _plan_inputs(mode, tp, pp):
    """(stage lowerings, core, per-stage world) as the executor builds them."""
    graph = build_graph(LLAMA, 2, 64)
    lowered = shard_lowered(apply_inductor_fusion(lower_graph(graph), mode),
                            tp)
    if pp is None:
        return [lowered], build_core(tp), tp.degree
    stages = [microbatch_lowered(stage, pp.microbatches)
              for stage in partition_lowered(lowered, pp.stages)]
    return stages, build_core_pp(tp, pp), tp.degree


PLAN_CONFIGS = [
    pytest.param(ExecutionMode.EAGER, TP_DISABLED, None, id="eager"),
    pytest.param(ExecutionMode.COMPILE_REDUCE_OVERHEAD, TP_DISABLED, None,
                 id="reduce-overhead"),
    pytest.param(ExecutionMode.EAGER, TPConfig(degree=2), None, id="tp2"),
    pytest.param(ExecutionMode.EAGER, TP_DISABLED,
                 PPConfig(stages=2, microbatches=2), id="pp2"),
]


@pytest.mark.parametrize("mode,tp,pp", PLAN_CONFIGS)
def test_op_plans_match_per_op_recomputation(mode, tp, pp):
    stages, core, world = _plan_inputs(mode, tp, pp)
    config = EngineConfig()
    for stage in stages:
        plans = _op_plans(stage, core, INTEL_H100, mode, config, world)
        assert plans == _reference_plans(stage, core, INTEL_H100, mode,
                                         config, world)


def test_op_plans_plan_each_distinct_operator_once():
    stages, core, world = _plan_inputs(ExecutionMode.EAGER, TP_DISABLED, None)
    (lowered,) = stages
    plans = _op_plans(lowered, core, INTEL_H100, ExecutionMode.EAGER,
                      EngineConfig(), world)
    distinct = {(lo.op.kind, id(lo.kernels)) for lo in lowered}
    assert len({id(plan) for plan in plans}) == len(distinct)
    assert len(distinct) < len(lowered) // 10
