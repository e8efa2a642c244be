"""Parity locks for every simulator fast path.

Each optimization this package measures (lowering cache, repeated-layer
build and lowering, tape metrics, the scalar pricing pass, slimmed event
queue, process-pool sweeps) must be *invisible* in the results: same
floats, same orderings, same outcomes.
These tests run the fast path and its reference path on identical inputs
and assert bit-identical output — not approximate, not statistical.
"""

import dataclasses

import pytest

from repro.analysis.sweep import DEFAULT_BATCH_SIZES
from repro.engine import EngineConfig, ExecutionMode, TPConfig
from repro.engine.cache import LOWERING_CACHE, LoweringCache
from repro.engine.compiler import apply_inductor_fusion
from repro.engine.executor import build_core, run
from repro.engine.lowering import lower_graph, lower_op
from repro.engine.pp import (
    PPConfig,
    microbatch_lowered,
    partition_lowered,
)
from repro.engine.pricing import price_step
from repro.engine.processes import _CHILD_OP_NAMES, _op_plans, kernel_duration
from repro.engine.tp import TP_DISABLED, shard_lowered
from repro.errors import ConfigurationError, SimulationError
from repro.hardware import PAPER_PLATFORMS, get_platform
from repro.kvcache import KvPolicy
from repro.serving import LatencyModel
from repro.sim.core import SimCore
from repro.sim.queue import EventQueue
from repro.skip.metrics import compute_metrics, metrics_from_tape
from repro.workloads import PAPER_MODELS, build_graph, get_model
from repro.workloads.builder import (
    AttentionImpl,
    _decoder_layer,
    _encoder_layer,
    _repeat_layer,
    build_compact_graph,
)
from repro.workloads.catalog import ALL_MODELS
from repro.workloads.config import Arch
from repro.workloads.graph import OperatorGraph, Phase
from repro.workloads.ops import Op
from tests import scenarios

INTEL_H100 = get_platform("Intel+H100")
GPT2 = get_model("gpt2")
LLAMA = get_model("llama-3.2-1b")


class ReferenceEventQueue(EventQueue):
    """The reference for the slimmed queue path: the same FIFO tie-break
    in a subclass, which steers ``SimCore.run`` off its direct-heap loop
    onto the generic one (one ``pop_entry`` call per event)."""


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
    # Both cores drained the same number of events, the slow one through
    # the queue under test.
    assert slow.core._queue is reference
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
    return stages, build_core(tp, pp), tp.degree


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


@pytest.mark.parametrize("model,phase,attention", list(_catalog_graphs()))
def test_build_graph_expands_the_compact_form(model, phase, attention):
    graph = _graph(model, phase, attention)
    context_len = CONTEXT if phase is Phase.DECODE else None
    compact = build_compact_graph(model, BATCH, SEQ, phase=phase,
                                  attention=attention,
                                  context_len=context_len)
    span = graph.layer_span
    assert (compact.count, len(compact.layer)) == (span.count, span.width)
    pieces = (compact.head, compact.layer, compact.tail)
    expected = (graph.ops[:span.start],
                graph.ops[span.start:span.start + span.width],
                graph.ops[span.end:])
    for piece, ops in zip(pieces, expected):
        assert [vars(op) for op in piece] == [vars(op) for op in ops]
    expanded = compact.expand()
    assert expanded.layer_span == span
    assert ((expanded.model_name, expanded.phase, expanded.batch_size,
             expanded.seq_len)
            == (graph.model_name, graph.phase, graph.batch_size,
                graph.seq_len))
    assert [vars(op) for op in expanded.ops] == [vars(op) for op in graph.ops]


# ---------------------------------------------------------------------------
# Scalar pricing pass: LatencyModel misses without an engine run
# ---------------------------------------------------------------------------

PRICING_PLATFORMS = [get_platform(name) for name in
                     ("AMD+A100", "Intel+H100", "GH200", "MI300A")]
#: (batch, prefill length or decode context length).
PRICING_SHAPES = [(1, 1), (3, 700), (128, 4096)]
PRICING_CONFIGS = [
    EngineConfig(),
    EngineConfig(iterations=1),
    # Warm-up, a 48-deep launch queue (every model launches more kernels
    # than that per iteration, so the backlog branch runs) and a stream gap
    # longer than the first kernel's arrival (so the first kernel's
    # gap-free start shows).
    EngineConfig(iterations=2, warmup_iterations=1, launch_queue_depth=48,
                 stream_kernel_gap_ns=50_000.0),
    # The same queue and gap with one measured iteration: the GPU runs so
    # far behind that root ops end inexactly (cpu > 2 * ts) inside measured
    # iterations, where the root proof must fall back to the stack.
    EngineConfig(iterations=1, launch_queue_depth=48,
                 stream_kernel_gap_ns=50_000.0),
]


def _pricing_cases():
    for model in ALL_MODELS:
        phases = [Phase.PREFILL]
        if model.arch is not Arch.ENCODER_ONLY:
            phases.append(Phase.DECODE)
        for phase in phases:
            for mode in (ExecutionMode.EAGER, ExecutionMode.FLASH_ATTENTION):
                yield pytest.param(
                    model, phase, mode,
                    id=f"{model.name}-{phase.value}-{mode.value}")


def _step_args(phase, length):
    """(seq_len, context_len) of a prefill of ``length`` tokens or a decode
    step at KV length ``length``."""
    return (length, None) if phase is Phase.PREFILL else (1, length)


def _tape_metrics(model, platform, batch, phase, length, mode, config,
                  tp=None, pp=None):
    seq_len, context_len = _step_args(phase, length)
    result = run(model, platform, batch_size=batch, seq_len=seq_len,
                 phase=phase, context_len=context_len, mode=mode,
                 config=config, tp=tp, pp=pp, tape=True)
    metrics = metrics_from_tape(result.tape)
    return metrics.inference_latency_ns, metrics.cpu_busy_ns


@pytest.mark.parametrize("model,phase,mode", list(_pricing_cases()))
def test_pricing_pass_matches_tape_metrics(model, phase, mode):
    for platform in PRICING_PLATFORMS:
        for batch, length in PRICING_SHAPES:
            seq_len, context_len = _step_args(phase, length)
            for config in PRICING_CONFIGS:
                priced = price_step(model, platform, batch, seq_len, phase,
                                    context_len, mode, config)
                assert priced == _tape_metrics(model, platform, batch, phase,
                                               length, mode, config), (
                    platform.name, batch, length, config)


@pytest.mark.parametrize("extra", [0, 1], ids=["depth", "depth+1"])
def test_pricing_pass_at_the_launch_queue_bound(extra):
    """A run of exactly ``launch_queue_depth`` kernels never waits on the
    launch queue; one kernel more makes the last launch wait for the first
    kernel to start. A 5 ms launch path keeps the first kernel unstarted
    past the last launch, so the wait moves both metrics."""
    platform = dataclasses.replace(INTEL_H100, driver_launch_ns=5e6)
    args = (GPT2, platform, 2, 64, Phase.PREFILL, None, ExecutionMode.EAGER)
    one_pass = EngineConfig(iterations=1)
    kernels = len(run(*args[:2], batch_size=2, seq_len=64, config=one_pass,
                      tape=True).tape.launches)
    config = EngineConfig(iterations=1, launch_queue_depth=kernels - extra)
    priced = price_step(*args, config)
    assert priced == _tape_metrics(GPT2, platform, 2, Phase.PREFILL, 64,
                                   ExecutionMode.EAGER, config)
    assert (priced == price_step(*args, one_pass)) is (extra == 0)


def test_priced_run_is_the_pricing_pass():
    for phase, length in ((Phase.PREFILL, 200), (Phase.DECODE, 300)):
        seq_len, context_len = _step_args(phase, length)
        assert run(LLAMA, INTEL_H100, batch_size=4, seq_len=seq_len,
                   phase=phase, context_len=context_len,
                   mode=ExecutionMode.FLASH_ATTENTION,
                   priced=True) == price_step(
            LLAMA, INTEL_H100, 4, seq_len, phase, context_len,
            ExecutionMode.FLASH_ATTENTION, EngineConfig())


def test_priced_run_raises_what_the_stream_raises():
    with pytest.raises(ConfigurationError, match="stream_kernel_gap_ns"):
        EngineConfig(stream_kernel_gap_ns=-1.0)
    # Forced past the config's guard, both paths still refuse the gap
    # with the stream's own check, which price_step repeats.
    config = EngineConfig()
    object.__setattr__(config, "stream_kernel_gap_ns", -1.0)
    with pytest.raises(SimulationError, match="gap must be non-negative"):
        _tape_metrics(GPT2, INTEL_H100, 1, Phase.PREFILL, 8,
                      ExecutionMode.EAGER, config)
    with pytest.raises(SimulationError, match="gap must be non-negative"):
        run(GPT2, INTEL_H100, seq_len=8, config=config, priced=True)


@pytest.mark.parametrize("kwargs", [
    pytest.param(dict(mode=ExecutionMode.COMPILE_DEFAULT), id="compiled"),
    pytest.param(dict(tp=TPConfig(degree=2)), id="tp2"),
    pytest.param(dict(pp=PPConfig(stages=2)), id="pp2"),
    pytest.param(dict(tape=True), id="tape"),
])
def test_priced_run_refuses_what_the_pass_does_not_cover(kwargs):
    with pytest.raises(ConfigurationError, match="priced run"):
        run(LLAMA, INTEL_H100, priced=True, **kwargs)
    with pytest.raises(ConfigurationError, match="priced run"):
        run(build_graph(GPT2, 1, 8), INTEL_H100, priced=True)


LATENCY_MODEL_CONFIGS = [
    pytest.param(dict(mode=ExecutionMode.EAGER), id="eager"),
    pytest.param(dict(mode=ExecutionMode.EAGER, tp=TPConfig(degree=2)),
                 id="tp2"),
    pytest.param(dict(mode=ExecutionMode.EAGER,
                      pp=PPConfig(stages=2, microbatches=2)), id="pp2"),
    pytest.param(dict(mode=ExecutionMode.COMPILE_DEFAULT),
                 id="compile-default"),
    pytest.param(dict(mode=ExecutionMode.COMPILE_REDUCE_OVERHEAD),
                 id="compile-reduce-overhead"),
]


@pytest.mark.parametrize("kwargs", LATENCY_MODEL_CONFIGS)
def test_latency_model_matches_tape_run(kwargs):
    model = LatencyModel(INTEL_H100, **kwargs)
    config = model.engine_config
    for phase, length in ((Phase.PREFILL, 200), (Phase.DECODE, 300)):
        expected = _tape_metrics(LLAMA, INTEL_H100, 4, phase, length,
                                 config=config, **kwargs)
        if phase is Phase.PREFILL:
            got = (model.ttft_ns(LLAMA, 4, length),
                   model.ttft_cpu_ns(LLAMA, 4, length))
        else:
            got = (model.decode_step_ns(LLAMA, 4, length),
                   model.decode_step_cpu_ns(LLAMA, 4, length))
        assert got == expected
