"""Property-based tests for the execution engine on random operator graphs."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, run
from repro.errors import ConfigurationError
from repro.hardware import GH200, INTEL_H100
from repro.skip import DependencyGraph, compute_metrics
from repro.workloads import ops
from repro.workloads.graph import OperatorGraph, Phase
from repro.workloads.ops import OpKind

FAST = EngineConfig(iterations=1)

#: Every float field of EngineConfig: costs, gaps, fractions and a scale.
FLOAT_FIELDS = [f.name for f in dataclasses.fields(EngineConfig)
                if f.type == "float"]


@st.composite
def random_graphs(draw):
    """A random but well-formed operator stream."""
    count = draw(st.integers(1, 25))
    graph = OperatorGraph(model_name="random", phase=Phase.PREFILL,
                          batch_size=1, seq_len=16)
    for i in range(count):
        kind = draw(st.sampled_from(["linear", "matmul", "softmax", "norm",
                                     "elementwise", "copy", "view",
                                     "embedding"]))
        if kind == "linear":
            graph.append(ops.linear(f"op{i}", draw(st.integers(1, 256)),
                                    draw(st.integers(1, 512)),
                                    draw(st.integers(1, 512)),
                                    bias=draw(st.booleans())))
        elif kind == "matmul":
            graph.append(ops.matmul(f"op{i}", draw(st.integers(1, 8)),
                                    draw(st.integers(1, 128)),
                                    draw(st.integers(1, 128)),
                                    draw(st.integers(1, 128))))
        elif kind == "softmax":
            graph.append(ops.softmax(f"op{i}", draw(st.integers(1, 256)),
                                     draw(st.integers(1, 256))))
        elif kind == "norm":
            graph.append(ops.layernorm(f"op{i}", draw(st.integers(1, 128)),
                                       draw(st.integers(1, 512))))
        elif kind == "elementwise":
            graph.append(ops.elementwise(
                draw(st.sampled_from([OpKind.ADD, OpKind.MUL, OpKind.GELU])),
                f"op{i}", draw(st.integers(1, 10_000)),
                fanout=draw(st.integers(1, 4))))
        elif kind == "copy":
            graph.append(ops.reshape_copy(f"op{i}", draw(st.integers(1, 10_000))))
        elif kind == "view":
            graph.append(ops.transpose_view(f"op{i}", draw(st.integers(1, 100))))
        else:
            graph.append(ops.embedding(f"op{i}", draw(st.integers(1, 64)),
                                       draw(st.integers(1, 128)),
                                       draw(st.integers(1, 100_000))))
    return graph


@given(graph=random_graphs(), platform=st.sampled_from([INTEL_H100, GH200]))
@settings(max_examples=60, deadline=None)
def test_any_graph_produces_valid_trace(graph, platform):
    result = run(graph, platform, config=FAST)
    trace = result.trace
    trace.validate()
    # One launch per kernel; counts match the lowering.
    assert len(trace.launches) == len(trace.kernels)
    assert len(trace.kernels) == result.kernels_per_iteration
    # Dependency graph resolves completely.
    depgraph = DependencyGraph.from_trace(trace)
    assert all(r.operator is not None for r in depgraph.launches)


@given(graph=random_graphs())
@settings(max_examples=40, deadline=None)
def test_metric_invariants_on_random_graphs(graph):
    result = run(graph, INTEL_H100, config=FAST)
    if result.kernels_per_iteration == 0:
        return  # all-view graphs launch nothing; metrics reject them
    metrics = compute_metrics(result.trace)
    assert metrics.tklqt_ns >= (metrics.kernel_launches
                                * INTEL_H100.launch_latency_ns) - 1e-6
    assert metrics.inference_latency_ns > 0
    assert metrics.gpu_idle_ns >= -1e-6
    assert metrics.akd_ns >= INTEL_H100.gpu.min_kernel_ns - 1e-6


@given(graph=random_graphs())
@settings(max_examples=30, deadline=None)
def test_grace_never_dispatches_faster(graph):
    """GH200's CPU-side time dominates Intel's for identical streams."""
    intel = run(graph, INTEL_H100, config=FAST)
    gh200 = run(graph, GH200, config=FAST)
    intel_cpu = max(o.ts_end for o in intel.trace.operators)
    gh200_cpu = max(o.ts_end for o in gh200.trace.operators)
    assert gh200_cpu >= intel_cpu - 1e-6


def test_default_engine_config_constructs():
    assert len(FLOAT_FIELDS) == 9
    EngineConfig()


@given(name=st.sampled_from(FLOAT_FIELDS),
       value=st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                       st.floats(max_value=0.0, exclude_max=True)))
@settings(max_examples=100, deadline=None)
def test_engine_config_refuses_a_bad_float(name, value):
    """NaN, an infinity or a negative value fails at construction, not
    deep inside a run."""
    with pytest.raises(ConfigurationError, match=name):
        EngineConfig(**{name: value})
