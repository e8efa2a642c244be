"""Operator-kernel dependency graph construction (paper Section IV-A)."""

import pytest

from repro.engine import EngineConfig, ExecutionMode, run
from repro.errors import TraceError
from repro.hardware import INTEL_H100
from repro.skip import DependencyGraph
from repro.trace import (
    KernelEvent,
    LAUNCH_KERNEL,
    OperatorEvent,
    RuntimeEvent,
    Trace,
)
from repro.workloads import BERT_BASE, GPT2

FAST = EngineConfig(iterations=1)


@pytest.fixture(scope="module")
def bert_graph():
    result = run(BERT_BASE, INTEL_H100, batch_size=1, seq_len=128, config=FAST)
    return DependencyGraph.from_trace(result.trace)


def test_every_launch_resolved(bert_graph):
    assert all(r.kernel is not None for r in bert_graph.launches)
    assert all(r.operator is not None for r in bert_graph.launches)


def test_launches_in_time_order(bert_graph):
    timestamps = [r.call.ts for r in bert_graph.launches]
    assert timestamps == sorted(timestamps)


def test_nesting_depth_reflects_child_ops(bert_graph):
    # aten::linear wraps aten::addmm in the engine's traces.
    assert bert_graph.max_depth() >= 1
    child_names = {n.name for root in bert_graph.roots
                   for n in root.iter_subtree() if n.parent is not None}
    assert "aten::addmm" in child_names


def test_launch_attribution_to_child_op(bert_graph):
    addmm_launches = [r for r in bert_graph.launches
                      if r.operator and r.operator.name == "aten::addmm"]
    assert addmm_launches, "GEMM launches should attach to the child addmm"
    for record in addmm_launches:
        assert record.root_operator.name == "aten::linear"


def test_launch_and_queue_time_nonnegative(bert_graph):
    assert all(r.launch_and_queue_ns >= 0 for r in bert_graph.launches)


def test_operator_count_matches_trace(bert_graph):
    assert bert_graph.operator_count() == len(bert_graph.trace.operators)


def test_graph_kernels_tracked_separately():
    result = run(GPT2, INTEL_H100, batch_size=1, seq_len=128,
                 mode=ExecutionMode.COMPILE_REDUCE_OVERHEAD, config=FAST)
    graph = DependencyGraph.from_trace(result.trace)
    assert not graph.launches
    assert graph.graph_kernels
    assert [k.ts for k in graph.graph_kernels] == sorted(
        k.ts for k in graph.graph_kernels)


def test_missing_kernel_raises():
    trace = Trace()
    op = OperatorEvent(name="aten::add", ts=0.0, dur=10.0, tid=1, seq=0)
    call = RuntimeEvent(name=LAUNCH_KERNEL, ts=1.0, dur=1.0, tid=1,
                        correlation_id=5)
    trace.add(op)
    trace.add(call)
    trace.sort()
    with pytest.raises(TraceError):
        DependencyGraph.from_trace(trace)


def test_time_containment_parenting():
    """Hand-built trace: the paper's parent/child rule."""
    trace = Trace()
    outer = OperatorEvent(name="outer", ts=0.0, dur=100.0, tid=1, seq=0)
    inner = OperatorEvent(name="inner", ts=10.0, dur=20.0, tid=1, seq=1)
    sibling = OperatorEvent(name="sibling", ts=50.0, dur=10.0, tid=1, seq=2)
    call = RuntimeEvent(name=LAUNCH_KERNEL, ts=12.0, dur=1.0, tid=1,
                        correlation_id=1)
    kernel = KernelEvent(name="k", ts=20.0, dur=5.0, correlation_id=1)
    for event in (outer, inner, sibling, call, kernel):
        trace.add(event)
    trace.sort()
    graph = DependencyGraph.from_trace(trace)
    assert len(graph.roots) == 1
    root = graph.roots[0]
    assert {c.name for c in root.children} == {"inner", "sibling"}
    assert graph.launches[0].operator.name == "inner"


def test_separate_threads_do_not_nest():
    trace = Trace()
    trace.add(OperatorEvent(name="t1", ts=0.0, dur=100.0, tid=1, seq=0))
    trace.add(OperatorEvent(name="t2", ts=10.0, dur=10.0, tid=2, seq=1))
    trace.sort()
    graph = DependencyGraph.from_trace(trace)
    assert len(graph.roots) == 2
