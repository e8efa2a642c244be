"""Chain mining and proximity scores (Eq. 6)."""

import pytest

from repro.errors import AnalysisError
from repro.skip import kernel_segments, mine_chains, select_nonoverlapping
from repro.trace import KernelEvent, LAUNCH_KERNEL, RuntimeEvent, Trace


def test_simple_deterministic_pair():
    segments = [["a", "b", "c", "a", "b", "c"]]
    result = mine_chains(segments, 2)
    by_chain = {c.chain: c for c in result.chains}
    assert by_chain[("a", "b")].proximity_score == 1.0
    assert by_chain[("b", "c")].proximity_score == 1.0


def test_nondeterministic_anchor_scores_fractionally():
    # 'a' followed by 'b' twice and by 'c' once => PS(a,b) = 2/3.
    segments = [["a", "b", "a", "b", "a", "c"]]
    result = mine_chains(segments, 2)
    by_chain = {c.chain: c for c in result.chains}
    assert by_chain[("a", "b")].proximity_score == pytest.approx(2 / 3)
    assert by_chain[("a", "c")].proximity_score == pytest.approx(1 / 3)


def test_anchor_without_full_window_breaks_determinism():
    # Final 'a' has no following kernel, so PS(a,b) = 1/2, not 1.
    segments = [["a", "b", "a"]]
    result = mine_chains(segments, 2)
    by_chain = {c.chain: c for c in result.chains}
    assert by_chain[("a", "b")].proximity_score == pytest.approx(0.5)


def test_counts_aggregate_across_segments():
    segments = [["a", "b"], ["a", "b"], ["a", "b"]]
    result = mine_chains(segments, 2)
    assert result.total_instances == 3
    assert result.unique_candidates == 1
    assert result.chains[0].frequency == 3
    assert result.chains[0].anchor_frequency == 3


def test_longer_chains_have_fewer_instances():
    segment = list("abcdefgh") * 4
    short = mine_chains([segment], 2)
    long = mine_chains([segment], 8)
    assert short.total_instances > long.total_instances


def test_deterministic_filter_threshold():
    segments = [["a", "b", "a", "b", "a", "c"]]
    result = mine_chains(segments, 2)
    assert len(result.deterministic(1.0)) == 1  # only (b, a)
    assert len(result.deterministic(0.5)) >= 2


def test_deterministic_threshold_validation():
    result = mine_chains([["a", "b"]], 2)
    with pytest.raises(AnalysisError):
        result.deterministic(0.0)
    with pytest.raises(AnalysisError):
        result.deterministic(1.5)


def test_chain_length_validation():
    with pytest.raises(AnalysisError):
        mine_chains([["a", "b"]], 1)
    with pytest.raises(AnalysisError):
        mine_chains([], 2)


def test_select_nonoverlapping_greedy():
    segment = ["a", "b", "a", "b", "a", "b"]
    selected = select_nonoverlapping(segment, [("a", "b")])
    assert [start for start, _ in selected] == [0, 2, 4]


def test_select_prefers_longer_chain():
    segment = ["a", "b", "c", "d"]
    selected = select_nonoverlapping(segment, [("a", "b"), ("a", "b", "c")])
    assert selected[0][1] == ("a", "b", "c")


def test_select_with_no_chains():
    assert select_nonoverlapping(["a", "b"], []) == []


def test_kernel_segments_from_engine_trace(gpt2_profile):
    segments = kernel_segments(gpt2_profile.trace)
    assert len(segments) == 3  # default engine iterations
    assert all(len(s) == 413 for s in segments)
    assert segments[0] == segments[1] == segments[2]


def test_kernel_segments_attribute_launches_by_call_time():
    trace = Trace()
    # launch inside iteration 0, kernel executes later (queued)
    trace.add(RuntimeEvent(name=LAUNCH_KERNEL, ts=5.0, dur=1.0,
                           correlation_id=1))
    trace.add(KernelEvent(name="k", ts=100.0, dur=5.0, correlation_id=1))
    trace.mark_iteration(0.0, 50.0)
    trace.mark_iteration(50.0, 150.0)
    trace.sort()
    assert kernel_segments(trace) == [["k"], []]


def test_kernel_segments_include_graph_kernels_by_start():
    trace = Trace()
    trace.add(KernelEvent(name="g", ts=10.0, dur=1.0, correlation_id=-1))
    trace.mark_iteration(0.0, 50.0)
    trace.sort()
    assert kernel_segments(trace) == [["g"]]


def test_kernel_segments_require_iterations():
    with pytest.raises(AnalysisError):
        kernel_segments(Trace())


def test_engine_trace_long_chain_anchored_at_unique_kernel(gpt2_profile):
    """A 256-chain anchored at the once-per-iteration wte embedding kernel
    must be deterministic — the mechanism behind the paper's few long
    fusable chains."""
    segments = kernel_segments(gpt2_profile.trace)
    result = mine_chains(segments, 256)
    deterministic = result.deterministic(1.0)
    assert deterministic
    anchors = {c.chain[0] for c in deterministic}
    assert any("indexSelectLargeIndex" in anchor for anchor in anchors)
