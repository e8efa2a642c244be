"""Locks for chain mining and chain matching.

``analyze_segments`` and ``mine_chains`` mine each distinct segment once,
weighted by how often it repeats, through one rank-doubling
``ChainIndex``; ``select_nonoverlapping`` visits only chain-head
positions. The references below are the code those fast paths replaced,
kept here for exactly this comparison:

* :func:`reference_mine` is the per-segment loop weighted mining replaced;
* :func:`reference_mine_distinct` is the tuple-window miner the rank
  index replaced;
* :func:`reference_select_nonoverlapping` is the matcher without the
  chain-head prefilter, trying every length at every position.

Every integer count, float ratio and chain order must come out equal, not
merely close.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import DispatchMode, ExecutionMode, TPConfig
from repro.hardware import INTEL_H100, PAPER_PLATFORMS
from repro.skip import SkipProfiler, select_nonoverlapping
from repro.skip.fusion import DEFAULT_CHAIN_LENGTHS, FusionAnalysis, analyze_segments
from repro.skip.proximity import (
    ChainIndex, ChainStats, MiningResult, distinct_segments, mine_chains,
    mine_distinct,
)
from repro.workloads import PAPER_MODELS

LENGTHS = (2, 3, 4, 8)


def reference_mine(segments, length):
    window_counts = Counter()
    anchor_counts = Counter()
    for segment in segments:
        anchor_counts.update(segment)
        for i in range(len(segment) - length + 1):
            window_counts[tuple(segment[i:i + length])] += 1
    chains = [ChainStats(chain=chain, frequency=freq,
                         anchor_frequency=anchor_counts[chain[0]])
              for chain, freq in window_counts.items()]
    chains.sort(key=lambda c: (-c.frequency, c.chain))
    return MiningResult(length=length, chains=chains,
                        total_instances=sum(window_counts.values()))


def reference_mine_distinct(distinct, length):
    """Every window of every distinct segment hashed as a name tuple."""
    window_counts = Counter()
    anchor_counts = Counter()
    for segment, weight in distinct.items():
        for name, count in Counter(segment).items():
            anchor_counts[name] += count * weight
        windows = Counter(segment[i:i + length]
                          for i in range(len(segment) - length + 1))
        for chain, count in windows.items():
            window_counts[chain] += count * weight
    chains = [ChainStats(chain=chain, frequency=freq,
                         anchor_frequency=anchor_counts[chain[0]])
              for chain, freq in window_counts.items()]
    chains.sort(key=lambda c: (-c.frequency, c.chain))
    return MiningResult(length=length, chains=chains,
                        total_instances=sum(window_counts.values()))


def reference_select_nonoverlapping(segment, chains):
    """Every chain length tried, longest first, at every position."""
    chain_set = set(chains)
    lengths = sorted({len(c) for c in chain_set}, reverse=True)
    selected = []
    i = 0
    n = len(segment)
    while i < n:
        for length in lengths:
            if i + length > n:
                continue
            window = tuple(segment[i:i + length])
            if window in chain_set:
                selected.append((i, window))
                i += length
                break
        else:
            i += 1
    return selected


def reference_analyze(segments, lengths, threshold=1.0):
    k_eager = sum(len(s) for s in segments) / len(segments)
    results = []
    for length in sorted(set(lengths)):
        mining = reference_mine(segments, length)
        deterministic = mining.deterministic(threshold)
        instance_total = 0
        distinct_total = 0
        for segment in segments:
            selected = reference_select_nonoverlapping(
                segment, [c.chain for c in deterministic])
            instance_total += len(selected)
            distinct_total += len({chain for _, chain in selected})
        c_fused = distinct_total / len(segments)
        results.append(FusionAnalysis(
            length=length,
            unique_candidates=mining.unique_candidates,
            total_instances=mining.total_instances,
            deterministic_chains=tuple(deterministic),
            fused_chain_count=c_fused,
            fused_instances=instance_total / len(segments),
            kernels_fused=c_fused * length,
            k_eager=k_eager,
            k_fused=k_eager - c_fused * (length - 1),
        ))
    return results


def _assert_matches_reference(segments, lengths=LENGTHS, threshold=1.0):
    distinct = distinct_segments(segments)
    index = ChainIndex(distinct)
    for length in lengths:
        expected = reference_mine(segments, length)
        assert reference_mine_distinct(distinct, length) == expected
        assert mine_chains(segments, length) == expected
        assert mine_distinct(distinct, length) == expected
        # One index reused across lengths, in the order given.
        assert index.mine(length) == expected
    assert (analyze_segments(segments, lengths, threshold)
            == reference_analyze(segments, lengths, threshold))


def _assert_matcher_matches_reference(segment, chains):
    assert (select_nonoverlapping(segment, chains)
            == reference_select_nonoverlapping(segment, chains))


BLOCK = list("abcabdabcabe")

HAND_BUILT = {
    "all equal": [BLOCK] * 3,
    "all distinct": [list("abcab"), list("bcabc"), list("cabca")],
    "repeated plus unique": [BLOCK, list("aabbab"), BLOCK, BLOCK],
    "different lengths": [list("ab"), list("abcabc"), list("ab"),
                          list("abcabcabcabc"), list("a")],
    "with empty": [[], BLOCK, [], list("ba")],
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_segment_sets_match_reference(name):
    _assert_matches_reference(HAND_BUILT[name])
    _assert_matches_reference(HAND_BUILT[name], threshold=0.5)
    _assert_matches_reference(HAND_BUILT[name], lengths=(5, 6, 7, 11, 12, 13))


def test_engine_segments_match_reference(gpt2_profile):
    segments = gpt2_profile.segments
    assert len(set(map(tuple, segments))) < len(segments)
    _assert_matches_reference(segments, DEFAULT_CHAIN_LENGTHS)


segment_sets = st.lists(
    st.lists(st.sampled_from("abc"), min_size=0, max_size=24),
    min_size=1, max_size=3,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1,
                                max_size=6))


@given(segments=segment_sets,
       threshold=st.sampled_from([1.0, 0.75, 0.5, 0.25]))
@settings(max_examples=200, deadline=None)
def test_weighted_mining_matches_reference(segments, threshold):
    _assert_matches_reference(segments, threshold=threshold)


# A repeated block plus a tail reaches the long end of the ladder with
# windows that repeat, so long chains can be deterministic; an empty block
# or tail gives short and empty segments.
names = st.sampled_from("abcdef")
long_segments = st.builds(
    lambda block, repeats, tail: block * repeats + tail,
    st.lists(names, max_size=12), st.integers(0, 40),
    st.lists(names, max_size=8),
).map(lambda segment: segment[:300])
long_segment_sets = st.lists(long_segments, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6))
chain_lengths = st.lists(st.integers(2, 300), min_size=1, max_size=6)


@given(segments=long_segment_sets, lengths=chain_lengths,
       threshold=st.sampled_from([1.0, 0.5]))
@settings(max_examples=150, deadline=None)
def test_rank_index_matches_reference_up_to_length_300(segments, lengths,
                                                       threshold):
    # Non-powers of two, powers of two, and lengths beyond every segment.
    _assert_matches_reference(segments, lengths + [2, 3, 255, 256, 300],
                              threshold)


@given(segment=long_segments, data=st.data())
@settings(max_examples=150, deadline=None)
def test_head_filtered_matcher_matches_reference(segment, data):
    windows = [tuple(segment[i:i + length])
               for length in (2, 3, 4, 7, 16, 64)
               for i in range(0, len(segment) - length + 1, 5)]
    chains = data.draw(st.lists(st.sampled_from(windows), max_size=12)
                       if windows else st.just([]))
    chains += data.draw(st.lists(
        st.lists(names, min_size=2, max_size=5).map(tuple), max_size=4))
    _assert_matcher_matches_reference(segment, chains)


def _engine_cases():
    for model in PAPER_MODELS:
        for platform in PAPER_PLATFORMS:
            for batch in (1, 128):
                yield pytest.param(model, platform, batch, None,
                                   id=f"{model.name}-{platform.name}-bs{batch}")
        for dispatch in DispatchMode:
            yield pytest.param(model, INTEL_H100, 1,
                               TPConfig(degree=2, dispatch=dispatch),
                               id=f"{model.name}-tp2-{dispatch.value}")


@pytest.mark.parametrize("model,platform,batch,tp", _engine_cases())
def test_paper_grid_segments_match_reference(model, platform, batch, tp):
    profiler = SkipProfiler(platform)
    eager = profiler.profile(model, batch_size=batch, tp=tp)
    plan = eager.fusion_plan()
    assert plan is not None
    fused = profiler.profile(model, batch_size=batch, tp=tp,
                             mode=ExecutionMode.PROXIMITY_FUSED,
                             fusion_plan=plan)
    for result in (eager, fused):
        segments = result.segments
        _assert_matches_reference(segments, DEFAULT_CHAIN_LENGTHS)
        for segment in segments:
            _assert_matcher_matches_reference(segment, plan.chains)
    if tp is not None:
        assert len(eager.segments) == 2 * len(
            profiler.profile(model, batch_size=batch).segments)
