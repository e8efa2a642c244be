"""Lock for weighted chain mining.

``analyze_segments`` and ``mine_chains`` mine each distinct segment once,
weighted by how often it repeats. The reference below is the per-segment
loop they replaced, kept here for exactly this comparison: every integer
count and float ratio must come out equal, not merely close.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.skip import select_nonoverlapping
from repro.skip.fusion import DEFAULT_CHAIN_LENGTHS, FusionAnalysis, analyze_segments
from repro.skip.proximity import ChainStats, MiningResult, mine_chains

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


def reference_analyze(segments, lengths, threshold=1.0):
    k_eager = sum(len(s) for s in segments) / len(segments)
    results = []
    for length in sorted(set(lengths)):
        mining = reference_mine(segments, length)
        deterministic = mining.deterministic(threshold)
        instance_total = 0
        distinct_total = 0
        for segment in segments:
            selected = select_nonoverlapping(
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
    for length in lengths:
        assert mine_chains(segments, length) == reference_mine(segments, length)
    assert (analyze_segments(segments, lengths, threshold)
            == reference_analyze(segments, lengths, threshold))


BLOCK = list("abcabdabcabe")

HAND_BUILT = {
    "all equal": [BLOCK] * 3,
    "all distinct": [list("abcab"), list("bcabc"), list("cabca")],
    "repeated plus unique": [BLOCK, list("aabbab"), BLOCK, BLOCK],
    "different lengths": [list("ab"), list("abcabc"), list("ab"),
                          list("abcabcabcabc"), list("a")],
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_segment_sets_match_reference(name):
    _assert_matches_reference(HAND_BUILT[name])
    _assert_matches_reference(HAND_BUILT[name], threshold=0.5)


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
