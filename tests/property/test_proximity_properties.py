"""Property-based tests for chain mining (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.skip import mine_chains, select_nonoverlapping

# Small alphabets force repeated chains; lists long enough to hold windows.
segments_strategy = st.lists(
    st.lists(st.sampled_from("abcde"), min_size=0, max_size=60),
    min_size=1, max_size=4,
)


@given(segments=segments_strategy, length=st.integers(2, 6))
@settings(max_examples=150, deadline=None)
def test_proximity_scores_bounded(segments, length):
    result = mine_chains(segments, length)
    for chain in result.chains:
        assert 0 < chain.proximity_score <= 1.0
        assert chain.frequency <= chain.anchor_frequency
        assert len(chain.chain) == length


@given(segments=segments_strategy, length=st.integers(2, 6))
@settings(max_examples=150, deadline=None)
def test_window_count_identity(segments, length):
    result = mine_chains(segments, length)
    expected = sum(max(0, len(s) - length + 1) for s in segments)
    assert result.total_instances == expected
    assert sum(c.frequency for c in result.chains) == expected


@given(segments=segments_strategy)
@settings(max_examples=100, deadline=None)
def test_longer_chains_never_have_more_instances(segments):
    short = mine_chains(segments, 2)
    long = mine_chains(segments, 4)
    assert long.total_instances <= short.total_instances


@given(segment=st.lists(st.sampled_from("abc"), min_size=0, max_size=50),
       length=st.integers(2, 5))
@settings(max_examples=150, deadline=None)
def test_selected_instances_never_overlap(segment, length):
    result = mine_chains([segment] or [[]], length) if segment else None
    if result is None:
        return
    selected = select_nonoverlapping(
        segment, [c.chain for c in result.deterministic(1.0)])
    covered: set[int] = set()
    for start, chain in selected:
        span = set(range(start, start + len(chain)))
        assert not (span & covered)
        covered |= span
        assert tuple(segment[start:start + len(chain)]) == chain


@given(segment=st.lists(st.sampled_from("ab"), min_size=2, max_size=40))
@settings(max_examples=100, deadline=None)
def test_deterministic_chain_occurrences_match_frequency(segment):
    result = mine_chains([segment], 2)
    for chain in result.deterministic(1.0):
        # Every occurrence of the anchor (with room for a window) must be
        # followed by the chain's continuation.
        anchor = chain.chain[0]
        occurrences = [i for i, name in enumerate(segment) if name == anchor]
        with_window = [i for i in occurrences if i + 2 <= len(segment)]
        assert chain.frequency == len(with_window) == chain.anchor_frequency
