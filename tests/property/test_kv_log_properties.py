"""Property tests: a per-step ``decode`` log replays like its v1 form.

A KV log (v2) holds one ``decode`` event per decode step, carrying the
ids that took part; v1 held one ``decode`` event per sequence. Random
logs — decodes of resident, swapped-out, freed and never-allocated
sequences among allocations, growth, frees, preemptions and swaps — must
give the same findings, rule and offending sequence, in either form.
"""

import re
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import check_kv_events
from repro.kvcache import KvCacheEvent

SEQ_IDS = st.integers(0, 7)
OPS = st.one_of(
    st.tuples(st.sampled_from(["alloc", "grow"]), SEQ_IDS,
              st.integers(1, 4)),
    st.tuples(st.sampled_from(["free", "preempt", "swap_out", "swap_in"]),
              SEQ_IDS, st.integers(1, 4)),
    st.tuples(st.just("decode"),
              st.lists(SEQ_IDS, min_size=1, max_size=5, unique=True)),
)


def _log(ops) -> list[KvCacheEvent]:
    """Events for ``ops``, each stamped with the ``allocated`` count the
    replay reconstructs; blocks follow the replay's view where one exists
    and the drawn count otherwise."""
    held: dict[int, int] = {}
    host: dict[int, int] = {}
    running = 0
    events = []
    for ts, op in enumerate(ops):
        kind = op[0]
        if kind == "decode":
            events.append(KvCacheEvent.decode_step(float(ts), tuple(op[1]),
                                                   running))
            continue
        _, seq, blocks = op
        if kind in ("alloc", "grow"):
            held[seq] = held.get(seq, 0) + blocks
            running += blocks
        elif kind in ("free", "preempt", "swap_out"):
            resident = held.pop(seq, 0)
            blocks = resident or blocks
            running -= resident
            if kind == "swap_out":
                host[seq] = host.get(seq, 0) + blocks
        else:  # swap_in
            blocks = host.pop(seq, blocks)
            held[seq] = held.get(seq, 0) + blocks
            running += blocks
        events.append(KvCacheEvent(float(ts), kind, seq, blocks,
                                   running))
    return events


def _per_sequence(events) -> list[KvCacheEvent]:
    """The v1 form: one ``decode`` event per id of each step."""
    v1 = []
    for event in events:
        if event.kind == "decode":
            v1.extend(KvCacheEvent(event.ts_ns, "decode", seq, 0,
                                   event.allocated, event.replica)
                      for seq in event.seqs)
        else:
            v1.append(event)
    return v1


def _offences(findings) -> Counter:
    """Multiset of (rule, offending seq); None for run-end findings."""
    offences: Counter = Counter()
    for finding in findings:
        match = re.search(r"seq (-?\d+)\)$", finding.location)
        offences[finding.rule_id, match and int(match.group(1))] += 1
    return offences


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_k_rules_give_the_same_offences_on_both_log_forms(ops):
    v2 = _log(ops)
    v1 = _per_sequence(v2)
    assert _offences(check_kv_events(v2, None)) == \
        _offences(check_kv_events(v1, None))
    # And the v2 log survives an export.
    assert [KvCacheEvent.from_dict(e.to_dict()) for e in v2] == v2


def test_a_step_reports_each_offending_id():
    log = [KvCacheEvent(0.0, "alloc", 1, 2, 2),
           KvCacheEvent(1.0, "alloc", 2, 2, 4),
           KvCacheEvent(2.0, "swap_out", 2, 2, 2),
           KvCacheEvent.decode_step(3.0, (1, 2, 5), 2),
           KvCacheEvent(4.0, "swap_in", 2, 2, 4),
           KvCacheEvent(5.0, "free", 1, 2, 2),
           KvCacheEvent(6.0, "free", 2, 2, 0)]
    findings = check_kv_events(log, None)
    assert _offences(findings) == Counter({("K003", 2): 1, ("K003", 5): 1})
    assert _offences(findings) == _offences(
        check_kv_events(_per_sequence(log), None))
