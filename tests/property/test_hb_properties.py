"""Property tests: causality-log well-formedness + H-rule soundness.

Two families:

* runs of randomly generated process interleavings on a real
  :class:`SimCore` produce *well-formed* logs (every resume was scheduled,
  rendezvous releases obey the max-law) that the hb pass certifies clean;
* logs with *known-injected* races (unordered same-time accesses, dropped
  grants, stripped tie keys, overlapping occupancy) are always flagged by
  the matching H rule — soundness of the detectors, not just absence of
  false positives.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.hb import check_causality
from repro.sim import CausalityLog, SimCore

_SCHEDULING = {"spawn", "suspend", "wake", "grant"}


@st.composite
def timer_plans(draw):
    """Per-process non-decreasing wake-up schedules."""
    count = draw(st.integers(1, 5))
    plans = []
    for _ in range(count):
        hops = draw(st.integers(0, 4))
        clock = 0.0
        plan = []
        for _ in range(hops):
            clock += draw(st.sampled_from([0.0, 5.0, 10.0, 25.0]))
            plan.append(clock)
        plans.append(plan)
    return plans


def _run_timers(plans):
    log = CausalityLog()
    core = SimCore(causality=log)

    def proc(plan):
        for at in plan:
            yield ("at", at)

    for plan in plans:
        core.spawn(proc(plan))
    core.run()
    return log


@given(plans=timer_plans())
@settings(max_examples=50, deadline=None)
def test_random_interleavings_produce_wellformed_clean_logs(plans):
    log = _run_timers(plans)
    assert check_causality(log) == []
    # Explicit well-formedness, independent of the checker's own logic:
    # every resume follows a scheduling event for its pid.
    pending = {}
    for event in log.events:
        if event.kind in _SCHEDULING:
            pending[event.pid] = pending.get(event.pid, 0) + 1
        elif event.kind == "resume":
            assert pending.get(event.pid, 0) > 0, event
            pending[event.pid] = 0
    # Same-time pops carry distinct tie keys (the H002 guarantee).
    ties = {}
    for event in log.events:
        if event.kind == "resume":
            assert event.tie is not None
            assert event.tie not in ties.setdefault(event.time_ns, set())
            ties[event.time_ns].add(event.tie)


@given(ready_times=st.lists(
    st.sampled_from([0.0, 10.0, 40.0, 90.0]), min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_rendezvous_release_obeys_max_law(ready_times):
    log = CausalityLog()
    core = SimCore(causality=log)

    def party(ready_ns):
        rdv = core.rendezvous("barrier", parties=len(ready_times))
        yield ("join", rdv, ready_ns)

    for ready_ns in ready_times:
        core.spawn(party(ready_ns))
    core.run()
    assert check_causality(log) == []
    releases = [e for e in log.events if e.kind == "release"]
    assert len(releases) == 1
    joined = [e.time_ns for e in log.events if e.kind == "join"]
    assert releases[0].time_ns == max(joined)
    assert len(joined) == len(ready_times)


@st.composite
def kv_holds(draw):
    """Random (blocks, acquire, release) holds at pairwise-distinct times.

    Times are distinct on purpose: two *independent* processes touching the
    pool at the same instant is a genuine H001 race (their order is
    tie-determined), which the injected-race tests cover — this strategy
    exercises the clean regime.
    """
    count = draw(st.integers(1, 5))
    release_order = draw(st.permutations(range(count)))
    return [(draw(st.integers(1, 4)), 5.0 * (index + 1),
             60.0 + 7.0 * release_order[index])
            for index in range(count)]


@given(holds=kv_holds())
@settings(max_examples=50, deadline=None)
def test_kv_interleavings_grant_without_lost_wakeups_or_leaks(holds):
    from repro.kvcache.pool import BlockPool
    from repro.kvcache.resource import KvCacheResource

    log = CausalityLog()
    core = SimCore(causality=log)
    resource = core.add_kv_resource(
        KvCacheResource(BlockPool(capacity_blocks=4), name="kv"))
    granted = []

    def holder(index, blocks, t_acquire, t_release):
        owner = f"seq-{index}"
        t = yield ("at", t_acquire)
        if resource.try_acquire(owner, blocks, t):
            granted.append(owner)
        t = yield ("at", t_release)
        resource.release(owner, t)

    for index, (blocks, t_acquire, t_release) in enumerate(holds):
        core.spawn(holder(index, blocks, t_acquire, t_release))
    core.run()
    assert check_causality(log) == []
    assert resource.pool.allocated == 0
    grants = [e.owner for e in log.events if e.kind == "grant"]
    assert grants == granted and granted


# ----------------------------------------------------------------------
# Injected races are always caught
# ----------------------------------------------------------------------
@given(plans=timer_plans(),
       at=st.sampled_from([5.0, 10.0, 25.0]),
       blocks=st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_injected_unordered_access_always_flagged(plans, at, blocks):
    log = _run_timers(plans)
    racer_a = len({e.pid for e in log.events if e.pid >= 0})
    racer_b = racer_a + 1
    for pid in (racer_a, racer_b):
        log.emit("spawn", 0.0, pid=pid)
        log.emit("resume", 0.0, pid=pid, tie=1000 + pid)
        log.emit("suspend", at, pid=pid, key="at")
        log.emit("resume", at, pid=pid, tie=2000 + pid)
    log.emit("grant", at, pid=racer_a, key="kv", owner="a", blocks=blocks)
    log.emit("grant", at, pid=racer_b, key="kv", owner="b", blocks=blocks)
    log.emit("free", at + 1.0, pid=racer_a, key="kv", owner="a",
             blocks=blocks)
    log.emit("free", at + 2.0, pid=racer_b, key="kv", owner="b",
             blocks=blocks)
    assert "H001" in {f.rule_id for f in check_causality(log)}


@given(capacity=st.integers(2, 8), data=st.data())
@settings(max_examples=50, deadline=None)
def test_injected_dropped_grant_is_a_lost_wakeup(capacity, data):
    wanted = data.draw(st.integers(1, capacity))
    log = CausalityLog()
    for pid in (0, 1):
        log.emit("spawn", 0.0, pid=pid)
        log.emit("resume", 0.0, pid=pid, tie=pid)
    log.emit("resource", 0.0, key="kv", blocks=capacity)
    log.emit("grant", 1.0, pid=0, key="kv", owner="a", blocks=capacity)
    log.emit("acquire", 2.0, pid=1, key="kv", owner="b", blocks=wanted)
    log.emit("free", 9.0, pid=0, key="kv", owner="a", blocks=capacity)
    # The grant that should answer pid 1's acquire is deliberately dropped.
    assert "H003" in {f.rule_id for f in check_causality(log)}


@given(plans=timer_plans())
@settings(max_examples=50, deadline=None)
def test_injected_stripped_tie_keys_always_flagged(plans):
    log = _run_timers(plans)
    groups = {}
    for event in log.events:
        if event.kind == "resume":
            groups.setdefault(event.time_ns, []).append(event)
    contested = [members for members in groups.values() if len(members) > 1]
    if not contested:
        return  # nothing to strip: the run had no same-time pops
    victim = contested[0][0]
    from dataclasses import replace

    log.events[log.events.index(victim)] = replace(victim, tie=None)
    assert "H002" in {f.rule_id for f in check_causality(log)}


@given(start=st.sampled_from([0.0, 10.0, 30.0]),
       length=st.sampled_from([5.0, 10.0]),
       overlap=st.sampled_from([1.0, 4.0]))
@settings(max_examples=50, deadline=None)
def test_injected_occupancy_overlap_always_flagged(start, length, overlap):
    log = CausalityLog()
    for pid in (0, 1):
        log.emit("spawn", 0.0, pid=pid)
        log.emit("resume", 0.0, pid=pid, tie=pid)
    log.emit("occupy", start, pid=0, key="device0.stream7",
             end_ns=start + length)
    log.emit("occupy", start + length - overlap, pid=1,
             key="device0.stream7", end_ns=start + length + overlap)
    assert "H005" in {f.rule_id for f in check_causality(log)}
