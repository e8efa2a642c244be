"""Causality logging: event capture, serialization, and parity locks."""

import pytest

from repro.errors import AnalysisError
from repro.sim import CausalityLog, SimCore
from repro.sim.causality import CAUSALITY_SCHEMA


def _kinds(log):
    return [e.kind for e in log.events]


# ----------------------------------------------------------------------
# Scheduling events
# ----------------------------------------------------------------------
def test_timer_process_logs_spawn_resume_suspend_exit():
    log = CausalityLog()
    core = SimCore(causality=log)

    def ticker():
        yield ("at", 100.0)
        yield ("at", 250.0)

    core.spawn(ticker())
    core.run()
    assert _kinds(log) == [
        "spawn", "resume", "suspend", "resume", "suspend", "resume", "exit"]
    assert all(e.pid == 0 for e in log.events)
    resumes = [e for e in log.events if e.kind == "resume"]
    assert [e.time_ns for e in resumes] == [0.0, 100.0, 250.0]
    assert all(e.tie is not None for e in resumes)
    suspends = [e for e in log.events if e.kind == "suspend"]
    assert [e.key for e in suspends] == ["at", "at"]


def test_pids_are_dense_in_spawn_order():
    log = CausalityLog()
    core = SimCore(causality=log)

    def nop():
        return
        yield

    first, second = nop(), nop()
    core.spawn(second, at_ns=10.0)
    core.spawn(first, at_ns=0.0)
    core.run()
    assert log.pid_of(second) == 0
    assert log.pid_of(first) == 1
    spawns = [e for e in log.events if e.kind == "spawn"]
    assert [e.pid for e in spawns] == [0, 1]


def test_sequence_numbers_are_strictly_increasing():
    log = CausalityLog()
    core = SimCore(causality=log)

    def ticker():
        yield ("at", 5.0)

    core.spawn(ticker())
    core.spawn(ticker())
    core.run()
    seqs = [e.seq for e in log.events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


# ----------------------------------------------------------------------
# Rendezvous events
# ----------------------------------------------------------------------
def test_rendezvous_logs_joins_release_and_wakes():
    log = CausalityLog()
    core = SimCore(causality=log)

    def party(ready_ns):
        rdv = core.rendezvous(("barrier", 0), parties=2)
        yield ("join", rdv, ready_ns)

    core.spawn(party(100.0))
    core.spawn(party(400.0))
    core.run()
    joins = [e for e in log.events if e.kind == "join"]
    assert [e.time_ns for e in joins] == [100.0, 400.0]
    assert all(e.parties == 2 for e in joins)
    releases = [e for e in log.events if e.kind == "release"]
    # Max-law: the release lands at the slowest party's ready time.
    assert [e.time_ns for e in releases] == [400.0]
    assert releases[0].key == joins[0].key
    wakes = [e for e in log.events if e.kind == "wake"]
    assert len(wakes) == 2
    # The completing joiner (pid 1) is the actor performing both wakes.
    assert {e.src for e in wakes} == {1}
    assert {e.pid for e in wakes} == {0, 1}


# ----------------------------------------------------------------------
# Resource events
# ----------------------------------------------------------------------
def test_kv_resource_logs_acquire_grant_free():
    from repro.kvcache.pool import BlockPool
    from repro.kvcache.resource import KvCacheResource

    log = CausalityLog()
    core = SimCore(causality=log)
    resource = KvCacheResource(BlockPool(capacity_blocks=4), name="kv0")
    core.add_kv_resource(resource)

    def holder():
        t = yield ("at", 10.0)
        assert resource.try_acquire("seq-a", 3, t)
        t = yield ("at", 50.0)
        resource.release("seq-a", t)

    def waiter():
        t = yield ("at", 20.0)
        # The holder's 3 of 4 blocks leave no room: refused, nothing logged.
        assert not resource.try_acquire("seq-b", 2, t)
        t = yield ("at", 60.0)
        assert resource.try_acquire("seq-b", 2, t)
        resource.release("seq-b", t)

    core.spawn(holder())
    core.spawn(waiter())
    core.run()
    assert [e.kind for e in log.events if e.pid < 0] == ["resource"]
    resource_event = log.events[0]
    assert (resource_event.key, resource_event.blocks) == ("kv0", 4)
    assert not [e for e in log.events if e.kind == "acquire"]
    grants = [e for e in log.events if e.kind == "grant"]
    assert [(e.owner, e.blocks, e.time_ns) for e in grants] == [
        ("seq-a", 3, 10.0), ("seq-b", 2, 60.0)]
    frees = [e for e in log.events if e.kind == "free"]
    assert [(e.owner, e.blocks, e.time_ns) for e in frees] == [
        ("seq-a", 3, 50.0), ("seq-b", 2, 60.0)]
    # Each grant and free is attributed to the process that made it, the
    # pid the hb pass orders resource accesses by.
    assert [(e.pid, e.src) for e in grants] == [(0, 0), (1, 1)]
    assert [e.pid for e in frees] == [0, 1]


def test_stream_and_link_occupancy_intervals():
    from repro.hardware.interconnect import NVLINK4_P2P
    from repro.sim import LinkResource

    log = CausalityLog()
    core = SimCore(causality=log)
    core.add_device()
    link = core.set_link(LinkResource(spec=NVLINK4_P2P))
    stream = core.devices[0].streams[0]
    start, end = stream.submit(100.0, 40.0)
    link.record(25.0, start_ns=end)
    occupancies = [e for e in log.events if e.kind == "occupy"]
    assert [(e.key, e.time_ns, e.end_ns) for e in occupancies] == [
        ("device0.stream7", start, end), ("link", end, end + 25.0)]


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def test_json_roundtrip(tmp_path):
    log = CausalityLog()
    core = SimCore(causality=log)

    def party(ready_ns):
        rdv = core.rendezvous(("pp.act", 0, 1), parties=2)
        yield ("join", rdv, ready_ns)

    core.spawn(party(10.0))
    core.spawn(party(30.0))
    core.run()
    path = tmp_path / "causality.json"
    log.dump(path)
    loaded = CausalityLog.load(path)
    assert loaded.events == log.events

    payload = log.to_dict()
    assert payload["schema"] == CAUSALITY_SCHEMA
    assert CausalityLog.from_dict(payload).events == log.events


def test_from_dict_rejects_wrong_schema_and_bad_kinds():
    with pytest.raises(AnalysisError, match="schema"):
        CausalityLog.from_dict({"schema": "bogus/v9", "events": []})
    log = CausalityLog()
    log.emit("resume", 0.0, pid=0)
    payload = log.to_dict()
    payload["events"][0]["kind"] = "teleport"
    with pytest.raises(AnalysisError, match="kind"):
        CausalityLog.from_dict(payload)


# ----------------------------------------------------------------------
# Parity locks: logging off is the seed behavior, logging on changes
# nothing observable
# ----------------------------------------------------------------------
def _serving_rows():
    from repro.serving.runtime import simulate_serving
    from repro.serving.continuous import ContinuousBatchPolicy
    from repro.serving.latency import LatencyModel
    from repro.hardware import get_platform
    from repro.workloads import GPT2
    from tests.scenarios import MAX_ACTIVE, mixed_stream

    def run(causality=None):
        result = simulate_serving(
            mixed_stream(), GPT2,
            LatencyModel(platform=get_platform("GH200")),
            policy=ContinuousBatchPolicy(max_active=MAX_ACTIVE),
            causality=causality)
        return [(o.request.request_id, o.ttft_ns, o.completion_ns,
                 o.batch_size, o.queue_ns, o.replica)
                for o in result.outcomes]

    return run


def test_serving_outcomes_identical_with_causality_on():
    run = _serving_rows()
    log = CausalityLog()
    assert run() == run(causality=log)
    assert log.events, "causality run must actually record events"


def test_engine_run_identical_with_causality_on():
    from repro.engine.executor import run
    from repro.engine.pp import PPConfig
    from repro.hardware import get_platform
    from repro.workloads import GPT2

    def result(causality=None):
        outcome = run(GPT2, get_platform("GH200"), batch_size=2,
                      seq_len=128, pp=PPConfig(stages=2, microbatches=2),
                      causality=causality)
        return (outcome.trace.span, len(outcome.trace.kernels))

    log = CausalityLog()
    assert result() == result(causality=log)
    assert "join" in {e.kind for e in log.events}
