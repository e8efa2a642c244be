"""SimCore process scheduling: timers, rendezvous, topology."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import LinkResource, SimCore
from repro.sim.queue import EventQueue, PerturbedEventQueue, ReferenceEventQueue
from repro.hardware.interconnect import NVLINK4_P2P


def test_topology_construction():
    core = SimCore()
    core.add_device()
    core.add_device(streams=2)
    assert [d.index for d in core.devices] == [0, 1]
    assert [s.stream_id for s in core.devices[1].streams] == [7, 8]
    assert [s.device for s in core.streams()] == [0, 1]
    link = core.set_link(LinkResource(spec=NVLINK4_P2P))
    assert core.link is link


def test_process_resumes_at_requested_time():
    core = SimCore()
    seen = []

    def process():
        resumed = yield ("at", 100.0)
        seen.append(resumed)
        resumed = yield ("at", 250.0)
        seen.append(resumed)

    core.spawn(process())
    core.run()
    assert seen == [100.0, 250.0]
    assert core.now == 250.0


def test_processes_interleave_in_time_order():
    core = SimCore()
    order = []

    def process(name, times):
        for t in times:
            yield ("at", t)
            order.append((name, t))

    core.spawn(process("a", [10.0, 30.0]))
    core.spawn(process("b", [20.0, 40.0]))
    core.run()
    assert order == [("a", 10.0), ("b", 20.0), ("a", 30.0), ("b", 40.0)]


def test_rendezvous_releases_all_parties_at_max_ready():
    core = SimCore()
    released = []

    def party(name, ready_ns):
        rdv = core.rendezvous("collective", parties=2)
        resumed = yield ("join", rdv, ready_ns)
        released.append((name, resumed))

    core.spawn(party("fast", 100.0))
    core.spawn(party("slow", 400.0))
    core.run()
    assert released == [("fast", 400.0), ("slow", 400.0)]


def test_rendezvous_pooled_by_key():
    core = SimCore()
    first = core.rendezvous(("allreduce", 0, 1), parties=2)
    again = core.rendezvous(("allreduce", 0, 1), parties=2)
    assert first is again
    other = core.rendezvous(("allreduce", 0, 2), parties=2)
    assert other is not first
    with pytest.raises(SimulationError):
        core.rendezvous(("allreduce", 0, 1), parties=3)


def test_incomplete_rendezvous_is_a_deadlock():
    core = SimCore()

    def lonely():
        rdv = core.rendezvous("never", parties=2)
        yield ("join", rdv, 0.0)

    core.spawn(lonely())
    with pytest.raises(SimulationError, match="deadlock"):
        core.run()


def test_malformed_request_rejected():
    # "acquire" was a verb of the retired blocking resource protocol.
    for request in (("teleport", 5.0), ("acquire", None, "a", 1, 0.0)):
        core = SimCore()

        def bad(request=request):
            yield request

        core.spawn(bad())
        with pytest.raises(SimulationError,
                           match="unknown process request kind"):
            core.run()


def test_non_yielding_process_runs_to_completion():
    core = SimCore()
    ran = []

    def straight_line():
        ran.append(True)
        return
        yield  # pragma: no cover - makes this a generator

    core.spawn(straight_line())
    core.run()
    assert ran == [True]


def test_over_joined_rendezvous_names_its_key():
    from repro.sim import Rendezvous

    rdv = Rendezvous(parties=2, key=("pp.act", 0, 1, 3))
    rdv.join(object(), 10.0)
    rdv.join(object(), 20.0)
    with pytest.raises(SimulationError) as excinfo:
        rdv.join(object(), 30.0)
    message = str(excinfo.value)
    assert "('pp.act', 0, 1, 3)" in message
    assert "all 2 parties" in message


def test_core_rendezvous_carries_its_pool_key():
    core = SimCore()
    rdv = core.rendezvous(("allreduce", 7), parties=2)
    assert rdv.key == ("allreduce", 7)


def _peeks(queue) -> list:
    """What each process sees of the others' next event as it runs."""
    core = SimCore(queue=queue)
    seen = []

    def process(name, times):
        for at in times:
            resumed = yield ("at", at)
            seen.append((name, resumed, core.next_event_ns()))

    assert core.next_event_ns() == math.inf
    core.spawn(process("a", [10.0, 35.0, 70.0]))
    core.spawn(process("b", [20.0, 50.0]), at_ns=5.0)
    core.spawn(process("c", [65.0]), at_ns=40.0)
    assert core.next_event_ns() == 0.0
    core.run()
    assert core.next_event_ns() == math.inf
    return seen


@pytest.mark.parametrize("queue", [ReferenceEventQueue, PerturbedEventQueue],
                         ids=lambda q: q.__name__)
def test_next_event_ns_agrees_across_event_queues(queue):
    expected = _peeks(EventQueue())
    assert expected[:3] == [("a", 10.0, 20.0), ("b", 20.0, 35.0),
                            ("a", 35.0, 40.0)]
    # The running process is never in the queue: at the last wake-up
    # nothing else is left.
    assert expected[-1] == ("a", 70.0, math.inf)
    assert _peeks(queue()) == expected
