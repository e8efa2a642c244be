"""EventQueue ordering and error behavior."""

import pytest

from repro.errors import SimulationError
from repro.sim import EventQueue


def _pop(queue):
    """The earliest ``(time, item)`` entry, its tie key dropped."""
    time_ns, _, item = queue.pop_entry()
    return time_ns, item


def test_pops_in_time_order():
    queue = EventQueue()
    queue.push(30.0, "c")
    queue.push(10.0, "a")
    queue.push(20.0, "b")
    assert [_pop(queue) for _ in range(3)] == [
        (10.0, "a"), (20.0, "b"), (30.0, "c")]


def test_fifo_tie_break_at_equal_times():
    queue = EventQueue()
    for item in ("first", "second", "third"):
        queue.push(5.0, item)
    assert [_pop(queue)[1] for _ in range(3)] == ["first", "second", "third"]


def test_peek_does_not_pop():
    queue = EventQueue()
    queue.push(7.0, "x")
    assert queue.peek_time() == 7.0
    assert len(queue) == 1
    assert _pop(queue) == (7.0, "x")


def test_len_and_bool():
    queue = EventQueue()
    assert not queue
    assert len(queue) == 0
    queue.push(0.0, "x")
    assert queue
    assert len(queue) == 1


def test_negative_time_rejected():
    queue = EventQueue()
    with pytest.raises(SimulationError):
        queue.push(-1.0, "x")


def test_empty_pop_and_peek_rejected():
    queue = EventQueue()
    with pytest.raises(SimulationError):
        _pop(queue)
    with pytest.raises(SimulationError):
        queue.peek_time()


def test_interleaved_push_pop_stays_ordered():
    queue = EventQueue()
    queue.push(10.0, "late")
    queue.push(1.0, "early")
    assert _pop(queue) == (1.0, "early")
    queue.push(5.0, "middle")
    assert _pop(queue) == (5.0, "middle")
    assert _pop(queue) == (10.0, "late")


# ----------------------------------------------------------------------
# pop_entry / tie-break metadata (rule H002's witness)
# ----------------------------------------------------------------------
def test_pop_entry_exposes_monotone_tie_keys():
    queue = EventQueue()
    for item in ("a", "b", "c"):
        queue.push(5.0, item)
    entries = [queue.pop_entry() for _ in range(3)]
    assert [item for _, _, item in entries] == ["a", "b", "c"]
    ties = [tie for _, tie, _ in entries]
    assert ties == sorted(ties)
    assert len(set(ties)) == 3


def _drain(queue):
    """Push the same mixed same-time workload and record the pop order."""
    queue.push(10.0, "late")
    for item in ("t1", "t2", "t3"):
        queue.push(5.0, item)
    order = [_pop(queue) for _ in range(2)]
    queue.push(5.0, "t4")
    queue.push(0.0, "early")
    while queue:
        order.append(_pop(queue))
    return order


def test_identical_runs_pop_identically():
    # The explicit insertion-sequence tie-break makes pop order a pure
    # function of the push sequence: no heap internals, no item ordering.
    assert _drain(EventQueue()) == _drain(EventQueue())


# ----------------------------------------------------------------------
# PerturbedEventQueue: the certifier's adversarial tie-break
# ----------------------------------------------------------------------
def test_perturbed_queue_is_lifo_at_ties():
    from repro.sim import PerturbedEventQueue

    queue = PerturbedEventQueue()
    for item in ("first", "second", "third"):
        queue.push(5.0, item)
    assert [_pop(queue)[1] for _ in range(3)] == ["third", "second", "first"]


def test_perturbed_queue_preserves_time_order():
    from repro.sim import PerturbedEventQueue

    queue = PerturbedEventQueue()
    for time_ns, item in [(30.0, "c"), (10.0, "a"), (20.0, "b")]:
        queue.push(time_ns, item)
    assert [_pop(queue) for _ in range(3)] == [
        (10.0, "a"), (20.0, "b"), (30.0, "c")]
    with pytest.raises(SimulationError):
        queue.push(-1.0, "x")
