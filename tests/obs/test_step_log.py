"""StepLog: a decode window stored as one record, read back step by step.

``RunRecorder.record_steps`` keeps two or more steps as one window record;
``RunRecorder.steps`` must still read exactly as the list of ``StepEvent``
records one ``record_step`` per step would have built.
"""

import pytest

from repro.errors import AnalysisError
from repro.obs import EngineShape, RunRecorder, StepEvent, StepKind
from repro.obs.recorder import StepLog

SHAPE = EngineShape("gpt2", 3, 1, phase="decode", context_len=64)
WIDER = EngineShape("gpt2", 3, 1, phase="decode", context_len=128)

#: (kind, starts, durations, batch, queue depth, shapes, replica) windows:
#: one step, a three-step window, an empty one, a window without shapes.
WINDOWS = [
    (StepKind.PREFILL, [0.0], [50.5], 2, 1, None, 0),
    (StepKind.DECODE, [50.5, 61.25, 72.0], [10.75, 10.75, 11.5], 3, 4,
     [SHAPE, SHAPE, WIDER], 1),
    (StepKind.DECODE, [], [], 3, 0, [], 1),
    (StepKind.DECODE, [90.0, 102.0], [12.0, 0.0], 1, 0, None, 2),
    (StepKind.SWAP_IN, [102.0], [3.5], 1, 0, [None], 0),
]


def _recorded():
    """The windows through ``record_steps`` and through ``record_step``."""
    windowed, looped = RunRecorder(), RunRecorder()
    for kind, starts, durations, batch, depth, shapes, replica in WINDOWS:
        windowed.record_steps(kind, starts, durations, batch,
                              queue_depth=depth, shapes=shapes,
                              replica=replica)
        for j, (ts_ns, dur_ns) in enumerate(zip(starts, durations)):
            looped.record_step(kind, ts_ns, dur_ns, batch, queue_depth=depth,
                               shape=None if shapes is None else shapes[j],
                               replica=replica)
    return windowed.steps, list(looped.steps)


def test_windows_are_one_record_each():
    log, _ = _recorded()
    assert isinstance(log, StepLog)
    assert len(log._records) == 4  # the empty window records nothing
    assert sum(type(record) is StepEvent for record in log._records) == 2


def test_log_reads_as_the_list_record_step_builds():
    log, steps = _recorded()
    assert len(log) == len(steps) == 7
    assert bool(log) and not StepLog()
    assert list(log) == steps
    assert all(type(step) is StepEvent for step in log)
    assert [log[i] for i in range(len(log))] == steps
    assert log[-1] == steps[-1] and log[-7] == steps[0]
    assert log[3].shape is WIDER and log[4].shape is None
    for bounds in [slice(None), slice(1, 5), slice(2, None, 2),
                   slice(None, None, -1), slice(-3, -1), slice(5, 1)]:
        assert log[bounds] == steps[bounds]
    for index in (7, -8):
        with pytest.raises(IndexError):
            log[index]


def test_log_equality():
    log, steps = _recorded()
    other, _ = _recorded()
    assert log == steps and steps == log
    assert log == other
    assert log != steps[:-1] and log != [*steps[:-1], steps[0]]
    assert log != tuple(steps)
    assert StepLog() == []


def test_log_is_read_only():
    log, _ = _recorded()
    assert not hasattr(log, "append") and not hasattr(log, "extend")
    with pytest.raises(TypeError):
        log[0] = log[1]


@pytest.mark.parametrize("field, value, message", [
    ("durations", [2.5, -1.0, 3.0], "step 1 has negative duration"),
    ("batch_size", 0, "step 0 has no sequences"),
    ("queue_depth", -1, "step 0 has negative queue depth"),
    ("replica", -1, "step 0 has negative replica"),
])
@pytest.mark.parametrize("count", [1, 3])
def test_record_steps_rejects_each_invalid_field(count, field, value,
                                                 message):
    args = dict(starts=[0.0, 2.5, 5.0][:count],
                durations=[2.5, 2.5, 3.0][:count], batch_size=3,
                queue_depth=1, shapes=None, replica=0)
    if field == "durations" and count == 1:
        value, message = [-1.0], "step 0 has negative duration"
    args[field] = value
    recorder = RunRecorder()
    with pytest.raises(AnalysisError, match=message):
        recorder.record_steps(StepKind.DECODE, **args)
    assert len(recorder.steps) == 0
    assert recorder.counters.as_dict() == {}
