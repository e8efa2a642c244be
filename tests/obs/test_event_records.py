"""KvCacheEvent and StepEvent: immutable, validated named-tuple records."""

import pickle

import pytest

from repro.errors import AnalysisError
from repro.kvcache import KvCacheEvent
from repro.kvcache.events import KV_EVENT_KINDS
from repro.obs import EngineShape, StepEvent, StepKind

KV_FIELDS = dict(ts_ns=1.5, kind="grow", seq=3, blocks=2, allocated=7,
                 replica=1, refs=0)
STEP_FIELDS = dict(index=4, kind=StepKind.DECODE, ts_ns=10.0, dur_ns=2.5,
                   batch_size=3, queue_depth=1,
                   shape=EngineShape("gpt2", 3, 1, phase="decode",
                                     context_len=64),
                   replica=2)


def test_kv_event_keeps_its_fields_and_defaults():
    event = KvCacheEvent(**KV_FIELDS)
    assert KvCacheEvent._fields == tuple(KV_FIELDS)
    assert [getattr(event, name) for name in KV_FIELDS] == \
        list(KV_FIELDS.values())
    # The keyword construction tests/check uses: replica and refs default.
    short = KvCacheEvent(ts_ns=0.0, kind="alloc", seq=1, blocks=4,
                         allocated=4)
    assert (short.replica, short.refs) == (0, 0)
    assert KvCacheEvent(0.0, "alloc", 1, 4, 4) == short


@pytest.mark.parametrize("field, value, message", [
    ("kind", "teleport", "unknown kv event kind"),
    ("blocks", -1, "negative blocks"),
    ("allocated", -1, "negative allocated"),
    ("refs", -1, "negative refcount"),
])
def test_kv_event_rejects_each_invalid_field(field, value, message):
    with pytest.raises(AnalysisError, match=message):
        KvCacheEvent(**{**KV_FIELDS, field: value})


def test_kv_event_accepts_every_kind():
    for kind in KV_EVENT_KINDS:
        assert KvCacheEvent(**{**KV_FIELDS, "kind": kind}).kind == kind


def test_kv_event_round_trips_through_a_dict():
    event = KvCacheEvent(**KV_FIELDS)
    assert event.to_dict() == KV_FIELDS
    assert KvCacheEvent.from_dict(event.to_dict()) == event
    # Older payloads carry no replica or refs.
    payload = {"ts_ns": 1, "kind": "free", "seq": 2, "blocks": 3,
               "allocated": 0}
    assert KvCacheEvent.from_dict(payload) == KvCacheEvent(
        1.0, "free", 2, 3, 0, 0, 0)
    with pytest.raises(AnalysisError, match="malformed kv event"):
        KvCacheEvent.from_dict({"kind": "free"})


def test_step_event_keeps_its_fields_and_defaults():
    step = StepEvent(**STEP_FIELDS)
    assert StepEvent._fields == tuple(STEP_FIELDS)
    assert [getattr(step, name) for name in STEP_FIELDS] == \
        list(STEP_FIELDS.values())
    assert step.ts_end_ns == 12.5
    short = StepEvent(index=0, kind=StepKind.PREFILL, ts_ns=0.0, dur_ns=1.0,
                      batch_size=1)
    assert (short.queue_depth, short.shape, short.replica) == (0, None, 0)


@pytest.mark.parametrize("field, value, message", [
    ("dur_ns", -1.0, "negative duration"),
    ("batch_size", 0, "no sequences"),
    ("queue_depth", -1, "negative queue depth"),
    ("replica", -1, "negative replica"),
])
def test_step_event_rejects_each_invalid_field(field, value, message):
    with pytest.raises(AnalysisError, match=message):
        StepEvent(**{**STEP_FIELDS, field: value})


@pytest.mark.parametrize("record", [KvCacheEvent(**KV_FIELDS),
                                    StepEvent(**STEP_FIELDS)],
                         ids=["kv", "step"])
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        record.ts_ns = 99.0
    with pytest.raises(AttributeError):
        record.extra = 1
    assert pickle.loads(pickle.dumps(record)) == record


def test_decodes_equals_one_constructor_call_per_sequence():
    events = KvCacheEvent.decodes(3.0, [4, 1, 4], allocated=9, replica=2)
    assert events == [KvCacheEvent(3.0, "decode", seq, 0, 9, 2)
                      for seq in (4, 1, 4)]
    assert all(type(event) is KvCacheEvent for event in events)
    assert KvCacheEvent.decodes(3.0, [], allocated=0) == []
    with pytest.raises(AnalysisError, match="negative allocated"):
        KvCacheEvent.decodes(3.0, [1], allocated=-1)


def _series(**overrides):
    args = dict(index=4, kind=StepKind.DECODE, starts=[10.0, 12.5],
                durations=[2.5, 2.75], batch_size=3, queue_depth=1,
                shapes=[STEP_FIELDS["shape"]] * 2, replica=2)
    args.update(overrides)
    return StepEvent.series(**args)


def test_series_equals_one_constructor_call_per_step():
    events = _series()
    assert events == [
        StepEvent(**STEP_FIELDS),
        StepEvent(**{**STEP_FIELDS, "index": 5, "ts_ns": 12.5,
                     "dur_ns": 2.75})]
    assert all(type(event) is StepEvent for event in events)
    assert _series(shapes=None)[1].shape is None
    assert _series(starts=[], durations=[], batch_size=0) == []


@pytest.mark.parametrize("field, value, message", [
    ("durations", [2.5, -1.0], "step 5 has negative duration"),
    ("batch_size", 0, "step 4 has no sequences"),
    ("queue_depth", -1, "step 4 has negative queue depth"),
    ("replica", -1, "step 4 has negative replica"),
])
def test_series_rejects_each_invalid_field(field, value, message):
    with pytest.raises(AnalysisError, match=message):
        _series(**{field: value})
