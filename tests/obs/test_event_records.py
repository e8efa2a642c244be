"""KvCacheEvent and StepEvent: immutable, validated named-tuple records."""

import json
import pickle

import pytest

from repro.cli import main
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
    assert KvCacheEvent._fields == (*KV_FIELDS, "seqs")
    assert [getattr(event, name) for name in KV_FIELDS] == \
        list(KV_FIELDS.values())
    assert event.seqs == ()
    # The keyword construction tests/check uses: replica, refs and seqs
    # default.
    short = KvCacheEvent(ts_ns=0.0, kind="alloc", seq=1, blocks=4,
                         allocated=4)
    assert (short.replica, short.refs, short.seqs) == (0, 0, ())
    assert KvCacheEvent(0.0, "alloc", 1, 4, 4) == short
    # A decode built without seqs is a v1 per-sequence record.
    assert KvCacheEvent(0.0, "decode", 5, 0, 4).seqs == (5,)
    step = KvCacheEvent(0.0, "decode", -1, 0, 4, seqs=(5, 2))
    assert (step.seq, step.seqs) == (-1, (5, 2))
    with pytest.raises(AnalysisError, match="grow event carries seqs"):
        KvCacheEvent(**{**KV_FIELDS, "seqs": (3,)})


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


def test_decode_step_round_trips_through_a_dict():
    step = KvCacheEvent.decode_step(3.0, (4, 1, 7), allocated=9, replica=2)
    payload = step.to_dict()
    assert payload == {"ts_ns": 3.0, "kind": "decode", "seq": -1,
                       "blocks": 0, "allocated": 9, "replica": 2,
                       "refs": 0, "seqs": [4, 1, 7]}
    assert KvCacheEvent.from_dict(json.loads(json.dumps(payload))) == step
    # Only decode events write seqs.
    assert "seqs" not in KvCacheEvent(**KV_FIELDS).to_dict()
    # A v1 per-sequence decode reads as a one-id step.
    v1 = {"ts_ns": 3.0, "kind": "decode", "seq": 4, "blocks": 0,
          "allocated": 9, "replica": 2, "refs": 0}
    assert KvCacheEvent.from_dict(v1).seqs == (4,)


V2_DECODE = {"ts_ns": 3.0, "kind": "decode", "seq": -1, "blocks": 0,
             "allocated": 9, "replica": 0, "refs": 0, "seqs": [4, 1]}
BAD_SEQS = [
    pytest.param({**V2_DECODE, "kind": "grow", "seq": 4, "blocks": 1},
                 "non-decode event", id="on-grow"),
    pytest.param({**V2_DECODE, "kind": "free", "seqs": [4]},
                 "non-decode event", id="on-free"),
    pytest.param({**V2_DECODE, "seqs": []}, "non-empty list", id="empty"),
    pytest.param({**V2_DECODE, "seqs": None}, "non-empty list", id="null"),
    pytest.param({**V2_DECODE, "seqs": 4}, "non-empty list", id="scalar"),
    pytest.param({**V2_DECODE, "seqs": "41"}, "non-empty list", id="text"),
    pytest.param({**V2_DECODE, "seqs": [4, "1"]}, "non-empty list",
                 id="string-id"),
    pytest.param({**V2_DECODE, "seqs": [4, 1.0]}, "non-empty list",
                 id="float-id"),
    pytest.param({**V2_DECODE, "seqs": [True]}, "non-empty list",
                 id="bool-id"),
]


@pytest.mark.parametrize("payload, message", BAD_SEQS)
def test_from_dict_rejects_bad_seqs(payload, message):
    with pytest.raises(AnalysisError, match=message):
        KvCacheEvent.from_dict(payload)


@pytest.mark.parametrize("payload, message", BAD_SEQS)
def test_check_trace_exits_2_on_bad_seqs(tmp_path, capsys, payload,
                                         message):
    trace = {"traceEvents": [], "metadata": {"kv": {
        "pools": {"0": {"capacity_blocks": 16, "policy": "offload",
                        "block_tokens": 16}},
        "events": [{"ts_ns": 0.0, "kind": "alloc", "seq": 4, "blocks": 2,
                    "allocated": 2, "replica": 0, "refs": 0}, payload]}}}
    path = tmp_path / "bad-seqs.json"
    path.write_text(json.dumps(trace))
    assert main(["check", "trace", str(path)]) == 2
    assert message in capsys.readouterr().err


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


def test_decode_step_equals_one_constructor_call():
    ids = (4, 1, 7)
    step = KvCacheEvent.decode_step(3.0, ids, allocated=9, replica=2)
    assert step == KvCacheEvent(3.0, "decode", -1, 0, 9, 2, 0, ids)
    assert type(step) is KvCacheEvent
    assert step.seqs is ids  # a window shares one tuple between its steps
    with pytest.raises(AnalysisError, match="negative allocated"):
        KvCacheEvent.decode_step(3.0, (1,), allocated=-1)


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
