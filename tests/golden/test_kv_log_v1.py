"""A frozen v1 KV log: traces written before ``decode`` events became
per-step records must still replay.

``data/kv_offload_v1_trace.json`` is the export of::

    repro serve --model gpt2 --platform GH200 --rate 40 --duration 0.2 \\
        --prompt-len 48 --output-tokens 32 --max-active 4 \\
        --kv-policy offload --kv-pool-gib 0.0094 --emit-trace ...

taken while the KV log held one ``decode`` event per sequence per step,
with ``traceEvents`` emptied: the K-rules read only the ``kv`` metadata
block, and the serve's 45k kernels would weigh 32 MB. Its log holds two
swap-out/swap-in pairs. Never regenerate it: it stands for the traces
already written in the old form.
"""

import copy
import json

from repro.check import check_kv_metadata
from repro.cli import _FAST, main
from repro.hardware import get_platform
from repro.kvcache import KvCacheConfig, KvPolicy
from repro.obs import RunRecorder
from repro.serving import ContinuousBatchPolicy, LatencyModel, simulate_serving
from repro.serving.requests import poisson_requests
from repro.workloads import GPT2
from tests.golden.conftest import DATA_DIR

FIXTURE = DATA_DIR / "kv_offload_v1_trace.json"


def _fixture_kv() -> dict:
    return json.loads(FIXTURE.read_text())["metadata"]["kv"]


def per_sequence(rows):
    """A KV log in its v1 form: each per-step ``decode`` row (one with
    ``seqs``) becomes one row per sequence; other rows pass through."""
    for row in rows:
        seqs = row.get("seqs")
        if seqs is None:
            yield row
            continue
        fields = {key: value for key, value in row.items() if key != "seqs"}
        for seq in seqs:
            yield {**fields, "seq": seq}


def test_check_trace_on_the_v1_fixture_is_clean(capsys):
    assert main(["check", "trace", str(FIXTURE)]) == 0
    assert "clean" in capsys.readouterr().out
    assert check_kv_metadata(_fixture_kv()) == []


def test_a_decode_moved_past_its_swap_out_raises_k003():
    kv = copy.deepcopy(_fixture_kv())
    events = kv["events"]
    out = next(i for i, e in enumerate(events) if e["kind"] == "swap_out")
    seq = events[out]["seq"]
    last = max(i for i, e in enumerate(events[:out])
               if e["kind"] == "decode" and e["seq"] == seq)
    events.insert(out, events.pop(last))  # now right after the swap_out
    assert events[out - 1]["kind"] == "swap_out"
    findings = check_kv_metadata(kv)
    k003 = [f for f in findings if f.rule_id == "K003"]
    assert len(k003) == 1
    assert f"seq {seq} decoded while" in k003[0].message


def test_the_same_serve_logs_the_fixture_in_per_sequence_form():
    requests = poisson_requests(rate_per_s=40, duration_s=0.2,
                                prompt_len=48, output_tokens=32, seed=0)
    recorder = RunRecorder()
    simulate_serving(
        requests, GPT2, LatencyModel(get_platform("GH200"),
                                     engine_config=_FAST),
        policy=ContinuousBatchPolicy(max_active=4),
        kv=KvCacheConfig(policy=KvPolicy.OFFLOAD, pool_gib=0.0094),
        recorder=recorder)
    logged = [event.to_dict() for event in recorder.kv_events]
    assert list(per_sequence(logged)) == _fixture_kv()["events"]
