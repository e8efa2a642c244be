"""No-fallback lock for the scalar pricing pass.

A single-GPU eager ``LatencyModel`` miss is one priced engine call,
answered by :func:`repro.engine.pricing.price_step`, which simulates
nothing. Three probes would move if it fell back to a full engine run: the
process-wide count of simulation events, the global trace-event id
counter, and the lowering cache (its hit/miss counters and its tables). A
compiled-mode miss, which does simulate, moves them, so the probes are
shown to see a run. The pass is still reached through the engine entry
point, once per miss, so whatever watches that entry point sees every
miss.
"""

from dataclasses import replace

from repro.engine import ExecutionMode
from repro.engine.cache import LOWERING_CACHE
from repro.hardware import get_platform
from repro.serving import LatencyModel, latency
from repro.sim import core as sim_core
from repro.trace import events as trace_events
from repro.workloads import get_model

GH200 = get_platform("GH200")
LLAMA = get_model("llama-3.2-1b")


def _probes() -> tuple:
    """(sim events, next trace-event id, cache stats, cache keys).

    Reading the id counter draws one id, so two consecutive reads differ by
    exactly one when nothing else drew.
    """
    return (sim_core.EVENTS_TOTAL, next(trace_events._event_ids),
            replace(LOWERING_CACHE.stats),
            list(LOWERING_CACHE._graphs), list(LOWERING_CACHE._lowerings))


def _moved(before: tuple, after: tuple) -> list[str]:
    names = ("sim events", "trace ids", "cache stats", "cached graphs",
             "cached lowerings")
    expected = list(before)
    expected[1] += 1  # the probe's own draw
    return [name for name, old, new in zip(names, expected, after)
            if old != new]


def _miss(mode: ExecutionMode) -> list[str]:
    model = LatencyModel(GH200, mode=mode)
    before = _probes()
    model.ttft_ns(LLAMA, 3, 211)
    model.decode_step_cpu_ns(LLAMA, 5, 333)
    return _moved(before, _probes())


def test_priced_miss_runs_no_engine():
    assert _miss(ExecutionMode.EAGER) == []
    assert _miss(ExecutionMode.FLASH_ATTENTION) == []


def test_engine_backed_miss_moves_the_probes():
    moved = _miss(ExecutionMode.COMPILE_DEFAULT)
    assert "sim events" in moved
    assert "cache stats" in moved and "cached lowerings" in moved


def test_each_priced_miss_is_one_engine_call(monkeypatch):
    calls = []
    engine_run = latency.run

    def counting_run(*args, **kwargs):
        calls.append(kwargs.get("priced", False))
        return engine_run(*args, **kwargs)

    monkeypatch.setattr(latency, "run", counting_run)
    model = LatencyModel(GH200)
    model.ttft_ns(LLAMA, 3, 211)
    model.ttft_cpu_ns(LLAMA, 3, 211)
    model.decode_step_cpu_ns(LLAMA, 5, 333)
    model.decode_step_ns(LLAMA, 5, 333)
    assert calls == [True, True]
