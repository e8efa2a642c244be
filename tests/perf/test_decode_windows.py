"""Engagement locks for decode windows.

Decode-only stretches run as windows without yielding to the sim core
(:meth:`StepPlanner.decode_window`). Outputs cannot tell a window from
one yield per step (the parity tables hold them bit-identical), so these
tests watch the event count: a silent fallback to one wake-up per decode
step would process at least one core event per step. Two unit tests pin
where :meth:`EngineSession.execute_steps` itself ends a window.
"""

import pytest

from repro.hardware import get_platform
from repro.host import HostConfig, HostModel
from repro.kvcache import KvCacheConfig, KvPolicy
from repro.obs import RunRecorder
from repro.obs.events import StepKind
from repro.serving import ContinuousBatchPolicy, LatencyModel
from repro.serving.continuous import continuous_batching_process
from repro.serving.planner import DecodeStep
from repro.serving.requests import poisson_requests
from repro.serving.runtime import ServingRuntime
from repro.workloads import GPT2


def serve(kv):
    requests = poisson_requests(rate_per_s=40, duration_s=0.25,
                                prompt_len=256, output_tokens=96, seed=3)
    recorder = RunRecorder()
    runtime = ServingRuntime(requests, GPT2,
                             LatencyModel(platform=get_platform("AMD+A100")),
                             recorder=recorder, kv=kv)
    policy = ContinuousBatchPolicy(max_active=4)
    runtime.run(lambda rt, session: continuous_batching_process(rt, session,
                                                                policy))
    decode_steps = sum(1 for step in recorder.steps
                       if step.kind is StepKind.DECODE)
    return runtime, decode_steps


@pytest.mark.parametrize("kv", [
    KvCacheConfig(policy=KvPolicy.OFFLOAD, pool_gib=0.03),
    None,
], ids=["kv", "plain"])
def test_decode_steps_outnumber_core_events(kv):
    runtime, decode_steps = serve(kv)
    assert len(runtime.outcomes) == len(runtime.queue.entries)
    assert decode_steps > 200
    assert runtime.core.events_processed < decode_steps / 4


def _session(host):
    requests = poisson_requests(rate_per_s=40, duration_s=0.1,
                                prompt_len=64, output_tokens=4, seed=1)
    runtime = ServingRuntime(requests, GPT2,
                             LatencyModel(platform=get_platform("Intel+H100")),
                             recorder=RunRecorder(), host=host)
    return runtime.sessions[0], runtime.recorder


def _steps(count):
    return iter([DecodeStep(1000.0, 100.0, None)] * count)


def test_execute_steps_stops_at_the_horizon():
    session, recorder = _session(host=None)
    assert session.execute_steps(StepKind.DECODE, 0.0, _steps(4), 2,
                                 horizon_ns=2500.0) == [0.0, 1000.0,
                                                        2000.0, 3000.0]
    assert session.steps == 3 and len(recorder.steps) == 3


def test_first_decode_step_under_a_host_runs_alone():
    # Its counters must be inserted before a later step's first remote
    # grant could insert one, as a one-step loop orders them.
    session, recorder = _session(
        host=HostModel.for_platform("Intel+H100", 1, HostConfig(cores=2)))
    assert len(session.execute_steps(StepKind.DECODE, 0.0, _steps(3),
                                     2)) == 2
    assert len(session.execute_steps(StepKind.DECODE, 5000.0, _steps(3),
                                     2)) == 4
    assert recorder.steps_of(StepKind.DECODE) == 4
