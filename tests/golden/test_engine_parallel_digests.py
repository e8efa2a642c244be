"""Frozen digests of the launch-mode traces the TP=1 corpus does not cover.

``legacy_engine_digests.json`` locks every single-device trace. This module
locks the multi-device launch-mode drivers: single-thread and per-device
tensor-parallel dispatch, pipeline stages, their composition, the compiled
and proximity-fused lowerings under both, and a shallow launch queue that
makes every driver wait on its backlog. It also locks the happens-before
log of one per-device TP run and one PP run, event for event.

``data/engine_parallel_digests.json`` was written before the three
launch-mode processes shared one op walk. Never regenerate it: a refactor
of the engine processes must reproduce these traces bit for bit.
"""

import hashlib
import json

import pytest

from repro.engine import (
    DispatchMode, EngineConfig, ExecutionMode, FusionPlan, PPConfig,
    TPConfig, run)
from repro.hardware import INTEL_H100
from repro.sim.causality import CausalityLog
from repro.workloads import GPT2
from tests.golden.conftest import DATA_DIR
from tests.property.test_tp_properties import digest

FIXTURE = DATA_DIR / "engine_parallel_digests.json"
FAST = EngineConfig(iterations=1)
#: Warm-up plus a 48-deep launch queue on a GPU-bound shape, so the
#: backlog wait binds in every driver.
BACKLOG = EngineConfig(warmup_iterations=1, launch_queue_depth=48)
SINGLE = DispatchMode.SINGLE_THREAD
PER_DEVICE = DispatchMode.THREAD_PER_DEVICE
EAGER = ExecutionMode.EAGER
#: GPT-2's GELU chain, present in every decoder layer.
GELU_CHAIN = FusionPlan(chains=((
    "vectorized_elementwise_kernel<4, pow_f16>",
    "vectorized_elementwise_kernel<4, mul_f16>",
    "vectorized_elementwise_kernel<4, add_f16>",
    "vectorized_elementwise_kernel<4, mul_f16>",
    "vectorized_elementwise_kernel<4, tanh_f16>",
    "vectorized_elementwise_kernel<4, add_f16>",
    "vectorized_elementwise_kernel<4, mul_f16>",
    "vectorized_elementwise_kernel<4, mul_f16>",
),))


def _tp(degree, dispatch=SINGLE):
    return TPConfig(degree=degree, dispatch=dispatch)


def _pp(stages, microbatches=1):
    return PPConfig(stages=stages, microbatches=microbatches)


def _case(case_id, tp=None, pp=None, mode=EAGER, config=FAST, batch_size=1,
          seq_len=64):
    return pytest.param(tp, pp, mode, config, batch_size, seq_len,
                        id=case_id)


CASES = [
    *(_case(f"tp{degree}-{dispatch.value}", tp=_tp(degree, dispatch))
      for degree in (2, 4) for dispatch in (SINGLE, PER_DEVICE)),
    *(_case(f"pp{stages}x{microbatches}", pp=_pp(stages, microbatches))
      for stages in (2, 4) for microbatches in (1, 2)),
    _case("pp2x2-tp2", tp=_tp(2), pp=_pp(2, 2)),
    *(_case(f"{mode.value}-{label}", tp=tp, pp=pp, mode=mode)
      for mode in (ExecutionMode.COMPILE_DEFAULT,
                   ExecutionMode.PROXIMITY_FUSED)
      for label, tp, pp in (("tp2-single", _tp(2), None),
                            ("tp2-per-device", _tp(2, PER_DEVICE), None),
                            ("pp2", None, _pp(2)))),
    *(_case(f"backlog-{label}", tp=tp, pp=pp, config=BACKLOG, batch_size=32,
            seq_len=256)
      for label, tp, pp in (("tp1", None, None),
                            ("tp2-single", _tp(2), None),
                            ("tp2-per-device", _tp(2, PER_DEVICE), None),
                            ("pp2x2", None, _pp(2, 2)),
                            ("pp2x2-tp2", _tp(2), _pp(2, 2)))),
]

#: Runs whose happens-before log is locked event for event.
CAUSALITY_CASES = [
    _case("causality-tp2-per-device", tp=_tp(2, PER_DEVICE)),
    _case("causality-pp2x2", pp=_pp(2, 2)),
]


def _run(tp, pp, mode, config, batch_size, seq_len, causality=None):
    plan = GELU_CHAIN if mode is ExecutionMode.PROXIMITY_FUSED else None
    return run(GPT2, INTEL_H100, batch_size=batch_size, seq_len=seq_len,
               mode=mode, config=config, tp=tp, pp=pp, fusion_plan=plan,
               causality=causality)


def causality_digest(log: CausalityLog) -> str:
    """Hash of every event of a happens-before log, in emission order."""
    return hashlib.sha256(repr(log.to_dict()).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def frozen_digests():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("tp,pp,mode,config,batch_size,seq_len", CASES)
def test_parallel_trace_matches_frozen_digest(tp, pp, mode, config,
                                              batch_size, seq_len, request,
                                              frozen_digests):
    trace = _run(tp, pp, mode, config, batch_size, seq_len).trace
    assert digest(trace) == frozen_digests[request.node.callspec.id]


@pytest.mark.parametrize("tp,pp,mode,config,batch_size,seq_len",
                         CAUSALITY_CASES)
def test_causality_log_matches_frozen_digest(tp, pp, mode, config,
                                             batch_size, seq_len, request,
                                             frozen_digests):
    log = CausalityLog()
    _run(tp, pp, mode, config, batch_size, seq_len, causality=log)
    assert (len(log), causality_digest(log)) == tuple(
        frozen_digests[request.node.callspec.id])


def test_fusion_plan_fuses_the_locked_runs():
    """The proximity-fused cases exercise fused kernels, not the eager
    stream under another name."""
    trace = _run(_tp(2), None, ExecutionMode.PROXIMITY_FUSED, FAST, 1,
                 64).trace
    assert any(k.name.startswith("fused_chain") for k in trace.kernels)
