"""LatencyModel — cached engine-backed latencies for serving simulations.

Serving simulations need many latency lookups for the same (model, batch,
length) shapes; this wrapper memoizes one engine call per exact shape. A
single-GPU eager or FlashAttention model asks the engine for a priced run,
which the scalar pass of :mod:`repro.engine.pricing` answers by walking
one layer's op plans through the launch recurrence without simulating or
recording anything; TP, PP, compiled and graph-replay models run the
engine in tape mode instead. Both give the same floats. It does not interpolate: the continuous-batching loops round
decode context lengths up to ``ContinuousBatchPolicy.context_bucket``
before they look a step up, which bounds the number of distinct shapes,
and :meth:`LatencyModel.generation_ns` prices a K-token generation from
two decode lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.executor import EngineConfig, RunResult, run
from repro.engine.modes import ExecutionMode
from repro.engine.pp import PPConfig
from repro.engine.pricing import priceable
from repro.engine.tp import TPConfig
from repro.errors import ConfigurationError
from repro.hardware.platform import Platform
from repro.skip.metrics import metrics_from_tape
from repro.workloads.config import ModelConfig
from repro.workloads.graph import Phase

#: One engine iteration is enough for latency lookups (the engine is
#: deterministic), which keeps sweeps cheap.
_FAST_CONFIG = EngineConfig(iterations=1)


@dataclass
class LatencyModel:
    """Memoized TTFT / decode-step latencies on one platform."""

    platform: Platform
    mode: ExecutionMode = ExecutionMode.EAGER
    engine_config: EngineConfig = field(default=_FAST_CONFIG)
    #: Tensor-parallel topology for every engine run behind this model.
    #: Fixed per instance, so the latency caches need no extra key.
    tp: TPConfig | None = None
    #: Pipeline-parallel topology, likewise fixed per instance.
    pp: PPConfig | None = None
    _ttft_cache: dict = field(default_factory=dict, repr=False)
    _decode_cache: dict = field(default_factory=dict, repr=False)
    _result_cache: dict = field(default_factory=dict, repr=False)
    # CPU-share caches (host-contention runs): the dispatch-CPU busy time
    # of the same tape run the latency caches are built from. Keyed
    # identically, populated alongside the latency on every cache miss.
    _ttft_cpu_cache: dict = field(default_factory=dict, repr=False)
    _decode_cpu_cache: dict = field(default_factory=dict, repr=False)

    def run_for(self, model: ModelConfig, batch_size: int, seq_len: int,
                phase: Phase = Phase.PREFILL,
                context_len: int | None = None) -> RunResult:
        """The memoized engine run behind one (model, shape) lookup.

        Used by the trace exporter (:mod:`repro.obs.export`) to recover the
        full kernel-level trace of a serving step. Results are cached
        separately from the scalar latency caches, so ordinary serving
        simulations never retain traces.
        """
        key = (model.name, batch_size, seq_len, phase.value, context_len)
        if key not in self._result_cache:
            self._result_cache[key] = run(
                model, self.platform, batch_size=batch_size, seq_len=seq_len,
                phase=phase, context_len=context_len, mode=self.mode,
                config=self.engine_config, tp=self.tp, pp=self.pp)
        return self._result_cache[key]

    def _lookup(self, phase: Phase, cpu: bool, model: ModelConfig,
                batch_size: int, length: int) -> float:
        """Latency (or, with ``cpu``, dispatch-CPU busy time) of a prefill
        of ``length`` tokens or a decode step at KV length ``length``.

        A miss fills both caches of ``phase`` from one engine call. A
        single-GPU eager or FlashAttention model makes it a priced run
        (``run(..., priced=True)``); any other runs the engine in tape mode
        and reads ``metrics_from_tape``.
        Both are bit-identical to the metrics of the full trace, so cached
        latencies (and every serving result built on them) do not depend
        on the path.
        """
        if phase is Phase.PREFILL:
            latency, cpu_busy = self._ttft_cache, self._ttft_cpu_cache
            seq_len, context_len = length, None
        else:
            latency, cpu_busy = self._decode_cache, self._decode_cpu_cache
            seq_len, context_len = 1, length
        cache = cpu_busy if cpu else latency
        key = (model.name, batch_size, length)
        if key not in cache:
            if priceable(self.mode, self.tp, self.pp):
                latency[key], cpu_busy[key] = run(
                    model, self.platform, batch_size=batch_size,
                    seq_len=seq_len, phase=phase, context_len=context_len,
                    mode=self.mode, config=self.engine_config, priced=True)
            else:
                result = run(model, self.platform, batch_size=batch_size,
                             seq_len=seq_len, phase=phase,
                             context_len=context_len, mode=self.mode,
                             config=self.engine_config, tp=self.tp,
                             pp=self.pp, tape=True)
                assert result.tape is not None
                metrics = metrics_from_tape(result.tape)
                latency[key] = metrics.inference_latency_ns
                cpu_busy[key] = metrics.cpu_busy_ns
        return cache[key]

    def ttft_ns(self, model: ModelConfig, batch_size: int, prompt_len: int) -> float:
        """Prefill latency (time-to-first-token)."""
        return self._lookup(Phase.PREFILL, False, model, batch_size, prompt_len)

    def ttft_cpu_ns(self, model: ModelConfig, batch_size: int,
                    prompt_len: int) -> float:
        """Dispatch-CPU busy time inside one prefill (the launch-tax share
        a host-contention run books on the finite core pool)."""
        return self._lookup(Phase.PREFILL, True, model, batch_size, prompt_len)

    def decode_step_ns(self, model: ModelConfig, batch_size: int,
                       context_len: int) -> float:
        """Latency of one decode step at a given KV-cache length."""
        return self._lookup(Phase.DECODE, False, model, batch_size, context_len)

    def decode_step_cpu_ns(self, model: ModelConfig, batch_size: int,
                           context_len: int) -> float:
        """Dispatch-CPU busy time inside one decode step (see
        :meth:`ttft_cpu_ns`)."""
        return self._lookup(Phase.DECODE, True, model, batch_size, context_len)

    def generation_ns(self, model: ModelConfig, batch_size: int,
                      prompt_len: int, output_tokens: int) -> float:
        """End-to-end latency: prefill plus ``output_tokens`` decode steps.

        Decode cost is integrated with a two-point trapezoid over the context
        growth (decode latency is near-affine in context length).
        """
        if output_tokens < 0:
            raise ConfigurationError("output_tokens must be non-negative")
        total = self.ttft_ns(model, batch_size, prompt_len)
        if output_tokens == 0:
            return total
        first = self.decode_step_ns(model, batch_size, prompt_len + 1)
        last = self.decode_step_ns(model, batch_size, prompt_len + output_tokens)
        return total + output_tokens * (first + last) / 2.0

    def tokens_per_second(self, model: ModelConfig, batch_size: int,
                          prompt_len: int, output_tokens: int) -> float:
        """Aggregate generated-token throughput for a full batch."""
        total_ns = self.generation_ns(model, batch_size, prompt_len, output_tokens)
        if total_ns <= 0:
            raise ConfigurationError("generation latency must be positive")
        return batch_size * output_tokens / (total_ns / 1e9)
