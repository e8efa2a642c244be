"""SkipProfiler — the library's front door.

Mirrors the paper's workflow: run inference under a profiler, build the
operator-kernel dependency graph, compute the kernel metrics, classify
boundedness, and recommend fusions. The profiler accepts either a (model,
platform) pair — in which case the engine simulates the run — or an existing
trace (e.g. imported from a real PyTorch Profiler Chrome trace).
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Callable, Sequence

from repro.engine.executor import DEFAULT_CONFIG, EngineConfig, RunResult, run
from repro.engine.pp import PPConfig
from repro.engine.tp import TPConfig
from repro.engine.fusion_apply import FusionPlan
from repro.engine.modes import ExecutionMode
from repro.hardware.platform import Platform
from repro.sim.causality import CausalityLog
from repro.skip.classify import Boundedness, classify_metrics
from repro.skip.depgraph import DependencyGraph
from repro.skip.fusion import (
    DEFAULT_CHAIN_LENGTHS, FusionAnalysis, analyze_segments,
)
from repro.skip.metrics import SkipMetrics, metrics_from_tape
from repro.skip.proximity import tape_segments
from repro.trace.tape import TraceTape
from repro.trace.trace import Trace
from repro.workloads.config import ModelConfig
from repro.workloads.graph import Phase


class ProfileResult:
    """Everything SKIP derives from one profiled run.

    ``metrics``, ``metadata`` and the kernel segments come from the run's
    tape. A result of :meth:`SkipProfiler.profile` is tape-first: the
    engine writes the tape, and ``trace``, ``depgraph`` and ``run_result``
    are built on first read by re-running the same call with a full trace
    (without the causality log). Callers that read only metrics or fusions
    never build a :class:`Trace`. A result of :meth:`SkipProfiler.analyze`
    holds its trace from the start and reads it through its tape form.
    """

    def __init__(self, tape: TraceTape,
                 rerun: Callable[[], RunResult] | None = None) -> None:
        self.metrics: SkipMetrics = metrics_from_tape(tape)
        self.metadata = tape.metadata
        self._tape = tape
        self._rerun = rerun

    @cached_property
    def run_result(self) -> RunResult | None:
        """The profiled run, carrying its full trace."""
        assert self._rerun is not None
        return self._rerun()

    @cached_property
    def trace(self) -> Trace:
        assert self.run_result is not None and self.run_result.trace is not None
        return self.run_result.trace

    @cached_property
    def depgraph(self) -> DependencyGraph:
        return DependencyGraph.from_trace(self.trace)

    @cached_property
    def segments(self) -> list[list[str]]:
        """Kernel-name sequences per iteration, in launch order."""
        return tape_segments(self._tape)

    @property
    def boundedness(self) -> Boundedness:
        """Trace-only CPU/GPU-bound classification."""
        return classify_metrics(self.metrics)

    def recommend_fusions(
        self,
        lengths: Sequence[int] = DEFAULT_CHAIN_LENGTHS,
        threshold: float = 1.0,
    ) -> list[FusionAnalysis]:
        """Proximity-score fusion recommendations for this run."""
        return analyze_segments(self.segments, lengths, threshold)

    def fusion_plan(
        self,
        lengths: Sequence[int] = DEFAULT_CHAIN_LENGTHS,
        threshold: float = 1.0,
    ) -> FusionPlan | None:
        """The best single-length plan (highest idealized speedup)."""
        analyses = self.recommend_fusions(lengths, threshold)
        best = max(analyses, key=lambda a: a.ideal_speedup)
        return best.plan()


class SkipProfiler:
    """System-aware Kernel Inference Profiler (simulation-backed).

    Example:
        >>> from repro.hardware import GH200
        >>> from repro.workloads import LLAMA_3_2_1B
        >>> profiler = SkipProfiler(GH200)
        >>> result = profiler.profile(LLAMA_3_2_1B, batch_size=8)
        >>> result.metrics.tklqt_ns > 0
        True
    """

    def __init__(self, platform: Platform,
                 engine_config: EngineConfig = DEFAULT_CONFIG) -> None:
        self.platform = platform
        self.engine_config = engine_config

    def profile(
        self,
        model: ModelConfig,
        batch_size: int = 1,
        seq_len: int = 512,
        mode: ExecutionMode = ExecutionMode.EAGER,
        phase: Phase = Phase.PREFILL,
        context_len: int | None = None,
        fusion_plan: FusionPlan | None = None,
        tp: TPConfig | None = None,
        pp: PPConfig | None = None,
        causality: CausalityLog | None = None,
    ) -> ProfileResult:
        """Simulate a run on this profiler's platform and analyze its tape.

        The engine runs once, in tape mode, with ``causality`` recording
        that run. The result's trace is built only if it is read.
        """
        call = partial(run, model, self.platform, batch_size=batch_size,
                       seq_len=seq_len, mode=mode, phase=phase,
                       context_len=context_len, config=self.engine_config,
                       fusion_plan=fusion_plan, tp=tp, pp=pp)
        tape = call(tape=True, causality=causality).tape
        assert tape is not None
        return ProfileResult(tape, rerun=call)

    def profile_graph(
        self,
        graph,
        mode: ExecutionMode = ExecutionMode.EAGER,
        fusion_plan: FusionPlan | None = None,
    ) -> ProfileResult:
        """Simulate and analyze a prebuilt operator graph.

        Lets non-Transformer workloads (DLRM, GCN, hand-built streams) go
        through the same profiling pipeline as the cataloged models.
        """
        run_result = run(graph, self.platform, mode=mode,
                         config=self.engine_config, fusion_plan=fusion_plan)
        return self.analyze(run_result.trace, run_result)

    @staticmethod
    def analyze(trace: Trace, run_result: RunResult | None = None) -> ProfileResult:
        """Analyze an existing trace (simulated or imported).

        Raises:
            TraceError: when a launch call has no matching kernel, or two
                kernels share a correlation id.
            AnalysisError: when the trace has no iterations or an iteration
                has no kernels or no operators.
        """
        result = ProfileResult(TraceTape.from_trace(trace))
        result.trace = trace
        result.run_result = run_result
        return result
