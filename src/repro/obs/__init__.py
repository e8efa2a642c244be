"""Simulation observability: structured run recording and trace export.

The serving and engine layers accept an optional :class:`RunRecorder`; a
recorded run summarizes into percentile tables, renders as a timeline, and
exports (via :func:`recording_to_trace` + :mod:`repro.trace.chrome`) as a
Chrome trace that SKIP's own analysis pipeline consumes unmodified. Runs
with causality logging on (``SimCore(causality=...)``) additionally export
a JSON sidecar (:meth:`repro.sim.CausalityLog.dump`) that
``repro check hb`` verifies offline.
"""

from repro.obs.events import EngineShape, RequestSpan, StepEvent, StepKind
from repro.obs.stats import CounterSet, Histogram, HistogramSummary
from repro.obs.recorder import RunRecorder, RunSummary
from repro.obs.export import recording_to_trace

__all__ = [
    "CounterSet",
    "EngineShape",
    "Histogram",
    "HistogramSummary",
    "RequestSpan",
    "RunRecorder",
    "RunSummary",
    "StepEvent",
    "StepKind",
    "recording_to_trace",
]
