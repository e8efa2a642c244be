"""Trace linter: static verification of Chrome traces + exact-ns sidecars.

Checks the artifacts the exporters emit (:mod:`repro.trace.chrome`,
``repro serve --emit-trace``) before any analysis consumes them:

* raw-file checks on the JSON event list — canonical (timestamp,
  correlation) ordering, parseability, and agreement between the
  microsecond fields and the exact-nanosecond sidecar;
* structural checks on the parsed trace — 1:1 launch↔kernel correlation
  ids, kernels that never start before their launch call, non-overlapping
  kernels per (device, stream), well-ordered iteration marks;
* metric identities — TKLQT, AKD, inference latency, and GPU idle time
  recomputed from the raw events with an independent sweep and compared
  against :func:`repro.skip.metrics.compute_metrics` within tolerance.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from pathlib import Path
from typing import Any, Callable

from repro.check.findings import Finding, Severity, register_rule
from repro.errors import ReproError
from repro.trace import chrome
from repro.trace.events import LAUNCH_KERNEL
from repro.trace.trace import Trace

T001 = register_rule(
    "T001", "trace", "events not in canonical (timestamp, correlation) order")
T002 = register_rule("T002", "trace", "trace or event is malformed")
T003 = register_rule("T003", "trace", "duplicate kernel correlation id")
T004 = register_rule("T004", "trace", "kernel has no matching launch call")
T005 = register_rule("T005", "trace", "launch call has no matching kernel")
T006 = register_rule("T006", "trace", "kernel begins before its launch call")
T007 = register_rule("T007", "trace", "kernels overlap on one (device, stream)")
T008 = register_rule(
    "T008", "trace", "iteration marks overlap or are out of order")
T009 = register_rule(
    "T009", "trace", "exact-ns sidecar disagrees with microsecond fields")
T010 = register_rule(
    "T010", "trace", "recomputed SKIP metric identities diverge")

#: Slack for us-vs-ns sidecar agreement: the ns -> us conversion costs at
#: most a float ulp, far below 2 ns for any realistic trace span.
_SIDECAR_TOL_NS = 2.0
#: Relative tolerance for metric-identity comparison.
_METRIC_REL_TOL = 1e-9


def _event_ts_ns(raw: dict[str, Any]) -> float:
    args = raw.get("args") or {}
    if "ts_ns" in args:
        return float(args["ts_ns"])
    return float(raw.get("ts", 0.0)) * 1e3


def lint_chrome_text(text: str) -> tuple[list[Finding], Trace | None]:
    """Lint a Chrome-trace JSON string; returns findings + parsed trace."""
    findings: list[Finding] = []
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [Finding(T002, Severity.ERROR, "file",
                        f"invalid JSON: {exc}")], None
    raw_events = payload.get("traceEvents", []) if isinstance(payload, dict) \
        else payload
    if not isinstance(raw_events, list):
        return [Finding(T002, Severity.ERROR, "file",
                        "traceEvents is not a list")], None

    previous_key: tuple[float, float] | None = None
    for index, raw in enumerate(raw_events):
        if not isinstance(raw, dict) or raw.get("ph") != "X":
            continue
        where = f"event[{index}] {raw.get('name', '?')!r}"
        args = raw.get("args") or {}
        for us_field, ns_field in (("ts", "ts_ns"), ("dur", "dur_ns")):
            if ns_field in args:
                ns = float(args[ns_field])
                us = float(raw.get(us_field, 0.0))
                if abs(us * 1e3 - ns) > _SIDECAR_TOL_NS:
                    findings.append(Finding(
                        T009, Severity.ERROR, where,
                        f"{us_field}={us}us disagrees with "
                        f"{ns_field}={ns}ns"))
        if float(raw.get("dur", 0.0)) < 0:
            findings.append(Finding(
                T002, Severity.ERROR, where,
                f"negative duration {raw.get('dur')}"))
        correlation = float(args.get("correlation", args.get(
            "Sequence number", -1)))
        key = (_event_ts_ns(raw), correlation)
        if previous_key is not None and key[0] < previous_key[0]:
            findings.append(Finding(
                T001, Severity.ERROR, where,
                f"begins at {key[0]}ns, before the preceding event at "
                f"{previous_key[0]}ns"))
        previous_key = key

    if any(f.rule_id == "T002" for f in findings):
        return findings, None
    try:
        trace = chrome.loads(text)
    except ReproError as exc:
        findings.append(Finding(T002, Severity.ERROR, "file", str(exc)))
        return findings, None
    findings.extend(lint_trace(trace))
    return findings, trace


def lint_chrome_file(path: str | Path) -> tuple[list[Finding], Trace | None]:
    """Lint a Chrome-trace JSON file (raw + structural + identity checks)."""
    from repro.errors import TraceError

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") from exc
    return lint_chrome_text(text)


def lint_trace(trace: Trace) -> list[Finding]:
    """Structural and metric-identity checks on a parsed trace."""
    findings: list[Finding] = []

    # --- launch <-> kernel correlation integrity -----------------------
    kernels_by_corr: dict[int, Any] = {}
    for kernel in trace.kernels:
        if kernel.correlation_id < 0:
            continue  # graph-replayed kernels have no individual launch
        if kernel.correlation_id in kernels_by_corr:
            findings.append(Finding(
                T003, Severity.ERROR, f"kernel {kernel.name!r}",
                f"correlation id {kernel.correlation_id} already used by "
                f"{kernels_by_corr[kernel.correlation_id].name!r}"))
            continue
        kernels_by_corr[kernel.correlation_id] = kernel

    launches_by_corr: dict[int, Any] = {}
    for call in trace.runtime_calls:
        if call.name == LAUNCH_KERNEL and call.correlation_id >= 0:
            launches_by_corr[call.correlation_id] = call

    for correlation, kernel in sorted(kernels_by_corr.items()):
        call = launches_by_corr.get(correlation)
        if call is None:
            findings.append(Finding(
                T004, Severity.ERROR, f"kernel {kernel.name!r}",
                f"correlation id {correlation} matches no launch call"))
        elif kernel.ts < call.ts:
            findings.append(Finding(
                T006, Severity.ERROR, f"kernel {kernel.name!r}",
                f"begins at {kernel.ts}ns before its launch call at "
                f"{call.ts}ns"))
    for correlation, call in sorted(launches_by_corr.items()):
        if correlation not in kernels_by_corr:
            findings.append(Finding(
                T005, Severity.ERROR, f"launch at {call.ts}ns",
                f"correlation id {correlation} matches no kernel"))

    # --- in-order streams ----------------------------------------------
    per_stream: dict[tuple[int, int], list] = {}
    for kernel in trace.kernels:
        per_stream.setdefault((kernel.device, kernel.stream), []).append(kernel)
    for (device, stream), stream_kernels in sorted(per_stream.items()):
        stream_kernels.sort(key=lambda k: (k.ts, k.event_id))
        for earlier, later in zip(stream_kernels, stream_kernels[1:]):
            if later.ts < earlier.ts_end - 1e-6:
                findings.append(Finding(
                    T007, Severity.ERROR,
                    f"device {device} stream {stream}",
                    f"kernel {later.name!r} at {later.ts}ns overlaps "
                    f"{earlier.name!r} ending at {earlier.ts_end}ns"))

    # --- iteration marks -----------------------------------------------
    marks = sorted(trace.iterations, key=lambda m: m.ts)
    for earlier, later in zip(marks, marks[1:]):
        if later.ts < earlier.ts_end:
            findings.append(Finding(
                T008, Severity.ERROR, f"iteration {later.index}",
                f"begins at {later.ts}ns inside iteration {earlier.index} "
                f"ending at {earlier.ts_end}ns"))

    if not any(f.severity is Severity.ERROR for f in findings):
        findings.extend(_check_metric_identities(trace))
    return findings


def _independent_sweep(
        trace: Trace) -> Callable[[float, float], dict[str, float] | None]:
    """Eq. 2-5 per iteration, recomputed with a plain sweep.

    Deliberately shares no code with :mod:`repro.skip.metrics`: launches are
    matched to kernels by correlation id directly, roots are recovered with
    a per-thread interval sweep, and the identities come straight from the
    paper's equations. The matching, the root sweep and a ts-sorted index
    of each event kind are built once per trace. The returned function
    cuts one iteration ``[ts, ts_end)`` out by bisection, back in trace
    order, and gives its identities, or ``None`` when it has no kernels or
    no operators.
    """
    kernels_by_corr = {k.correlation_id: k for k in trace.kernels
                       if k.correlation_id >= 0}
    matched = []
    for call in trace.runtime_calls:
        if call.name == LAUNCH_KERNEL and call.correlation_id >= 0:
            kernel = kernels_by_corr.get(call.correlation_id)
            if kernel is not None:
                matched.append((call, kernel))
    matched_in = _window(matched, lambda pair: pair[0].ts)
    replayed_in = _window([k for k in trace.kernels if k.correlation_id < 0],
                          lambda k: k.ts)

    # Top-level operators: per thread, an operator is a root when it begins
    # at or after the previous root's end (operators nest properly). The
    # sweep visits operators in ts order, so the roots are ts-sorted.
    roots = []
    open_end: dict[int, float] = {}
    for op in sorted(trace.operators, key=lambda o: (o.ts, -o.dur, o.seq)):
        if op.ts >= open_end.get(op.tid, -math.inf):
            roots.append(op)
            open_end[op.tid] = op.ts_end
    root_begins = [o.ts for o in roots]

    def iteration_metrics(ts: float, ts_end: float) -> dict[str, float] | None:
        window_matched = matched_in(ts, ts_end)
        kernels = [k for _, k in window_matched] + replayed_in(ts, ts_end)
        if not kernels:
            return None
        window_roots = roots[bisect_left(root_begins, ts):
                             bisect_left(root_begins, ts_end)]
        if not window_roots:
            return None

        gpu_busy = sum(k.dur for k in kernels)
        latency = (max(k.ts_end for k in kernels)
                   - min(o.ts for o in window_roots))
        return {
            "tklqt_ns": sum(k.ts - call.ts for call, k in window_matched),
            "akd_ns": gpu_busy / len(kernels),
            "inference_latency_ns": latency,
            "gpu_idle_ns": latency - gpu_busy,
            "kernel_launches": float(len(kernels)),
        }

    return iteration_metrics


def _window(items: list, begin_of: Callable[[Any], float]
            ) -> Callable[[float, float], list]:
    """``cut(ts, ts_end)``: the items beginning in ``[ts, ts_end)``, in
    their order in ``items``."""
    order = sorted(range(len(items)), key=lambda i: begin_of(items[i]))
    begins = [begin_of(items[i]) for i in order]

    def cut(ts: float, ts_end: float) -> list:
        picked = order[bisect_left(begins, ts):bisect_left(begins, ts_end)]
        return [items[i] for i in sorted(picked)]

    return cut


def _check_metric_identities(trace: Trace) -> list[Finding]:
    """Compare the SKIP pipeline's metrics against the independent sweep."""
    from repro.skip.metrics import compute_metrics

    if not trace.iterations:
        return []
    try:
        metrics = compute_metrics(trace)
    except ReproError as exc:
        return [Finding(T010, Severity.ERROR, "metrics",
                        f"SKIP metrics could not be computed: {exc}")]

    findings = []
    sweep = _independent_sweep(trace)
    for iteration in metrics.iterations:
        mark = next(m for m in trace.iterations if m.index == iteration.index)
        independent = sweep(mark.ts, mark.ts_end)
        if independent is None:
            findings.append(Finding(
                T010, Severity.ERROR, f"iteration {iteration.index}",
                "no kernels or operators found by the independent sweep"))
            continue
        for name, expected in independent.items():
            actual = getattr(iteration, name)
            if not math.isclose(actual, expected,
                                rel_tol=_METRIC_REL_TOL, abs_tol=1e-3):
                findings.append(Finding(
                    T010, Severity.ERROR,
                    f"iteration {iteration.index}",
                    f"{name}: pipeline computed {actual} but independent "
                    f"recomputation gives {expected}"))
    return findings
