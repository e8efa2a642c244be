"""RunRecorder — the serving/engine layers' write interface for observability.

A recorder is passed (optionally) into any serving simulation or engine run.
It appends structured events — request lifecycle spans and per-step engine
invocations — and maintains the standard serving histograms (TTFT, TBT,
batch size, queue depth, per-kind step latency) plus counters. Everything is
O(1) per call; simulations that do not pass a recorder pay nothing.

The recorded run can then be:

* summarized (:meth:`RunRecorder.summary`) into percentile tables;
* rendered as an ASCII timeline (:func:`repro.viz.render_serving_timeline`);
* exported as a Chrome trace (:func:`repro.obs.recording_to_trace` followed
  by :func:`repro.trace.chrome.dump`) that SKIP analyzes unmodified.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence, overload

from repro.errors import AnalysisError
from repro.obs.events import EngineShape, RequestSpan, StepEvent, StepKind
from repro.obs.stats import CounterSet, Histogram, HistogramSummary
from repro.units import format_ns

if TYPE_CHECKING:  # repro.kvcache imports the recorder type for its hooks.
    from repro.kvcache.events import KvCacheEvent

#: Histogram names maintained by the recorder.
H_TTFT = "ttft_ns"
H_TBT = "tbt_ns"
H_QUEUE_WAIT = "queue_wait_ns"
H_BATCH_SIZE = "batch_size"
H_QUEUE_DEPTH = "queue_depth"
H_LAUNCH_QUEUE = "launch_queue_depth"
H_LAUNCH_DELAY = "kernel_launch_delay_ns"

#: Per-kind step histogram and counter names, built once.
_STEP_NAMES = {kind: (f"step_{kind.value}_ns", f"steps_{kind.value}")
               for kind in StepKind}


class _StepWindow(NamedTuple):
    """Steps ``index``, ``index + 1``, ... of one kind, batch and replica,
    stored once: step ``j`` began at ``starts[j]``, lasted ``spans[j]``
    and ran shape ``shapes[j]`` (None when ``shapes`` is None)."""

    index: int
    kind: StepKind
    batch_size: int
    queue_depth: int
    replica: int
    starts: array
    spans: array
    shapes: tuple[EngineShape | None, ...] | None

    def step(self, j: int) -> StepEvent:
        """The window's step ``j`` (checked when the window was recorded)."""
        return tuple.__new__(StepEvent, (
            self.index + j, self.kind, self.starts[j], self.spans[j],
            self.batch_size, self.queue_depth,
            None if self.shapes is None else self.shapes[j], self.replica))


class StepLog(Sequence[StepEvent]):
    """The recorded engine steps: a read-only sequence of :class:`StepEvent`.

    A decode window of two or more steps is stored as one record (its
    starts and spans as ``array('d')``, its shapes as a tuple) and read
    back as the steps one :meth:`RunRecorder.record_step` per step would
    have appended. Length, iteration, indexing (negative indexes and
    slices too) and ``==`` against a list or another log see exactly
    those steps.
    """

    __slots__ = ("_records", "_len")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self) -> None:
        self._records: list[StepEvent | _StepWindow] = []
        self._len = 0

    def _append(self, record: StepEvent | _StepWindow, count: int) -> None:
        self._records.append(record)
        self._len += count

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[StepEvent]:
        for record in self._records:
            if type(record) is _StepWindow:
                yield from map(record.step, range(len(record.starts)))
            else:
                yield record

    @overload
    def __getitem__(self, index: int) -> StepEvent: ...

    @overload
    def __getitem__(self, index: slice) -> list[StepEvent]: ...

    def __getitem__(self, index: int | slice) -> StepEvent | list[StepEvent]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._len))]
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("step index out of range")
        record = self._records[
            bisect_right(self._records, index, key=itemgetter(0)) - 1]
        if type(record) is _StepWindow:
            return record.step(index - record.index)
        return record

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (StepLog, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    def __repr__(self) -> str:
        return f"StepLog({list(self)!r})"


@dataclass(frozen=True)
class RunSummary:
    """Percentile summaries and counters for one recorded run."""

    requests_completed: int
    steps: int
    span_ns: float
    histograms: dict[str, HistogramSummary]
    counters: dict[str, float]

    def render(self, title: str = "serving run") -> str:
        """Human-readable summary block."""
        lines = [title, "-" * len(title),
                 f"requests completed : {self.requests_completed}",
                 f"engine steps       : {self.steps}",
                 f"timeline span      : {format_ns(self.span_ns)}"]
        labels = {H_TTFT: "TTFT", H_TBT: "TBT", H_QUEUE_WAIT: "queue wait",
                  H_LAUNCH_DELAY: "launch delay"}
        for name, summary in sorted(self.histograms.items()):
            label = labels.get(name, name.removesuffix("_ns"))
            if name.endswith("_ns"):
                lines.append(
                    f"{label:<18} : mean {format_ns(summary.mean)}"
                    f"  p50 {format_ns(summary.p50)}"
                    f"  p99 {format_ns(summary.p99)}")
            else:
                lines.append(
                    f"{label:<18} : mean {summary.mean:.1f}"
                    f"  p50 {summary.p50:.0f}  max {summary.maximum:.0f}")
        for name, value in sorted(self.counters.items()):
            lines.append(f"{name:<18} : {value:.0f}")
        return "\n".join(lines)


@dataclass
class AggregateTotals:
    """Exact whole-population sums and counts.

    Maintained for **every** request even when per-request recording is
    sampled (``RunRecorder.sample_every > 1``), so sampled runs report the
    same aggregate load/latency totals as fully recorded ones — only the
    per-request spans and histogram populations thin out.
    """

    requests_admitted: int = 0
    requests_completed: int = 0
    tokens_generated: int = 0
    queue_wait_sum_ns: float = 0.0
    ttft_sum_ns: float = 0.0
    ttft_count: int = 0
    tbt_sum_ns: float = 0.0
    tbt_count: int = 0


@dataclass
class RunRecorder:
    """Low-overhead structured-event recorder for serving/engine runs.

    ``sample_every=k`` records full per-request detail (spans plus the
    queue-wait/TTFT/TBT histogram observations) for one request in ``k``
    (``request_id % k == 0``) while :attr:`aggregates` and the counters stay
    exact over all requests — ~1/k the trace volume, identical aggregate
    numbers. ``k=1`` (the default) records everything and is bit-identical
    to the pre-sampling recorder. Engine steps and KV events are never
    sampled: they are per-step, not per-request, and the timeline depends
    on them.
    """

    steps: StepLog = field(default_factory=StepLog)
    spans: dict[int, RequestSpan] = field(default_factory=dict)
    counters: CounterSet = field(default_factory=CounterSet)
    kv_events: list[KvCacheEvent] = field(default_factory=list)
    kv_pools: dict[int, dict] = field(default_factory=dict)
    routing: list[dict] = field(default_factory=list)
    cluster_meta: dict = field(default_factory=dict)
    host_meta: dict = field(default_factory=dict)
    host_grants: list[dict] = field(default_factory=list)
    sample_every: int = 1
    aggregates: AggregateTotals = field(default_factory=AggregateTotals)
    _histograms: dict[str, Histogram] = field(default_factory=dict, repr=False)
    _last_token_ns: dict[int, float] = field(default_factory=dict, repr=False)
    _arrivals: dict[int, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise AnalysisError("sample_every must be at least 1")

    def _sampled(self, request_id: int) -> bool:
        return self.sample_every == 1 or request_id % self.sample_every == 0

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def on_admitted(self, request_id: int, arrival_ns: float,
                    admitted_ns: float) -> None:
        """A request left the queue and entered a prefill batch."""
        if admitted_ns < arrival_ns:
            raise AnalysisError(
                f"request {request_id} admitted before it arrived")
        self._arrivals[request_id] = arrival_ns
        self.aggregates.requests_admitted += 1
        self.aggregates.queue_wait_sum_ns += admitted_ns - arrival_ns
        self.counters.add("requests_admitted")
        if self._sampled(request_id):
            self.spans[request_id] = RequestSpan(
                request_id=request_id, arrival_ns=arrival_ns,
                admitted_ns=admitted_ns)
            self.histogram(H_QUEUE_WAIT).observe(admitted_ns - arrival_ns)

    def on_first_token(self, request_id: int, ts_ns: float) -> None:
        """A request produced its first token (end of its prefill)."""
        arrival = self._arrivals.get(request_id)
        if arrival is None:
            raise AnalysisError(
                f"request {request_id} has no recorded admission")
        self._last_token_ns[request_id] = ts_ns
        self.aggregates.ttft_sum_ns += ts_ns - arrival
        self.aggregates.ttft_count += 1
        if self._sampled(request_id):
            span = self._span(request_id)
            span.first_token_ns = ts_ns
            self.histogram(H_TTFT).observe(ts_ns - span.arrival_ns)

    def on_token(self, request_id: int, ts_ns: float) -> None:
        """A request produced one decode token; feeds the TBT histogram."""
        self.on_token_steps((request_id,), (ts_ns,))

    def on_tokens(self, request_ids: Sequence[int], ts_ns: float) -> None:
        """Every request in ``request_ids`` produced one decode token at
        ``ts_ns``; feeds the TBT histogram."""
        self.on_token_steps(request_ids, (ts_ns,))

    def on_token_steps(self, request_ids: Sequence[int],
                       stamps: Sequence[float]) -> None:
        """Every request in ``request_ids`` (distinct ids) produced one
        decode token at each of ``stamps``: the window form of
        :meth:`on_tokens`.

        Gaps accumulate step-major, sequence-minor, so ``tbt_sum_ns``
        and the TBT histogram's value order are those of one
        :meth:`on_tokens` call per stamp. After the first stamp every
        request's gap is the distance between consecutive stamps.
        """
        if not request_ids or not stamps:
            return
        last_token = self._last_token_ns
        aggregates = self.aggregates
        sample_every = self.sample_every
        tbt_sum = aggregates.tbt_sum_ns
        tbt_count = aggregates.tbt_count
        gaps = []
        first = stamps[0]
        for request_id in request_ids:
            last = last_token.get(request_id)
            if last is not None:
                gap = first - last
                tbt_sum += gap
                tbt_count += 1
                if sample_every == 1 or request_id % sample_every == 0:
                    gaps.append(gap)
            last_token[request_id] = first
        tokens = len(request_ids)
        if len(stamps) > 1:
            sampled = (tokens if sample_every == 1 else
                       sum(1 for request_id in request_ids
                           if request_id % sample_every == 0))
            previous = first
            for ts_ns in stamps[1:]:
                gap = ts_ns - previous
                for _ in request_ids:
                    tbt_sum += gap
                tbt_count += tokens
                gaps.extend([gap] * sampled)
                previous = ts_ns
            for request_id in request_ids:
                last_token[request_id] = previous
        aggregates.tbt_sum_ns = tbt_sum
        aggregates.tbt_count = tbt_count
        if gaps:
            self.histogram(H_TBT).observe_each(gaps)
        generated = tokens * len(stamps)
        aggregates.tokens_generated += generated
        self.counters.add("tokens_generated", float(generated))

    def on_completed(self, request_id: int, ts_ns: float) -> None:
        """A request finished generating."""
        if self._sampled(request_id):
            span = self._span(request_id)
            span.completed_ns = ts_ns
        self._last_token_ns.pop(request_id, None)
        self._arrivals.pop(request_id, None)
        self.aggregates.requests_completed += 1
        self.counters.add("requests_completed")

    # ------------------------------------------------------------------
    # Engine steps
    # ------------------------------------------------------------------
    def record_step(
        self,
        kind: StepKind,
        ts_ns: float,
        dur_ns: float,
        batch_size: int,
        queue_depth: int = 0,
        shape: EngineShape | None = None,
        replica: int = 0,
    ) -> StepEvent:
        """Record one engine invocation on the serving timeline."""
        step = StepEvent(index=len(self.steps), kind=kind, ts_ns=ts_ns,
                         dur_ns=dur_ns, batch_size=batch_size,
                         queue_depth=queue_depth, shape=shape,
                         replica=replica)
        self.steps._append(step, 1)
        self.histogram(H_BATCH_SIZE).observe(float(batch_size))
        self.histogram(H_QUEUE_DEPTH).observe(float(queue_depth))
        histogram_name, counter_name = _STEP_NAMES[kind]
        self.histogram(histogram_name).observe(dur_ns)
        self.counters.add(counter_name)
        return step

    def record_steps(
        self,
        kind: StepKind,
        starts: Sequence[float],
        durations: Sequence[float],
        batch_size: int,
        queue_depth: int = 0,
        shapes: Sequence[EngineShape | None] | None = None,
        replica: int = 0,
    ) -> None:
        """Record consecutive engine invocations of one kind and batch.

        Step ``j`` began at ``starts[j]`` and lasted ``durations[j]``
        (shape ``shapes[j]``), checked as :meth:`StepEvent.series` checks
        them. Two or more steps are stored as one window record of
        :attr:`steps`. Every list and histogram gets its values in the
        order one :meth:`record_step` per step would append them; a
        window's batch-size and queue-depth observations share one float.
        """
        count = len(starts)
        if not count:
            return
        index = len(self.steps)
        record: StepEvent | _StepWindow
        if count == 1:
            (record,) = StepEvent.series(index, kind, starts, durations,
                                         batch_size, queue_depth, shapes,
                                         replica)
        else:
            StepEvent.check_series(index, starts, durations, batch_size,
                                   queue_depth, replica)
            record = _StepWindow(index, kind, batch_size, queue_depth,
                                 replica, array("d", starts),
                                 array("d", durations),
                                 None if shapes is None else tuple(shapes))
        self.steps._append(record, count)
        self.histogram(H_BATCH_SIZE).observe_each([float(batch_size)] * count)
        self.histogram(H_QUEUE_DEPTH).observe_each(
            [float(queue_depth)] * count)
        histogram_name, counter_name = _STEP_NAMES[kind]
        self.histogram(histogram_name).observe_each(durations)
        self.counters.add(counter_name, float(count))

    def steps_of(self, kind: StepKind) -> int:
        """Steps of ``kind`` recorded so far."""
        return int(self.counters.get(_STEP_NAMES[kind][1]))

    # ------------------------------------------------------------------
    # KV-cache pressure (repro.kvcache hooks)
    # ------------------------------------------------------------------
    def on_kv_pool(self, replica: int, capacity_blocks: int, policy: str,
                   block_tokens: int) -> None:
        """Register one replica's KV pool geometry (exported as metadata)."""
        self.kv_pools[replica] = {
            "capacity_blocks": capacity_blocks,
            "policy": policy,
            "block_tokens": block_tokens,
        }

    def on_kv_event(self, event: KvCacheEvent) -> None:
        """Mirror one KV-pool event; counts pressure actions."""
        self.kv_events.append(event)
        if event.kind in ("preempt", "swap_out", "swap_in",
                          "prefix_alloc", "prefix_ref", "prefix_free"):
            self.counters.add(f"kv_{event.kind}")

    # ------------------------------------------------------------------
    # Cluster routing (repro.serving.cluster hooks)
    # ------------------------------------------------------------------
    def on_cluster(self, policy: str, replicas: int,
                   request_ids: list[int]) -> None:
        """Register a cluster run's shape (exported as ``cluster`` metadata,
        the conservation baseline rule R001 checks routing against)."""
        self.cluster_meta = {
            "policy": policy,
            "replicas": replicas,
            "request_ids": list(request_ids),
        }

    def on_routed(self, request_id: int, replica: int, ts_ns: float,
                  session: str | None = None,
                  tenant: str | None = None) -> None:
        """Mirror one routing decision (replayed by rules R001/R002)."""
        self.routing.append({
            "request_id": request_id,
            "replica": replica,
            "ts_ns": ts_ns,
            "session": session,
            "tenant": tenant,
        })
        self.counters.add("requests_routed")

    # ------------------------------------------------------------------
    # Host CPU contention (repro.host hooks)
    # ------------------------------------------------------------------
    def on_host(self, meta: dict) -> None:
        """Register the host topology (exported as ``host`` metadata, the
        baseline the N-rules replay grants against). Called once when the
        host attaches and again at end of run so per-core busy totals are
        final; re-registration overwrites."""
        self.host_meta = dict(meta)

    def on_host_grant(self, owner: str, core: int, domain: int,
                      start_ns: float, end_ns: float, cpu_ns: float,
                      remote: bool, requested_ns: float) -> None:
        """Mirror one core-time grant (replayed by rules N001–N004)."""
        self.host_grants.append({
            "owner": owner,
            "core": core,
            "domain": domain,
            "start_ns": start_ns,
            "end_ns": end_ns,
            "cpu_ns": cpu_ns,
            "remote": remote,
            "requested_ns": requested_ns,
        })
        self.counters.add("host_grants")
        if remote:
            self.counters.add("host_remote_grants")

    def observe_launch_queue(self, depth: int) -> None:
        """Sample the CUDA launch-queue occupancy (executor hook)."""
        self.histogram(H_LAUNCH_QUEUE).observe(float(depth))

    def observe_launch_delay(self, delay_ns: float) -> None:
        """Sample one kernel's launch-to-start delay (the paper's t_l)."""
        self.histogram(H_LAUNCH_DELAY).observe(delay_ns)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    @property
    def span_ns(self) -> float:
        """Serving-clock span covered by the recorded steps."""
        if not self.steps:
            return 0.0
        return (max(s.ts_end_ns for s in self.steps)
                - min(s.ts_ns for s in self.steps))

    def completed_spans(self) -> list[RequestSpan]:
        """Spans of completed requests, by completion time."""
        done = [s for s in self.spans.values() if s.complete]
        done.sort(key=lambda s: s.completed_ns)
        return done

    def summary(self) -> RunSummary:
        """Summarize every non-empty histogram plus the counters.

        Sampled runs (``sample_every > 1``) report the exact completion
        count from the whole-population aggregates; fully recorded runs
        keep counting completed spans, preserving the historical output
        bit for bit.
        """
        completed = (self.aggregates.requests_completed
                     if self.sample_every > 1 else len(self.completed_spans()))
        return RunSummary(
            requests_completed=completed,
            steps=len(self.steps),
            span_ns=self.span_ns,
            histograms={name: h.summary()
                        for name, h in self._histograms.items()
                        if not h.empty},
            counters=self.counters.as_dict(),
        )

    def _span(self, request_id: int) -> RequestSpan:
        try:
            return self.spans[request_id]
        except KeyError:
            raise AnalysisError(
                f"request {request_id} has no recorded admission") from None
