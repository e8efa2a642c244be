"""Cost attribution: which operators and modules own the launch tax.

Extends the paper's top-k kernel tracking (Section III-A.5) from kernel
names to the operator and module level: for every root ATen operator the
dependency graph knows its launches, so TKLQT, kernel time, and CPU dispatch
time can be rolled up per operator name — answering "where would fusion or a
faster CPU help most?" directly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.skip.depgraph import DependencyGraph


@dataclass(frozen=True)
class OperatorAttribution:
    """Aggregated costs for one root operator name."""

    name: str
    invocations: int
    launches: int
    cpu_time_ns: float            # root operator durations (dispatch)
    kernel_time_ns: float         # GPU execution time of its kernels
    launch_queue_ns: float        # summed t_l of its launches (TKLQT share)

    @property
    def launches_per_invocation(self) -> float:
        return self.launches / self.invocations if self.invocations else 0.0


@dataclass
class AttributionReport:
    """Per-operator rollup of one trace's costs."""

    operators: list[OperatorAttribution]
    total_tklqt_ns: float
    total_cpu_ns: float
    total_kernel_ns: float

    def top_by(self, key: str, k: int = 10) -> list[OperatorAttribution]:
        """Top-k operators by one of the aggregate fields."""
        if not hasattr(OperatorAttribution, key) and key not in (
                "cpu_time_ns", "kernel_time_ns", "launch_queue_ns",
                "launches", "invocations"):
            raise AnalysisError(f"unknown attribution key {key!r}")
        return sorted(self.operators, key=lambda a: getattr(a, key),
                      reverse=True)[:k]

    def tklqt_share(self, name: str) -> float:
        """Fraction of total TKLQT owned by one operator name."""
        for op in self.operators:
            if op.name == name:
                return (op.launch_queue_ns / self.total_tklqt_ns
                        if self.total_tklqt_ns else 0.0)
        raise AnalysisError(f"operator {name!r} not present in trace")


def attribute_costs(graph: DependencyGraph) -> AttributionReport:
    """Roll up launch/kernel/dispatch costs per root operator name."""
    if not graph.roots:
        raise AnalysisError("dependency graph has no operators")

    invocations: dict[str, int] = defaultdict(int)
    cpu_time: dict[str, float] = defaultdict(float)
    launches: dict[str, int] = defaultdict(int)
    kernel_time: dict[str, float] = defaultdict(float)
    queue_time: dict[str, float] = defaultdict(float)

    for root in graph.roots:
        invocations[root.name] += 1
        cpu_time[root.name] += root.event.dur

    for record in graph.launches:
        root = record.root_operator
        name = root.name if root is not None else "<unattributed>"
        launches[name] += 1
        kernel_time[name] += record.kernel.dur
        queue_time[name] += record.launch_and_queue_ns

    names = set(invocations) | set(launches)
    operators = [
        OperatorAttribution(
            name=name,
            invocations=invocations.get(name, 0),
            launches=launches.get(name, 0),
            cpu_time_ns=cpu_time.get(name, 0.0),
            kernel_time_ns=kernel_time.get(name, 0.0),
            launch_queue_ns=queue_time.get(name, 0.0),
        )
        for name in sorted(names)
    ]
    return AttributionReport(
        operators=operators,
        total_tklqt_ns=sum(queue_time.values()),
        total_cpu_ns=sum(cpu_time.values()),
        total_kernel_ns=sum(kernel_time.values()),
    )


def attribution_table(report: AttributionReport, k: int = 10) -> str:
    """Text table of the k operators with the largest TKLQT share."""
    from repro.units import format_ns

    header = (f"{'operator':30s} {'calls':>6} {'launches':>8} "
              f"{'cpu':>10} {'kernel':>10} {'t_l sum':>10} {'TKLQT%':>7}")
    lines = [header, "-" * len(header)]
    for op in report.top_by("launch_queue_ns", k):
        share = (op.launch_queue_ns / report.total_tklqt_ns * 100
                 if report.total_tklqt_ns else 0.0)
        lines.append(
            f"{op.name:30s} {op.invocations:>6} {op.launches:>8} "
            f"{format_ns(op.cpu_time_ns):>10} {format_ns(op.kernel_time_ns):>10} "
            f"{format_ns(op.launch_queue_ns):>10} {share:>6.1f}%"
        )
    return "\n".join(lines)
