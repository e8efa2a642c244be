"""Operator-kernel dependency graph (Section IV-A of the paper).

SKIP links trace events exactly the way the paper describes:

* an ATen operator ``p`` is the parent of a child operator ``c`` or runtime
  call ``l`` when the child's begin timestamp falls within ``p``'s duration
  on the same thread;
* kernels link to their launch call through the CUDA correlation id.

The result is a forest of operator nodes, each knowing its runtime calls,
plus a flat list of launch records (call, kernel, owning operator) in launch
order — the substrate for every SKIP metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TraceError
from repro.trace.events import KernelEvent, OperatorEvent, RuntimeEvent
from repro.trace.trace import Trace


@dataclass
class OpNode:
    """One operator in the dependency forest."""

    event: OperatorEvent
    parent: "OpNode | None" = None
    children: list["OpNode"] = field(default_factory=list)
    runtime_calls: list[RuntimeEvent] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.event.name

    @property
    def depth(self) -> int:
        """Nesting depth (0 for a root operator)."""
        depth = 0
        node = self
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth

    def iter_subtree(self):
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def launch_calls(self) -> list[RuntimeEvent]:
        """All kernel-launching runtime calls in this subtree."""
        calls = []
        for node in self.iter_subtree():
            calls.extend(r for r in node.runtime_calls if r.is_launch)
        return calls


@dataclass(frozen=True)
class LaunchRecord:
    """A launch call, its kernel, and the operator that issued it."""

    call: RuntimeEvent
    kernel: KernelEvent
    operator: OpNode | None

    @property
    def launch_and_queue_ns(self) -> float:
        """The paper's per-kernel ``t_l`` (Eq. 1): kernel begin - call begin."""
        return self.kernel.ts - self.call.ts

    @property
    def root_operator(self) -> OpNode | None:
        """The top-level parent ATen operator for this launch."""
        node = self.operator
        while node is not None and node.parent is not None:
            node = node.parent
        return node


@dataclass
class DependencyGraph:
    """The full operator-kernel dependency structure of one trace."""

    roots: list[OpNode]
    launches: list[LaunchRecord]
    graph_kernels: list[KernelEvent]
    trace: Trace

    @classmethod
    def from_trace(cls, trace: Trace) -> "DependencyGraph":
        """Build the dependency graph from a trace.

        Raises:
            TraceError: when a launch call has no matching kernel.
        """
        roots: list[OpNode] = []
        all_nodes: list[OpNode] = []
        launch_calls: list[RuntimeEvent] = []

        # Group CPU events per thread; nesting is per-thread.
        threads: dict[int, list] = {}
        for op in trace.operators:
            threads.setdefault(op.tid, []).append(op)
        for call in trace.runtime_calls:
            threads.setdefault(call.tid, []).append(call)

        for tid_events in threads.values():
            # Sort so that at equal start times, longer (outer) events come
            # first; event_id breaks remaining ties in creation order.
            tid_events.sort(key=lambda e: (e.ts, -e.dur, e.event_id))
            stack: list[OpNode] = []
            for event in tid_events:
                while stack and event.ts >= stack[-1].event.ts_end:
                    stack.pop()
                if isinstance(event, OperatorEvent):
                    node = OpNode(event=event, parent=stack[-1] if stack else None)
                    if stack:
                        stack[-1].children.append(node)
                    else:
                        roots.append(node)
                    stack.append(node)
                    all_nodes.append(node)
                elif isinstance(event, RuntimeEvent):
                    if stack:
                        stack[-1].runtime_calls.append(event)
                    if event.is_launch:
                        launch_calls.append(event)

        call_owner: dict[int, OpNode] = {}
        for node in all_nodes:
            for call in node.runtime_calls:
                if call.is_launch and call.correlation_id >= 0:
                    call_owner[call.correlation_id] = node

        kernels = trace.kernels_by_correlation()
        launches: list[LaunchRecord] = []
        for call in sorted(launch_calls, key=lambda c: (c.ts, c.event_id)):
            if call.correlation_id < 0:
                continue  # graph launch; its kernels are tracked separately
            kernel = kernels.get(call.correlation_id)
            if kernel is None:
                raise TraceError(
                    f"launch correlation {call.correlation_id} has no kernel"
                )
            launches.append(LaunchRecord(
                call=call,
                kernel=kernel,
                operator=call_owner.get(call.correlation_id),
            ))

        graph_kernels = [k for k in trace.kernels if k.correlation_id < 0]
        graph_kernels.sort(key=lambda k: (k.ts, k.event_id))
        return cls(roots=roots, launches=launches, graph_kernels=graph_kernels,
                   trace=trace)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def operator_count(self) -> int:
        """Total operators in the forest (all depths)."""
        return sum(1 for root in self.roots for _ in root.iter_subtree())

    def max_depth(self) -> int:
        """Deepest operator nesting level observed."""
        best = 0
        for root in self.roots:
            for node in root.iter_subtree():
                best = max(best, node.depth)
        return best
