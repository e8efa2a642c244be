"""Lowered-graph cache — skip re-lowering on repeated sweep points.

``build_graph`` → ``lower_graph`` → ``apply_inductor_fusion`` is a
deterministic pure pipeline of the workload shape: the same
``(model, batch, seq, phase, attention, context_len)`` always produces the
same operator graph, and the same graph plus mode always produces the same
pre-shard lowering. Sweeps re-run that pipeline for every ``(platform,
batch)`` point, even though only a handful of distinct shapes exist per
sweep. The cache keys the two stages on those shapes; sharding
(:func:`repro.engine.tp.shard_lowered`) stays per-run — it is cheap and
depends on the TP config.

A single-GPU eager or FlashAttention ``LatencyModel`` does not use the
cache: its engine calls are priced runs, answered by the scalar pass of
:mod:`repro.engine.pricing`, which builds and lowers one layer itself.
The other serving models (TP, PP, compiled, graph replay) simulate, so
their lookups pass through the cache, but a serving run's own lookups
never hit it: ``LatencyModel`` memoises every shape itself, so each
engine run it makes is a shape the cache has not seen. A trace export
simulates for every serving model: ``LatencyModel.run_for`` re-runs each
shape once, in the order the run first used them. After an eager or
FlashAttention serve the cache holds none of them, so the export builds
and lowers each shape once, about 1.5 ms per gpt2 shape: 9 ms more work
for the CI serve (``repro serve --rate 20 --duration 0.5``, 5 shapes)
and 0.09 s, about 11% of the export, for a jittered serve of 59 shapes,
whose every export lookup hit while eager serves still filled the cache
(docs/performance.md). After any other serve the export hits when the
run made at most :data:`CACHE_ENTRIES` shapes. Past that, FIFO eviction
drops each shape just before the export asks for it, so every export
lookup builds, lowers (and under PP partitions) its graph again: about
1.2 ms per gpt2 shape, 6-8% of the export's wall time under PP=2. The
bound is sized to the sweeps, so that serving runs do not fill memory
with graphs asked for at most once more.

Correctness stance: cached values are **shared, not copied**. ``LoweredOp``
is a named tuple and ``KernelTask`` a frozen dataclass; ``OperatorGraph`` is
mutable but treated as read-only by the whole engine (the executor never
mutates a built graph). Sharing goes one level further inside each
lowering: :func:`~repro.engine.lowering.lower_graph` gives every copy of a
repeated layer the template layer's kernel tuples, so a cached lowering
holds one tuple per op of one layer, not one per op of the model. That is
safe for the same reason: the tuples are immutable, and the labels that
tell the layers apart live on each ``LoweredOp.op``, which stays per op.
The fast-path parity suite asserts a cache hit produces
results bit-identical to a fresh lowering, and the hypothesis suite checks
hit-vs-fresh structural equality plus ``repro check graph`` cleanliness.

The executor bypasses the cache when the caller passes a prebuilt
``OperatorGraph`` (no shape key exists for it) or a ``fusion_plan``
(plan objects are caller-owned and not necessarily hashable).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.engine.compiler import apply_inductor_fusion
from repro.engine.lowering import LoweredOp, lower_graph
from repro.engine.modes import ExecutionMode
from repro.workloads.builder import AttentionImpl, build_graph
from repro.workloads.config import ModelConfig
from repro.workloads.graph import OperatorGraph, Phase

#: Shape key of a built graph. ``ModelConfig`` is a frozen dataclass, so the
#: whole tuple is hashable and two equal keys denote identical workloads.
GraphKey = tuple[ModelConfig, int, int, Phase, AttentionImpl, "int | None"]

#: A graph key plus the execution mode, keying the fused pre-shard lowering.
LoweringKey = tuple[ModelConfig, int, int, Phase, AttentionImpl,
                    "int | None", ExecutionMode]


#: Entries per table. A FIFO table of this size keeps every hit of an
#: unbounded one as long as each key comes back within fewer than this
#: many newer insertions. The traffic that still reaches the cache is the
#: characterization sweep (SKIP profiles), TP/PP/compiled serving and
#: trace exports. The sweep comes back after one platform's shapes, 7
#: insertions for BS 1…128; a TP sweep reuses its one shape at once; 64
#: leaves room for grids of up to 64 shapes per platform. A compiled, TP
#: or PP serving stream replayed on a second platform comes back only
#: after all of the first run's shapes, so those hits are not kept, and an
#: export comes back once per shape (see the module docstring). Analyses
#: built on single-GPU eager or FlashAttention ``LatencyModel`` lookups
#: (``run_replicas_per_host``, ``run_prefix_crossover``,
#: ``chunk_budget_sweep``) price every shape without the cache.
CACHE_ENTRIES = 64


@dataclass
class CacheStats:
    """Hit/miss counters, exposed for benchmarks and tests."""

    graph_hits: int = 0
    graph_misses: int = 0
    lowering_hits: int = 0
    lowering_misses: int = 0

    def reset(self) -> None:
        self.graph_hits = self.graph_misses = 0
        self.lowering_hits = self.lowering_misses = 0


@dataclass
class LoweringCache:
    """FIFO-bounded cache for built graphs and fused pre-shard lowerings."""

    max_entries: int = CACHE_ENTRIES
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)
    _graphs: dict[GraphKey, OperatorGraph] = field(default_factory=dict)
    _lowerings: dict[LoweringKey, list[LoweredOp]] = field(default_factory=dict)

    def graph(self, model: ModelConfig, batch_size: int, seq_len: int,
              phase: Phase, attention: AttentionImpl,
              context_len: int | None) -> OperatorGraph:
        """The built operator graph for a workload shape (cached)."""
        if not self.enabled:
            return build_graph(model, batch_size, seq_len, phase=phase,
                               attention=attention, context_len=context_len)
        key = (model, batch_size, seq_len, phase, attention, context_len)
        graph = self._graphs.get(key)
        if graph is None:
            self.stats.graph_misses += 1
            graph = build_graph(model, batch_size, seq_len, phase=phase,
                                attention=attention, context_len=context_len)
            self._insert(self._graphs, key, graph)
        else:
            self.stats.graph_hits += 1
        return graph

    def lowering(self, key_shape: GraphKey, graph: OperatorGraph,
                 mode: ExecutionMode) -> list[LoweredOp]:
        """The fused pre-shard lowering for ``graph`` under ``mode`` (cached).

        ``key_shape`` must be the shape key ``graph`` was built from; the
        executor derives both from the same arguments.
        """
        if not self.enabled:
            return apply_inductor_fusion(lower_graph(graph), mode)
        key = (*key_shape, mode)
        lowered = self._lowerings.get(key)
        if lowered is None:
            self.stats.lowering_misses += 1
            lowered = apply_inductor_fusion(lower_graph(graph), mode)
            self._insert(self._lowerings, key, lowered)
        else:
            self.stats.lowering_hits += 1
        return lowered

    def _insert(self, table: dict, key, value) -> None:
        # FIFO eviction: dicts preserve insertion order, so the first key is
        # the oldest. Sweeps and trace exports come back to their keys in
        # insertion order (see the module docstring), so recency tracking
        # would keep no hit that FIFO loses.
        if len(table) >= self.max_entries:
            table.pop(next(iter(table)))
        table[key] = value

    def clear(self) -> None:
        self._graphs.clear()
        self._lowerings.clear()
        self.stats.reset()

    def __len__(self) -> int:
        return len(self._graphs) + len(self._lowerings)

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Temporarily bypass the cache (parity tests run both ways)."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous


#: Process-wide cache instance the executor consults. Worker processes of a
#: ``--jobs`` sweep each get their own (module state is per-interpreter).
LOWERING_CACHE = LoweringCache()
