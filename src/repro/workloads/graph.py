"""Operator graph: the eager-mode program a model executes.

Eager PyTorch executes operators strictly in program order on one CPU thread,
so the "graph" the engine consumes is an ordered operator stream. Per-op
labels let SKIP reports attribute costs to modules. Block boundaries are
known only where the builder records them: a Transformer graph from
:func:`~repro.workloads.builder.build_graph` carries a :class:`LayerSpan`
over its identical layers; a hand-built graph carries none.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import ConfigurationError
from repro.workloads.ops import Op


class Phase(enum.Enum):
    """Inference phase (Section II-A)."""

    PREFILL = "prefill"
    DECODE = "decode"


@dataclass(frozen=True)
class LayerSpan:
    """A run of ``count`` identical layers, ``width`` ops each, at ``start``.

    ``ops[start:start + width]`` is the template layer. Layer ``k`` occupies
    the next ``width`` ops after layer ``k - 1`` and matches the template op
    for op in every field but the label.
    """

    start: int
    width: int
    count: int

    @property
    def end(self) -> int:
        """Index one past the last op of the last layer."""
        return self.start + self.width * self.count


@dataclass
class OperatorGraph:
    """An ordered operator stream plus provenance metadata.

    Attributes:
        model_name: Model that produced the stream.
        phase: Prefill or decode.
        batch_size: Batch size the shapes were built for.
        seq_len: Input sequence length (prefill) or context length (decode).
        ops: Operators in program order.
        layer_span: The repeated-layer span, when the builder recorded one;
            the lowering lowers its template once and shares the kernels.
    """

    model_name: str
    phase: Phase
    batch_size: int
    seq_len: int
    ops: list[Op] = field(default_factory=list)
    layer_span: LayerSpan | None = None

    def __post_init__(self) -> None:
        if self.batch_size <= 0 or self.seq_len <= 0:
            raise ConfigurationError("batch_size and seq_len must be positive")

    def append(self, op: Op) -> None:
        self.ops.append(op)

    def extend(self, ops: Sequence[Op]) -> None:
        self.ops.extend(ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def total_flops(self) -> float:
        """Total modeled FLOPs for one execution of the stream."""
        return sum(op.flops for op in self.ops)

    @property
    def total_bytes(self) -> float:
        """Total modeled DRAM traffic for one execution of the stream."""
        return sum(op.bytes_moved for op in self.ops)

    def count_by_kind(self) -> dict[str, int]:
        """Operator count per kind value, for reports and tests."""
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.kind.value] = counts.get(op.kind.value, 0) + 1
        return counts

    def labels_matching(self, prefix: str) -> list[Op]:
        """Operators whose label starts with ``prefix`` (module filtering)."""
        return [op for op in self.ops if op.label.startswith(prefix)]
