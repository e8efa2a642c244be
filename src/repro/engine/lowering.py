"""Operator -> kernel lowering (eager mode).

Each framework operator lowers to one or more GPU kernels with realistic
names. Two properties matter for reproducing the paper:

* **Launch counts.** The number of kernels per operator drives TKLQT and
  every fusion result. Bias-carrying GEMMs emit a separate epilogue/split-K
  reduce kernel; composite activations fan out into several elementwise
  kernels; pure views emit nothing.
* **Shape-dependent variant names.** cuBLAS/cutlass pick different tiled
  kernels for different problem shapes, so GEMM kernel names include tile
  buckets derived from the problem size. This is why the paper's unique
  fusion-chain counts (Fig. 7a) vary with batch size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import ConfigurationError
from repro.workloads.graph import OperatorGraph
from repro.workloads.ops import FP16_BYTES, Op, OpKind


@dataclass(frozen=True)
class KernelTask:
    """One GPU kernel to execute: a name plus roofline work terms.

    ``duration_scale`` lets transformed lowerings (autotuned GEMMs) run the
    same work in less time; the executor multiplies the roofline duration by
    it. ``members`` marks a proximity-fused kernel: its duration is the sum
    of the member durations (the paper's "launch savings only" assumption —
    no efficiency gain or loss from fusing). ``comm_bytes`` marks a
    collective kernel: its duration comes from the interconnect's ring
    all-reduce model over that message size, not the roofline.
    """

    name: str
    flops: float
    bytes_read: float
    bytes_written: float
    duration_scale: float = 1.0
    members: tuple["KernelTask", ...] = ()
    comm_bytes: float = 0.0

    @property
    def bytes_moved(self) -> float:
        return self.bytes_read + self.bytes_written

    @property
    def is_gemm(self) -> bool:
        return "gemm" in self.name or "bmm" in self.name

    @property
    def is_collective(self) -> bool:
        """True for cross-device collective kernels (nccl all-reduce)."""
        return self.comm_bytes > 0


class LoweredOp(NamedTuple):
    """An operator together with the kernels it launches (possibly none).

    A named tuple rather than a frozen dataclass: a lowering builds one per
    op, and a tuple skips the per-field ``object.__setattr__`` calls.
    """

    op: Op
    kernels: tuple[KernelTask, ...]


# ---------------------------------------------------------------------------
# Kernel naming
# ---------------------------------------------------------------------------

_GEMM_TILES = (64, 128, 256)

#: Sub-kernel functor names for composite eager activations.
_GELU_TANH_STAGES = ("pow", "mul", "add", "mul", "tanh", "add", "mul", "mul")
_ROPE_STAGES = ("mul_cos", "rotate_half", "fma_sin")

_ELEMENTWISE_FUNCTORS: dict[OpKind, str] = {
    OpKind.GELU: "gelu",
    OpKind.SILU: "silu",
    OpKind.TANH: "tanh",
    OpKind.ADD: "add",
    OpKind.MUL: "mul",
    OpKind.SCALE: "div",
    OpKind.MASKED_FILL: "where",
    OpKind.CAST: "cast",
}


def _tile_bucket(extent: int) -> int:
    """Pick the tile size a GEMM library would use for one problem extent."""
    for tile in _GEMM_TILES:
        if extent <= tile:
            return tile
    return _GEMM_TILES[-1]


def _pow2_bucket(value: int, cap: int = 2048) -> int:
    bucket = 1
    while bucket < value and bucket < cap:
        bucket *= 2
    return bucket


def gemm_kernel_name(m: int, n: int, k: int, batched: bool = False) -> str:
    """cutlass-style GEMM kernel variant name for a problem shape."""
    kind = "bmm" if batched else "gemm"
    return (
        f"cutlass::f16_s16816{kind}_f16_{_tile_bucket(m)}x{_tile_bucket(n)}"
        f"_ldg8_f2f_stages_tn"
    )


def softmax_kernel_name(cols: int) -> str:
    return f"softmax_warp_forward<f16, {_pow2_bucket(cols)}>"


def elementwise_kernel_name(functor: str) -> str:
    return f"vectorized_elementwise_kernel<4, {functor}_f16>"


def flash_kernel_name(head_dim: int) -> str:
    return f"flash_fwd_kernel<f16, hdim{_pow2_bucket(head_dim, 256)}>"


def allreduce_kernel_name(world: int) -> str:
    """NCCL device-kernel name for a ring all-reduce over ``world`` ranks."""
    return f"ncclDevKernel_AllReduce_Sum_f16_RING<{world}>"


# ---------------------------------------------------------------------------
# Lowering rules
# ---------------------------------------------------------------------------

def lower_op(op: Op) -> LoweredOp:
    """Lower a single operator to its eager kernel sequence."""
    if not op.launches_kernel:
        return LoweredOp(op, ())
    handler = _HANDLERS.get(op.kind)
    if handler is None:
        raise ConfigurationError(f"no lowering for operator kind {op.kind}")
    return LoweredOp(op, tuple(handler(op)))


def lower_graph(graph: OperatorGraph) -> list[LoweredOp]:
    """Lower an entire operator stream.

    Equivalent to ``[lower_op(op) for op in graph.ops]``. When the builder
    recorded a repeated-layer span (``graph.layer_span``), only the template
    layer is lowered op by op; every later layer gets the template's kernel
    tuples, position by position, since its ops differ from the template's
    only in their labels, which no lowering rule reads. Each ``LoweredOp``
    still carries its own ``Op``, so label-driven passes (TP sharding, graph
    checks) see every op as before. Kernel tuples are immutable, so sharing
    them is safe. A graph with no span is lowered op by op.
    """
    ops = graph.ops
    span = graph.layer_span
    if span is None:
        return [lower_op(op) for op in ops]
    head = span.start + span.width
    out = [lower_op(op) for op in ops[:head]]
    template = [lowered.kernels for lowered in out[span.start:]]
    for base in range(head, span.end, span.width):
        out.extend(map(LoweredOp, ops[base:base + span.width], template))
    out.extend(lower_op(op) for op in ops[span.end:])
    return out


def kernel_count(graph: OperatorGraph) -> int:
    """Number of kernel launches one execution of ``graph`` performs."""
    return sum(len(lowered.kernels) for lowered in lower_graph(graph))


def _lower_linear(op: Op) -> list[KernelTask]:
    in_features, out_features, has_bias = op.dims[0], op.dims[1], op.dims[2]
    tokens = op.dims[3] if len(op.dims) > 3 else max(
        1, int(op.bytes_written / (FP16_BYTES * out_features)))
    kernels = []
    bias_flops = float(tokens * out_features) if has_bias else 0.0
    bias_bytes = FP16_BYTES * tokens * out_features
    gemm_read = op.bytes_read - (FP16_BYTES * out_features if has_bias else 0.0)
    kernels.append(KernelTask(
        name=gemm_kernel_name(tokens, out_features, in_features),
        flops=op.flops - bias_flops,
        bytes_read=max(0.0, gemm_read),
        bytes_written=op.bytes_written,
    ))
    if has_bias:
        kernels.append(KernelTask(
            name="splitKreduce_kernel<f16, bias_epilogue>",
            flops=bias_flops,
            bytes_read=bias_bytes + FP16_BYTES * out_features,
            bytes_written=bias_bytes,
        ))
    return kernels


def _lower_matmul(op: Op) -> list[KernelTask]:
    m, n, k = op.dims
    return [KernelTask(
        name=gemm_kernel_name(m, n, k, batched=True),
        flops=op.flops,
        bytes_read=op.bytes_read,
        bytes_written=op.bytes_written,
    )]


def _lower_softmax(op: Op) -> list[KernelTask]:
    (cols,) = op.dims
    return [KernelTask(softmax_kernel_name(cols), op.flops, op.bytes_read,
                       op.bytes_written)]


def _lower_layernorm(op: Op) -> list[KernelTask]:
    return [KernelTask("vectorized_layer_norm_kernel<f16>", op.flops,
                       op.bytes_read, op.bytes_written)]


def _lower_rmsnorm(op: Op) -> list[KernelTask]:
    return [KernelTask("rms_norm_kernel<f16>", op.flops, op.bytes_read,
                       op.bytes_written)]


def _lower_elementwise(op: Op) -> list[KernelTask]:
    fanout = op.kernel_fanout
    if fanout == 1:
        functor = _ELEMENTWISE_FUNCTORS[op.kind]
        return [KernelTask(elementwise_kernel_name(functor), op.flops,
                           op.bytes_read, op.bytes_written)]
    # Composite activation: one kernel per stage, each touching the tensor.
    if op.kind is OpKind.GELU:
        stages = _GELU_TANH_STAGES
    else:
        base = _ELEMENTWISE_FUNCTORS[op.kind]
        stages = tuple(f"{base}_{i}" for i in range(fanout))
    if len(stages) < fanout:
        stages = tuple(stages[i % len(stages)] + f"_{i}" for i in range(fanout))
    stages = stages[:fanout]
    return [
        KernelTask(elementwise_kernel_name(stage), op.flops / fanout,
                   op.bytes_read / fanout, op.bytes_written / fanout)
        for stage in stages
    ]


def _lower_rope(op: Op) -> list[KernelTask]:
    fanout = op.kernel_fanout
    stages = _ROPE_STAGES[:fanout]
    if len(stages) < fanout:
        stages = tuple(f"rope_stage_{i}" for i in range(fanout))
    return [
        KernelTask(elementwise_kernel_name(stage), op.flops / fanout,
                   op.bytes_read / fanout, op.bytes_written / fanout)
        for stage in stages
    ]


#: Embedding tables at or above this row count use the large-index kernel.
LARGE_INDEX_THRESHOLD = 10_000


def _lower_embedding(op: Op) -> list[KernelTask]:
    num_embeddings = op.dims[1] if len(op.dims) > 1 else LARGE_INDEX_THRESHOLD
    variant = ("indexSelectLargeIndex<f16>"
               if num_embeddings >= LARGE_INDEX_THRESHOLD
               else "indexSelectSmallIndex<f16>")
    return [KernelTask(variant, op.flops, op.bytes_read, op.bytes_written)]


def _lower_copy(op: Op) -> list[KernelTask]:
    return [KernelTask(elementwise_kernel_name("copy"), op.flops,
                       op.bytes_read, op.bytes_written)]


def _lower_split(op: Op) -> list[KernelTask]:
    return [KernelTask("slice_copy_kernel<f16>", op.flops, op.bytes_read,
                       op.bytes_written)]


def _lower_fill(op: Op) -> list[KernelTask]:
    return [KernelTask("fill_kernel<f16>", op.flops, op.bytes_read,
                       op.bytes_written)]


def _lower_kv_append(op: Op) -> list[KernelTask]:
    return [KernelTask("indexCopySmallIndex<f16>", op.flops, op.bytes_read,
                       op.bytes_written)]


def _lower_topk(op: Op) -> list[KernelTask]:
    # Radix select emits a histogram pass and a gather pass.
    return [
        KernelTask("radixFindKthValues<f16>", op.flops * 0.6,
                   op.bytes_read, FP16_BYTES * op.dims[1]),
        KernelTask("gatherTopK<f16>", op.flops * 0.4, op.bytes_read * 0.2,
                   op.bytes_written),
    ]


def _lower_index_select(op: Op) -> list[KernelTask]:
    return [KernelTask("indexSelectLargeIndex<f16>", op.flops, op.bytes_read,
                       op.bytes_written)]


def _lower_scatter_add(op: Op) -> list[KernelTask]:
    return [KernelTask("indexAddLargeIndex<f16>", op.flops, op.bytes_read,
                       op.bytes_written)]


def _lower_flash(op: Op) -> list[KernelTask]:
    head_dim = op.dims[0]
    return [KernelTask(flash_kernel_name(head_dim), op.flops, op.bytes_read,
                       op.bytes_written)]


def _lower_all_reduce(op: Op) -> list[KernelTask]:
    world = op.dims[0]
    return [KernelTask(allreduce_kernel_name(world), op.flops, op.bytes_read,
                       op.bytes_written, comm_bytes=op.bytes_written)]


_HANDLERS = {
    OpKind.LINEAR: _lower_linear,
    OpKind.MATMUL: _lower_matmul,
    OpKind.SOFTMAX: _lower_softmax,
    OpKind.LAYERNORM: _lower_layernorm,
    OpKind.RMSNORM: _lower_rmsnorm,
    OpKind.GELU: _lower_elementwise,
    OpKind.SILU: _lower_elementwise,
    OpKind.TANH: _lower_elementwise,
    OpKind.ADD: _lower_elementwise,
    OpKind.MUL: _lower_elementwise,
    OpKind.SCALE: _lower_elementwise,
    OpKind.MASKED_FILL: _lower_elementwise,
    OpKind.CAST: _lower_elementwise,
    OpKind.EMBEDDING: _lower_embedding,
    OpKind.RESHAPE_COPY: _lower_copy,
    OpKind.SPLIT: _lower_split,
    OpKind.FILL: _lower_fill,
    OpKind.ROPE: _lower_rope,
    OpKind.KV_APPEND: _lower_kv_append,
    OpKind.TOPK: _lower_topk,
    OpKind.INDEX_SELECT: _lower_index_select,
    OpKind.SCATTER_ADD: _lower_scatter_add,
    OpKind.SDPA_FLASH: _lower_flash,
    OpKind.ALL_REDUCE: _lower_all_reduce,
}
