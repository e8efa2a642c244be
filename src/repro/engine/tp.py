"""Tensor-parallel execution: configuration and the sharding pass.

Megatron-style tensor parallelism at op granularity: attention and MLP
kernels split evenly across ``degree`` devices (column-parallel first
projection, row-parallel second), so each device runs the same op stream
with ``1/degree`` of the kernel work. The two row-parallel boundaries per
layer — the attention output projection and the MLP down projection —
produce partial sums, so the sharding pass inserts a ring all-reduce after
each; its message is the boundary op's full (unsharded) output tensor and
its duration comes from the GPU-GPU interconnect model, not the roofline.

Everything that reads or writes the full hidden state — embeddings, norms,
residual adds, the LM head — is replicated: every device runs it at full
size. MoE layers are left unsharded too (expert parallelism is a different
axis than tensor parallelism).

``shard_lowered`` is the identity at ``degree == 1``; TP=1 runs execute the
exact lowering the single-device engine always had, which is what keeps
TP=1 traces bit-identical to the legacy executor's frozen ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.engine.lowering import KernelTask, LoweredOp, lower_op
from repro.errors import ConfigurationError
from repro.hardware.interconnect import InterconnectSpec, NVLINK4_P2P
from repro.workloads import ops


class DispatchMode(enum.Enum):
    """How CPU dispatch work is distributed across devices.

    ``SINGLE_THREAD`` is the PyTorch-default shape: one Python thread
    dispatches every op and issues one ``cudaLaunchKernel`` per device, so
    launch overhead compounds with the TP degree — the multi-GPU CPU
    bottleneck the characterization literature reports. ``THREAD_PER_DEVICE``
    gives every device its own dispatch thread (one process per device on
    the simulation core) that only synchronizes at collectives and iteration
    boundaries.
    """

    SINGLE_THREAD = "single"
    THREAD_PER_DEVICE = "per-device"


@dataclass(frozen=True)
class TPConfig:
    """Tensor-parallel run configuration.

    Attributes:
        degree: Number of devices the model is sharded across (1 = off).
        dispatch: CPU dispatch topology (see :class:`DispatchMode`).
        link: GPU-GPU interconnect the collectives run over.
    """

    degree: int = 1
    dispatch: DispatchMode = DispatchMode.SINGLE_THREAD
    link: InterconnectSpec = NVLINK4_P2P

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ConfigurationError("tp degree must be >= 1")

    @property
    def enabled(self) -> bool:
        return self.degree > 1


TP_DISABLED = TPConfig()


def validate_tp(tp: TPConfig, heads: int, model_name: str = "model") -> None:
    """Reject TP degrees the sharding pass cannot realize.

    Attention shards whole heads across devices, so the degree must divide
    the model's head count; otherwise per-device kernel shapes would be
    fractional. Raises :class:`~repro.errors.ConfigurationError` with an
    actionable message instead of letting the engine fail deep inside the
    roofline with an opaque shape error.
    """
    if not tp.enabled:
        return
    if heads % tp.degree != 0:
        valid = [d for d in range(1, heads + 1) if heads % d == 0]
        raise ConfigurationError(
            f"tp degree {tp.degree} does not divide {model_name}'s "
            f"{heads} attention heads; valid degrees: "
            f"{', '.join(str(d) for d in valid)}")

#: Label substrings selecting ops that shard across devices.
_SHARD_MARKERS = (".attn.", ".mlp.")

#: Label substrings that force replication even inside attn/MLP scopes:
#: residual adds and norms consume the full hidden state, and MoE experts
#: are a different parallelism axis.
_REPLICATE_MARKERS = (".moe.", "residual", "norm")

#: Row-parallel boundary projections whose outputs are partial sums and
#: need an all-reduce: attention output and MLP down projections across the
#: BERT / GPT-2 / Llama-family label vocabularies.
_ALLREDUCE_BOUNDARIES = (
    ".attn.o_proj",
    ".attn.output.dense",
    ".mlp.down_proj",
    ".mlp.c_proj",
    ".mlp.fc2",
)


def is_sharded_label(label: str) -> bool:
    """True when the op with this label shards across TP devices."""
    if any(marker in label for marker in _REPLICATE_MARKERS):
        return False
    return any(marker in label for marker in _SHARD_MARKERS)


def needs_allreduce(label: str) -> bool:
    """True when the op with this label produces partial sums under TP."""
    if ".moe." in label:
        return False
    return label.endswith(_ALLREDUCE_BOUNDARIES)


def _shard_kernel(kernel: KernelTask, degree: float) -> KernelTask:
    """One device's share of a kernel: work terms divide, identity stays."""
    return replace(
        kernel,
        flops=kernel.flops / degree,
        bytes_read=kernel.bytes_read / degree,
        bytes_written=kernel.bytes_written / degree,
        members=tuple(_shard_kernel(m, degree) for m in kernel.members),
    )


def shard_lowered(lowered: list[LoweredOp], tp: TPConfig) -> list[LoweredOp]:
    """Apply the TP-sharding pass to a lowered op stream.

    Returns the per-device op stream (all devices are symmetric, so one list
    describes each of them): shardable kernels carry ``1/degree`` of their
    work, replicated ops are untouched, and a ring all-reduce op follows
    every row-parallel boundary. Identity at ``degree == 1``.
    """
    if not tp.enabled:
        return lowered
    degree = float(tp.degree)
    out: list[LoweredOp] = []
    for lowered_op in lowered:
        op = lowered_op.op
        if lowered_op.kernels and is_sharded_label(op.label):
            out.append(LoweredOp(
                op, tuple(_shard_kernel(k, degree) for k in lowered_op.kernels)))
        else:
            out.append(lowered_op)
        if lowered_op.kernels and needs_allreduce(op.label):
            message = op.bytes_written
            out.append(lower_op(ops.all_reduce(
                f"{op.label}.allreduce", message, tp.degree)))
    return out


def count_allreduces(lowered: list[LoweredOp]) -> int:
    """Collective kernels per iteration in a (sharded) lowering."""
    return sum(1 for lo in lowered for k in lo.kernels if k.is_collective)
