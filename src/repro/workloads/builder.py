"""Transformer operator-stream construction.

Builds the eager-mode operator sequence a HuggingFace model executes for one
forward pass, at ATen granularity, for both prefill and decode phases. The
streams mirror the structural quirks that shape real traces:

* BERT/XLM-R (post-LN encoders): three separate QKV projections, additive
  attention mask, pooler head.
* GPT-2: fused Conv1D QKV + view-splits, causal ``where`` masking, and the
  tanh-approximated ``gelu_new`` that expands to ~8 elementwise kernels —
  the reason GPT-2's eager kernel count is much higher than BERT's.
* Llama-3.2: RMSNorm, rotary embeddings, grouped-query attention with
  ``repeat_kv`` materialization, SwiGLU MLP, no biases.

The attention core can be built unfused (eager) or as a single fused
FlashAttention op.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.workloads import ops
from repro.workloads.config import Activation, Arch, ModelConfig, Norm, Positional
from repro.workloads.graph import LayerSpan, OperatorGraph, Phase
from repro.workloads.ops import Op, OpKind


#: Where the layer builders append ops: a plain list (the compact form) or
#: an operator graph.
_OpSink = OperatorGraph | list[Op]

#: (head, layer 0, tail) of one forward pass.
_Parts = tuple[list[Op], list[Op], list[Op]]


class AttentionImpl(enum.Enum):
    """How the attention core is lowered."""

    EAGER = "eager"
    FLASH = "flash"  # FlashAttention-2 fused kernel


@dataclass(frozen=True)
class CompactGraph:
    """One forward pass with its repeated layer built once.

    The operator stream is ``head``, then ``layer`` ``count`` times, then
    ``tail``. Layer ``k`` differs from ``layer`` (layer 0) only in its label
    prefix ``{stem}{k}.``, so a pass that reads no label can walk this form
    instead of the expanded graph. :func:`build_graph` is :meth:`expand`
    applied to :func:`build_compact_graph`.
    """

    model_name: str
    phase: Phase
    batch_size: int
    seq_len: int
    head: list[Op]
    layer: list[Op]
    count: int
    tail: list[Op]
    stem: str

    def expand(self) -> OperatorGraph:
        """The full operator stream, with the layer run recorded as its
        :class:`LayerSpan`."""
        graph = OperatorGraph(model_name=self.model_name, phase=self.phase,
                              batch_size=self.batch_size,
                              seq_len=self.seq_len)
        graph.extend(self.head)
        graph.extend(self.layer)
        _repeat_layer(graph, len(self.head), self.stem, self.count)
        graph.extend(self.tail)
        return graph


def build_graph(
    config: ModelConfig,
    batch_size: int,
    seq_len: int,
    phase: Phase = Phase.PREFILL,
    attention: AttentionImpl = AttentionImpl.EAGER,
    context_len: int | None = None,
) -> OperatorGraph:
    """Build one forward pass of ``config`` as an operator stream.

    Args:
        config: Model description.
        batch_size: Number of sequences in the batch.
        seq_len: Input length (prefill) — ignored for decode, where each
            sequence contributes one new token.
        phase: PREFILL or DECODE.
        attention: Eager (unfused) or FlashAttention lowering.
        context_len: KV-cache length for decode (required for DECODE).

    Returns:
        The operator stream in program order.
    """
    return build_compact_graph(config, batch_size, seq_len, phase=phase,
                               attention=attention,
                               context_len=context_len).expand()


def build_compact_graph(
    config: ModelConfig,
    batch_size: int,
    seq_len: int,
    phase: Phase = Phase.PREFILL,
    attention: AttentionImpl = AttentionImpl.EAGER,
    context_len: int | None = None,
) -> CompactGraph:
    """The first stage of :func:`build_graph`: head, layer 0 and tail.

    Takes the same arguments and runs the same shape checks; only layers
    1..N-1 are left out.
    """
    if batch_size <= 0 or seq_len <= 0:
        raise ConfigurationError("batch_size and seq_len must be positive")
    if phase is Phase.DECODE:
        if context_len is None or context_len <= 0:
            raise ConfigurationError("decode phase requires a positive context_len")
        if config.arch is Arch.ENCODER_ONLY:
            raise ConfigurationError("encoder-only models have no decode phase")

    if config.arch is Arch.ENCODER_ONLY:
        head, layer, tail = _build_encoder(config, batch_size, seq_len,
                                           attention)
        stem = "encoder.layer."
    else:
        head, layer, tail = _build_decoder(config, batch_size, seq_len, phase,
                                           attention, context_len or seq_len)
        stem = "decoder.layer."
    return CompactGraph(
        model_name=config.name,
        phase=phase,
        batch_size=batch_size,
        seq_len=seq_len if phase is Phase.PREFILL else (context_len or seq_len),
        head=head,
        layer=layer,
        count=config.layers,
        tail=tail,
        stem=stem,
    )


def _repeat_layer(graph: OperatorGraph, start: int, stem: str,
                  layers: int) -> None:
    """Append layers 1..``layers``-1 as copies of layer 0 at ``ops[start:]``.

    Every layer of a model runs the same ops on the same shapes; only the
    ``{stem}{layer}.`` label prefix differs. Layer 0 went through the op
    factories, so each distinct op's shape arithmetic ran once; the copies
    take its field values as they are. The graph records the span so the
    lowering can lower the template once (:class:`LayerSpan`).
    """
    template = graph.ops[start:]
    first = f"{stem}0."
    suffixes = [op.label.removeprefix(first) for op in template]
    assert all(op.label.startswith(first) for op in template), (
        f"layer 0 at op {start} has an op outside {first!r}")
    for layer in range(1, layers):
        prefix = f"{stem}{layer}."
        graph.extend([
            Op(op.kind, prefix + suffix, op.flops, op.bytes_read,
               op.bytes_written, op.dims, op.launches_kernel,
               op.kernel_fanout)
            for op, suffix in zip(template, suffixes)
        ])
    graph.layer_span = LayerSpan(start, len(template), layers)


# ---------------------------------------------------------------------------
# Encoder-only (BERT / XLM-RoBERTa)
# ---------------------------------------------------------------------------

def _build_encoder(config: ModelConfig, batch: int, seq: int,
                   attention: AttentionImpl) -> _Parts:
    tokens = batch * seq
    hidden = config.hidden
    elements = tokens * hidden

    head = [
        ops.embedding("embeddings.word", tokens, hidden, config.vocab),
        ops.embedding("embeddings.position", tokens, hidden, config.max_positions),
        ops.embedding("embeddings.token_type", tokens, hidden, 2),
        ops.elementwise(OpKind.ADD, "embeddings.add_position", elements, inputs=2),
        ops.elementwise(OpKind.ADD, "embeddings.add_token_type", elements, inputs=2),
        ops.layernorm("embeddings.layernorm", tokens, hidden),
        # get_extended_attention_mask: (1 - mask) * min_value
        ops.elementwise(OpKind.ADD, "extended_mask.rsub", batch * seq, inputs=1),
        ops.elementwise(OpKind.MUL, "extended_mask.scale", batch * seq, inputs=1),
    ]

    layer: list[Op] = []
    _encoder_layer(layer, config, batch, seq, 0, attention)

    # Pooler: take [CLS], dense, tanh.
    tail = [
        ops.reshape_copy("pooler.take_cls", batch * hidden),
        ops.linear("pooler.dense", batch, hidden, hidden, bias=True),
        ops.elementwise(OpKind.TANH, "pooler.tanh", batch * hidden),
    ]
    return head, layer, tail


def _encoder_layer(graph: _OpSink, config: ModelConfig, batch: int,
                   seq: int, layer: int, attention: AttentionImpl) -> None:
    prefix = f"encoder.layer.{layer}"
    tokens = batch * seq
    hidden = config.hidden
    heads = config.heads
    head_dim = config.effective_head_dim
    elements = tokens * hidden

    graph.extend([
        ops.linear(f"{prefix}.attn.query", tokens, hidden, hidden, bias=True),
        ops.linear(f"{prefix}.attn.key", tokens, hidden, hidden, bias=True),
        ops.linear(f"{prefix}.attn.value", tokens, hidden, hidden, bias=True),
        ops.transpose_view(f"{prefix}.attn.query.transpose", elements),
        ops.transpose_view(f"{prefix}.attn.key.transpose", elements),
        ops.transpose_view(f"{prefix}.attn.value.transpose", elements),
    ])

    if attention is AttentionImpl.FLASH:
        graph.append(ops.sdpa_flash(f"{prefix}.attn.sdpa", batch * heads, seq,
                                    seq, head_dim))
    else:
        score_elements = batch * heads * seq * seq
        graph.extend([
            ops.matmul(f"{prefix}.attn.scores", batch * heads, seq, seq, head_dim),
            ops.elementwise(OpKind.SCALE, f"{prefix}.attn.scale", score_elements),
            ops.elementwise(OpKind.ADD, f"{prefix}.attn.mask_add", score_elements,
                            inputs=2),
            ops.softmax(f"{prefix}.attn.softmax", batch * heads * seq, seq),
            ops.reshape_copy(f"{prefix}.attn.value.contiguous", elements),
            ops.matmul(f"{prefix}.attn.context", batch * heads, seq, head_dim, seq),
        ])

    graph.extend([
        ops.transpose_view(f"{prefix}.attn.context.transpose", elements),
        ops.reshape_copy(f"{prefix}.attn.context.contiguous", elements),
        ops.linear(f"{prefix}.attn.output.dense", tokens, hidden, hidden, bias=True),
        ops.elementwise(OpKind.ADD, f"{prefix}.attn.output.residual", elements,
                        inputs=2),
        ops.layernorm(f"{prefix}.attn.output.layernorm", tokens, hidden),
        ops.linear(f"{prefix}.mlp.fc1", tokens, hidden, config.intermediate,
                   bias=True),
        ops.elementwise(OpKind.GELU, f"{prefix}.mlp.gelu",
                        tokens * config.intermediate, flops_per_element=8.0),
        ops.linear(f"{prefix}.mlp.fc2", tokens, config.intermediate, hidden,
                   bias=True),
        ops.elementwise(OpKind.ADD, f"{prefix}.mlp.residual", elements, inputs=2),
        ops.layernorm(f"{prefix}.mlp.layernorm", tokens, hidden),
    ])


# ---------------------------------------------------------------------------
# Decoder-only (GPT-2 / Llama family / Gemma)
# ---------------------------------------------------------------------------

def _build_decoder(config: ModelConfig, batch: int, seq: int, phase: Phase,
                   attention: AttentionImpl, context_len: int) -> _Parts:
    q_len = seq if phase is Phase.PREFILL else 1
    kv_len = seq if phase is Phase.PREFILL else context_len
    tokens = batch * q_len
    hidden = config.hidden

    head = [ops.embedding("embeddings.word", tokens, hidden, config.vocab)]
    if config.positional is Positional.LEARNED:
        head.extend([
            ops.embedding("embeddings.position", tokens, hidden,
                          config.max_positions),
            ops.elementwise(OpKind.ADD, "embeddings.add_position",
                            tokens * hidden, inputs=2),
        ])
    else:
        # Rotary cos/sin tables built once per forward.
        rope_elements = max(1, batch * kv_len * config.effective_head_dim)
        head.extend([
            ops.elementwise(OpKind.MUL, "rotary.cos", rope_elements),
            ops.elementwise(OpKind.MUL, "rotary.sin", rope_elements),
        ])

    layer: list[Op] = []
    _decoder_layer(layer, config, batch, q_len, kv_len, 0, phase, attention)

    tail = [
        _final_norm(config, "final_norm", tokens),
        # LM head over all positions in prefill (HF eager behavior), last
        # token in decode.
        ops.linear("lm_head", tokens, hidden, config.vocab, bias=False),
    ]
    return head, layer, tail


def _final_norm(config: ModelConfig, label: str, tokens: int) -> Op:
    if config.norm is Norm.RMSNORM:
        return ops.rmsnorm(label, tokens, config.hidden)
    return ops.layernorm(label, tokens, config.hidden)


def _decoder_layer(graph: _OpSink, config: ModelConfig, batch: int,
                   q_len: int, kv_len: int, layer: int, phase: Phase,
                   attention: AttentionImpl) -> None:
    prefix = f"decoder.layer.{layer}"
    tokens = batch * q_len
    hidden = config.hidden
    heads = config.heads
    kv_heads = config.effective_kv_heads
    head_dim = config.effective_head_dim
    elements = tokens * hidden

    graph.append(_pre_norm(config, f"{prefix}.input_norm", tokens))

    # --- QKV projections -------------------------------------------------
    if config.fused_qkv:
        graph.extend([
            ops.linear(f"{prefix}.attn.c_attn", tokens, hidden, 3 * hidden,
                       bias=config.attention_bias),
            ops.split(f"{prefix}.attn.split_qkv", tokens * 3 * hidden, 3),
            # split yields views; the bmm below materializes per-head copies.
            ops.reshape_copy(f"{prefix}.attn.query.contiguous", elements),
            ops.reshape_copy(f"{prefix}.attn.key.contiguous", elements),
            ops.reshape_copy(f"{prefix}.attn.value.contiguous", elements),
        ])
    else:
        q_dim = config.q_dim
        kv_dim = config.kv_dim
        graph.extend([
            ops.linear(f"{prefix}.attn.q_proj", tokens, hidden, q_dim,
                       bias=config.attention_bias),
            ops.linear(f"{prefix}.attn.k_proj", tokens, hidden, kv_dim,
                       bias=config.attention_bias),
            ops.linear(f"{prefix}.attn.v_proj", tokens, hidden, kv_dim,
                       bias=config.attention_bias),
            ops.transpose_view(f"{prefix}.attn.query.transpose", tokens * q_dim),
            ops.transpose_view(f"{prefix}.attn.key.transpose", tokens * kv_dim),
            ops.transpose_view(f"{prefix}.attn.value.transpose", tokens * kv_dim),
        ])

    if config.positional is Positional.ROPE:
        graph.extend([
            ops.rope(f"{prefix}.attn.rope_q", tokens, config.q_dim),
            ops.rope(f"{prefix}.attn.rope_k", tokens, config.kv_dim),
        ])

    if phase is Phase.DECODE:
        graph.extend([
            ops.kv_append(f"{prefix}.attn.kv_cache.key", tokens, config.kv_dim),
            ops.kv_append(f"{prefix}.attn.kv_cache.value", tokens, config.kv_dim),
        ])

    if kv_heads < heads:
        # repeat_kv materializes expanded K/V for grouped-query attention.
        expanded = batch * heads * kv_len * head_dim
        graph.extend([
            ops.reshape_copy(f"{prefix}.attn.repeat_kv.key", expanded),
            ops.reshape_copy(f"{prefix}.attn.repeat_kv.value", expanded),
        ])

    # --- Attention core ---------------------------------------------------
    if attention is AttentionImpl.FLASH:
        graph.append(ops.sdpa_flash(f"{prefix}.attn.sdpa", batch * heads,
                                    q_len, kv_len, head_dim))
    elif config.fused_qkv:
        _gpt2_attention_core(graph, prefix, batch, heads, q_len, kv_len, head_dim)
    else:
        _llama_attention_core(graph, prefix, batch, heads, q_len, kv_len, head_dim)

    graph.extend([
        ops.transpose_view(f"{prefix}.attn.context.transpose",
                           tokens * heads * head_dim),
        ops.reshape_copy(f"{prefix}.attn.context.contiguous",
                         tokens * heads * head_dim),
        ops.linear(f"{prefix}.attn.o_proj", tokens, heads * head_dim, hidden,
                   bias=config.attention_bias),
        ops.elementwise(OpKind.ADD, f"{prefix}.attn.residual", elements, inputs=2),
    ])

    # --- MLP ----------------------------------------------------------------
    graph.append(_pre_norm(config, f"{prefix}.post_attn_norm", tokens))
    inter = config.intermediate
    if config.is_moe:
        _moe_mlp(graph, config, prefix, tokens)
    elif config.is_gated_mlp:
        act_kind = OpKind.SILU if config.activation is Activation.SILU else OpKind.GELU
        graph.extend([
            ops.linear(f"{prefix}.mlp.gate_proj", tokens, hidden, inter,
                       bias=config.mlp_bias),
            ops.linear(f"{prefix}.mlp.up_proj", tokens, hidden, inter,
                       bias=config.mlp_bias),
            ops.elementwise(act_kind, f"{prefix}.mlp.act", tokens * inter,
                            flops_per_element=6.0),
            ops.elementwise(OpKind.MUL, f"{prefix}.mlp.gate_mul", tokens * inter,
                            inputs=2),
            ops.linear(f"{prefix}.mlp.down_proj", tokens, inter, hidden,
                       bias=config.mlp_bias),
        ])
    else:
        # GPT-2's gelu_new expands to ~8 elementwise kernels in eager mode.
        gelu_fanout = 8 if config.fused_qkv else 1
        graph.extend([
            ops.linear(f"{prefix}.mlp.c_fc", tokens, hidden, inter,
                       bias=config.mlp_bias),
            ops.elementwise(OpKind.GELU, f"{prefix}.mlp.gelu", tokens * inter,
                            flops_per_element=8.0, fanout=gelu_fanout),
            ops.linear(f"{prefix}.mlp.c_proj", tokens, inter, hidden,
                       bias=config.mlp_bias),
        ])
    graph.append(ops.elementwise(OpKind.ADD, f"{prefix}.mlp.residual", elements,
                                 inputs=2))


def _moe_mlp(graph: _OpSink, config: ModelConfig, prefix: str,
             tokens: int) -> None:
    """Eager mixture-of-experts MLP (Mixtral-style).

    HF's eager MoE routes with a small GEMM + softmax + top-k, then *loops
    over experts*: gather the routed tokens, run the expert's gated MLP on
    the subset, scale by the routing weight, and scatter-add back. The
    per-expert loop multiplies the operator count by ~7x per expert — the
    most launch-tax-intensive Transformer variant in the catalog.
    """
    hidden = config.hidden
    inter = config.intermediate
    experts = config.moe_experts
    graph.extend([
        ops.linear(f"{prefix}.moe.router", tokens, hidden, experts,
                   bias=False),
        ops.softmax(f"{prefix}.moe.router_softmax", tokens, experts),
        ops.topk(f"{prefix}.moe.topk", tokens, experts, config.moe_top_k),
    ])
    # Expected tokens per expert under balanced routing (>=1 so small
    # batches still exercise every expert path, as eager HF does).
    routed = max(1, tokens * config.moe_top_k // experts)
    act_kind = (OpKind.SILU if config.activation is Activation.SILU
                else OpKind.GELU)
    for expert in range(experts):
        expert_prefix = f"{prefix}.moe.expert{expert}"
        graph.extend([
            ops.index_select(f"{expert_prefix}.gather", routed, hidden),
            ops.linear(f"{expert_prefix}.gate_proj", routed, hidden, inter,
                       bias=False),
            ops.linear(f"{expert_prefix}.up_proj", routed, hidden, inter,
                       bias=False),
            ops.elementwise(act_kind, f"{expert_prefix}.act", routed * inter,
                            flops_per_element=6.0),
            ops.elementwise(OpKind.MUL, f"{expert_prefix}.gate_mul",
                            routed * inter, inputs=2),
            ops.linear(f"{expert_prefix}.down_proj", routed, inter, hidden,
                       bias=False),
            ops.elementwise(OpKind.MUL, f"{expert_prefix}.route_scale",
                            routed * hidden),
            ops.scatter_add(f"{expert_prefix}.scatter", routed, hidden),
        ])


def _pre_norm(config: ModelConfig, label: str, tokens: int) -> Op:
    if config.norm is Norm.RMSNORM:
        return ops.rmsnorm(label, tokens, config.hidden)
    return ops.layernorm(label, tokens, config.hidden)


def _gpt2_attention_core(graph: _OpSink, prefix: str, batch: int,
                         heads: int, q_len: int, kv_len: int,
                         head_dim: int) -> None:
    """GPT-2's eager attention: full/div scaling and where-based causal mask."""
    score_elements = batch * heads * q_len * kv_len
    graph.extend([
        ops.matmul(f"{prefix}.attn.scores", batch * heads, q_len, kv_len, head_dim),
        ops.fill(f"{prefix}.attn.scale_const", 1),
        ops.elementwise(OpKind.SCALE, f"{prefix}.attn.scale", score_elements),
        ops.fill(f"{prefix}.attn.mask_value", 1),
        ops.elementwise(OpKind.MASKED_FILL, f"{prefix}.attn.causal_where",
                        score_elements, inputs=2),
        ops.elementwise(OpKind.ADD, f"{prefix}.attn.mask_add", score_elements,
                        inputs=2),
        ops.softmax(f"{prefix}.attn.softmax", batch * heads * q_len, kv_len),
        ops.elementwise(OpKind.CAST, f"{prefix}.attn.softmax_cast",
                        score_elements),
        ops.matmul(f"{prefix}.attn.context", batch * heads, q_len, head_dim,
                   kv_len),
    ])


def _llama_attention_core(graph: _OpSink, prefix: str, batch: int,
                          heads: int, q_len: int, kv_len: int,
                          head_dim: int) -> None:
    """Llama-family eager attention: additive causal mask."""
    score_elements = batch * heads * q_len * kv_len
    graph.extend([
        ops.matmul(f"{prefix}.attn.scores", batch * heads, q_len, kv_len, head_dim),
        ops.elementwise(OpKind.ADD, f"{prefix}.attn.causal_mask", score_elements,
                        inputs=2),
        ops.softmax(f"{prefix}.attn.softmax", batch * heads * q_len, kv_len),
        ops.matmul(f"{prefix}.attn.context", batch * heads, q_len, head_dim,
                   kv_len),
    ])
