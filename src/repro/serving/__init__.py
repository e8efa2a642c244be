"""Serving-scenario composition: batching, agentic chains, RAG.

Every policy runs as a process on the shared sim-backed runtime
(:mod:`repro.serving.runtime`); :func:`simulate_serving` is the one entry
point, and the per-policy ``simulate_*`` helpers are thin wrappers over it.
Two processes serve all policies: continuous batching
(:mod:`repro.serving.continuous`), which a replica's KV pool gates when
it has one, and the batched loop (:mod:`repro.serving.batched`) that
static, priority, speculative, pipeline and RAG policies drive through
their ``claim`` and ``plan`` hooks. The
pre-runtime standalone loops' outcomes are frozen as exact test fixtures.
"""

from repro.serving.batcher import (
    ServingReport,
    StaticBatchPolicy,
    simulate_static_batching,
)
from repro.serving.cluster import (
    AutoscaleConfig,
    ClusterRunResult,
    ClusterRuntime,
    RouterPolicy,
    RouterStats,
    ScaleEvent,
    simulate_cluster,
)
from repro.serving.continuous import (
    ContinuousBatchPolicy,
    simulate_continuous_batching,
)
from repro.serving.latency import LatencyModel
from repro.serving.planner import (
    BatchDecision,
    PlannerConfig,
    PromptChunk,
    StepPlan,
    StepPlanner,
    chunk_plan,
    decode_schedule_label,
)
from repro.serving.pipeline import (
    AgenticPipeline,
    PipelineResult,
    PipelineServingPolicy,
    PipelineStage,
    StageLatency,
)
from repro.serving.rag import (
    RagLatency,
    RagPipeline,
    RagServingPolicy,
    measured_retrieval_ns,
)
from repro.serving.runtime import (
    AdmissionQueue,
    EngineSession,
    KvReplicaStats,
    ReplicaStats,
    ServingRunResult,
    ServingRuntime,
    simulate_serving,
)
from repro.serving.scheduler import (
    ClassifiedRequest,
    PriorityPolicy,
    PriorityReport,
    RequestClass,
    simulate_priority_scheduling,
)
from repro.serving.requests import (
    Request,
    RequestOutcome,
    ServingRequest,
    poisson_requests,
    queue_delay_ns,
)
from repro.serving.speculative import (
    SpeculativeConfig,
    SpeculativeLatency,
    SpeculativeServingPolicy,
    speculative_generation_ns,
)

__all__ = [
    "AdmissionQueue",
    "AgenticPipeline",
    "AutoscaleConfig",
    "BatchDecision",
    "ClusterRunResult",
    "ClusterRuntime",
    "ContinuousBatchPolicy",
    "RouterPolicy",
    "RouterStats",
    "ScaleEvent",
    "ServingRequest",
    "simulate_cluster",
    "PlannerConfig",
    "PromptChunk",
    "StepPlan",
    "StepPlanner",
    "chunk_plan",
    "decode_schedule_label",
    "simulate_continuous_batching",
    "EngineSession",
    "LatencyModel",
    "PipelineResult",
    "PipelineServingPolicy",
    "PipelineStage",
    "ClassifiedRequest",
    "PriorityPolicy",
    "PriorityReport",
    "RagLatency",
    "RagPipeline",
    "RagServingPolicy",
    "KvReplicaStats",
    "ReplicaStats",
    "RequestClass",
    "simulate_priority_scheduling",
    "Request",
    "RequestOutcome",
    "ServingReport",
    "ServingRunResult",
    "ServingRuntime",
    "simulate_serving",
    "SpeculativeConfig",
    "SpeculativeLatency",
    "SpeculativeServingPolicy",
    "speculative_generation_ns",
    "StageLatency",
    "StaticBatchPolicy",
    "measured_retrieval_ns",
    "poisson_requests",
    "queue_delay_ns",
    "simulate_static_batching",
]
