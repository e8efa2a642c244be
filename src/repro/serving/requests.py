"""Request model and workload generators for serving simulations."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Request:
    """One inference request."""

    request_id: int
    arrival_ns: float
    prompt_len: int
    output_tokens: int

    def __post_init__(self) -> None:
        if self.arrival_ns < 0:
            raise ConfigurationError("arrival must be non-negative")
        if self.prompt_len <= 0 or self.output_tokens <= 0:
            raise ConfigurationError("prompt_len and output_tokens must be positive")


@dataclass(frozen=True)
class ServingRequest(Request):
    """A :class:`Request` carrying cluster-scale serving tags.

    ``repro.traffic`` generators emit these: the tenant and session tags
    drive router policies (session affinity pins a session to one replica),
    and the shared-prefix tags drive copy-on-write prefix caching — every
    request with the same ``prefix_hash`` shares the first ``prefix_len``
    prompt tokens, so their KV blocks can be refcounted instead of
    recomputed. Untagged defaults make a ``ServingRequest`` behave exactly
    like a plain :class:`Request` in every pre-cluster code path.
    """

    tenant: str = "default"
    session: str | None = None
    prefix_hash: int | None = None
    prefix_len: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.prefix_hash is None:
            if self.prefix_len != 0:
                raise ConfigurationError(
                    "prefix_len set without a prefix_hash")
        else:
            if not 0 < self.prefix_len < self.prompt_len:
                raise ConfigurationError(
                    f"prefix_len must be in (0, prompt_len): got "
                    f"{self.prefix_len} with prompt_len {self.prompt_len}")


@dataclass(frozen=True)
class RequestOutcome:
    """Measured latencies for one completed request."""

    request: Request
    ttft_ns: float        # arrival -> first token
    completion_ns: float  # arrival -> last token
    batch_size: int       # batch the request was served in
    queue_ns: float = 0.0  # time waited before its batch started prefill
    replica: int = 0      # engine replica that served the request


def queue_delay_ns(request: Request, service_start_ns: float) -> float:
    """The canonical queue-time definition shared by every serving loop.

    Queue time is the wait between a request's arrival and the instant its
    batch starts service (prefill launch). Every policy — static,
    continuous, priority, speculative, pipeline, RAG — on the flat and the
    routed runtime uses this one definition, so ``queue_ns`` means the
    same thing in every :class:`RequestOutcome` and recorder histogram.
    """
    return max(0.0, service_start_ns - request.arrival_ns)


def poisson_requests(
    rate_per_s: float,
    duration_s: float,
    prompt_len: int = 512,
    prompt_jitter: int = 0,
    output_tokens: int = 64,
    output_jitter: int = 0,
    seed: int = 0,
) -> list[Request]:
    """Generate a Poisson arrival stream with optional length jitter.

    Args:
        rate_per_s: Mean arrival rate.
        duration_s: Stream duration.
        prompt_len / prompt_jitter: Prompt length and uniform +/- jitter.
        output_tokens / output_jitter: Output length and uniform +/- jitter.
        seed: RNG seed (deterministic streams for tests/benches).
    """
    if not (0 < rate_per_s < math.inf and 0 < duration_s < math.inf):
        raise ConfigurationError(
            "rate and duration must be positive and finite")
    rng = random.Random(seed)
    requests: list[Request] = []
    clock_s = 0.0
    index = 0
    while True:
        clock_s += rng.expovariate(rate_per_s)
        if clock_s >= duration_s:
            break
        plen = prompt_len + (rng.randint(-prompt_jitter, prompt_jitter)
                             if prompt_jitter else 0)
        olen = output_tokens + (rng.randint(-output_jitter, output_jitter)
                                if output_jitter else 0)
        requests.append(Request(
            request_id=index,
            arrival_ns=clock_s * 1e9,
            prompt_len=max(1, plen),
            output_tokens=max(1, olen),
        ))
        index += 1
    return requests
