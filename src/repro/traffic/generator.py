"""Traffic generation: arrival processes + length/tag sampling.

This is the top tier of the cluster stack: it turns an
:class:`~repro.traffic.arrivals.ArrivalSpec` plus length distributions and
tagging knobs into a stream of
:class:`~repro.serving.requests.ServingRequest` objects the router consumes.

Three independent RNG streams (derived from the one spec seed) sample
arrivals, lengths, and tags, so turning a tagging knob — say raising
``--prefix-share`` — never perturbs *when* requests arrive or *how long*
they are. That separation is what makes cached-vs-uncached comparisons
apples-to-apples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import (
    ConfigurationError, require_non_negative, require_positive,
)
from repro.serving.requests import Request, ServingRequest
from repro.traffic.arrivals import ArrivalFamily, ArrivalSpec, arrival_times_ns

#: Seed offsets separating the three sampling concerns.
_LENGTH_STREAM = 0x1E57
_TAG_STREAM = 0x7A65


@dataclass(frozen=True)
class PrefixSpec:
    """Shared-prefix tagging: which requests share a cached system prompt.

    Attributes:
        share: Fraction of requests tagged with a shared prefix, in
            ``[0, 1]``. 0 disables tagging entirely (bit-parity knob).
        prefix_len: Tokens the shared prefix spans. Tagged requests'
            prompts are the prefix plus their sampled suffix.
        pool: Number of distinct prefixes in rotation (tenants' system
            prompts); tagged requests draw uniformly from it.
    """

    share: float = 0.0
    prefix_len: int = 256
    pool: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.share <= 1.0:
            raise ConfigurationError("prefix share must be in [0, 1]")
        require_positive(self, "prefix_len", "pool")


@dataclass(frozen=True)
class TrafficConfig:
    """Everything that determines one generated request stream."""

    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    prompt_len: int = 512
    prompt_jitter: int = 0
    output_tokens: int = 64
    output_jitter: int = 0
    prefix: PrefixSpec = field(default_factory=PrefixSpec)
    sessions: int = 0   # distinct sticky sessions; 0 leaves requests untagged
    tenants: int = 1

    def __post_init__(self) -> None:
        require_positive(self, "prompt_len", "output_tokens", "tenants")
        require_non_negative(self, "prompt_jitter", "output_jitter",
                             "sessions")


def generate_traffic(config: TrafficConfig) -> list[ServingRequest]:
    """Sample the full stream: arrivals, lengths, then tags."""
    if config.arrivals.family is ArrivalFamily.FIXED:
        raise ConfigurationError(
            "FIXED traffic wraps an explicit request list — use "
            "tag_requests() on it instead of generate_traffic()")
    times = arrival_times_ns(config.arrivals)
    length_rng = random.Random(config.arrivals.seed + _LENGTH_STREAM)
    tag_rng = random.Random(config.arrivals.seed + _TAG_STREAM)
    requests: list[ServingRequest] = []
    for index, arrival_ns in enumerate(times):
        plen = config.prompt_len + (
            length_rng.randint(-config.prompt_jitter, config.prompt_jitter)
            if config.prompt_jitter else 0)
        olen = config.output_tokens + (
            length_rng.randint(-config.output_jitter, config.output_jitter)
            if config.output_jitter else 0)
        requests.append(_tagged(index, arrival_ns, max(1, plen), max(1, olen),
                                config, tag_rng))
    return requests


def _tagged(index: int, arrival_ns: float, prompt_len: int,
            output_tokens: int, config: TrafficConfig,
            tag_rng: random.Random) -> ServingRequest:
    prefix_hash: int | None = None
    prefix_len = 0
    spec = config.prefix
    if spec.share > 0 and tag_rng.random() < spec.share:
        prefix_hash = 1 + tag_rng.randrange(spec.pool)
        prefix_len = spec.prefix_len
        # The shared prefix prepends the sampled suffix, so tagged
        # requests' prompts are strictly longer than the prefix.
        prompt_len = prefix_len + prompt_len
    session = (f"s{tag_rng.randrange(config.sessions)}"
               if config.sessions else None)
    tenant = (f"t{tag_rng.randrange(config.tenants)}"
              if config.tenants > 1 else "default")
    return ServingRequest(
        request_id=index,
        arrival_ns=arrival_ns,
        prompt_len=prompt_len,
        output_tokens=output_tokens,
        tenant=tenant,
        session=session,
        prefix_hash=prefix_hash,
        prefix_len=prefix_len,
    )


def tag_requests(requests: Sequence[Request],
                 prefix: PrefixSpec | None = None,
                 sessions: int = 0,
                 tenants: int = 1,
                 seed: int = 0) -> list[Request]:
    """Lift an explicit (FIXED) request list into tagged ServingRequests.

    Arrival times and lengths are preserved exactly — only tags are added,
    so a fixed-arrival scenario stays bit-identical to the legacy list.
    With no tagging requested at all the input list is returned unchanged
    (the ``--prefix-share 0`` parity lock is this early return).
    """
    share = prefix.share if prefix is not None else 0.0
    if share == 0.0 and sessions == 0 and tenants <= 1:
        return list(requests)
    tag_rng = random.Random(seed + _TAG_STREAM)
    tagged: list[Request] = []
    for request in requests:
        prefix_hash: int | None = None
        prefix_len = 0
        if prefix is not None and share > 0 and tag_rng.random() < share:
            # Prompts are fixed here, so the prefix must fit inside them.
            usable = min(prefix.prefix_len, request.prompt_len - 1)
            if usable > 0:
                prefix_hash = 1 + tag_rng.randrange(prefix.pool)
                prefix_len = usable
        session = f"s{tag_rng.randrange(sessions)}" if sessions else None
        tenant = f"t{tag_rng.randrange(tenants)}" if tenants > 1 else "default"
        tagged.append(ServingRequest(
            request_id=request.request_id,
            arrival_ns=request.arrival_ns,
            prompt_len=request.prompt_len,
            output_tokens=request.output_tokens,
            tenant=tenant,
            session=session,
            prefix_hash=prefix_hash,
            prefix_len=prefix_len,
        ))
    return tagged
