"""KvManager — per-replica KV-pool policy engine.

One manager per engine replica owns that replica's block pool (wrapped in a
:class:`KvCacheResource` so the sim core sees it), applies the configured
pressure policy, prices swap transfers over the platform interconnect, and
logs every pool mutation as a :class:`KvCacheEvent` for the K-rules.

The two pressure policies reproduce the serving-system trade-off the paper's
coupling argument bears on:

* **recompute** — a preempted victim's blocks are freed outright and its
  prefill is re-simulated on readmission. No interconnect traffic; the cost
  is recomputed prefill FLOPs, identical on every platform.
* **offload** — a victim's blocks are copied to host memory over the
  CPU-GPU link and copied back before its next decode step. The cost is
  ``Platform.transfer_ns(blocks * block_bytes)`` per direction, so the
  loosely-coupled PCIe platforms pay ~14x the NVLink-C2C (GH200) price per
  byte — which is exactly the regime where coupling shows up in tokens/s.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import (
    ConfigurationError, SimulationError, require_positive,
)
from repro.hardware.platform import Platform
from repro.kvcache.events import KvCacheEvent
from repro.kvcache.pool import (
    KV_BLOCK_TOKENS,
    BlockPool,
    block_bytes,
    blocks_for_tokens,
    pool_capacity_blocks,
)
from repro.kvcache.resource import KvCacheResource
from repro.workloads.config import ModelConfig

if TYPE_CHECKING:
    from repro.obs.recorder import RunRecorder
    from repro.serving.requests import Request


class KvPolicy(enum.Enum):
    """What to do when the KV pool runs out of blocks."""

    NONE = "none"            # unlimited memory: today's serving behaviour
    RECOMPUTE = "recompute"  # preempt victims; re-prefill on readmission
    OFFLOAD = "offload"      # swap victims' blocks to host over the link


@dataclass(frozen=True)
class KvCacheConfig:
    """Per-run KV-cache settings (CLI: ``--kv-policy`` / ``--kv-pool-gib``).

    Attributes:
        policy: Pressure policy; ``NONE`` disables the subsystem entirely,
            reproducing pre-kvcache serving bit-identically.
        pool_gib: Explicit pool size in GiB; ``None`` derives the pool from
            GPU capacity minus weights and the runtime reserve.
        block_tokens: Tokens per KV block.
        prefix_caching: Share full KV blocks between requests tagged with
            the same prefix hash (copy-on-write forks for the divergent
            suffix). Orthogonal to the pressure policy — it works with
            ``NONE`` (capacity derived from HBM) as well as under
            recompute/offload pressure.
    """

    policy: KvPolicy = KvPolicy.NONE
    pool_gib: float | None = None
    block_tokens: int = KV_BLOCK_TOKENS
    prefix_caching: bool = False

    def __post_init__(self) -> None:
        require_positive(self, "block_tokens")
        if self.pool_gib is not None:
            require_positive(self, "pool_gib")

    @property
    def enabled(self) -> bool:
        return self.policy is not KvPolicy.NONE or self.prefix_caching


class KvManager:
    """One replica's paged KV cache under a pressure policy."""

    def __init__(
        self,
        model: ModelConfig,
        platform: Platform,
        policy: KvPolicy,
        capacity_blocks: int,
        block_tokens: int = KV_BLOCK_TOKENS,
        recorder: RunRecorder | None = None,
        replica: int = 0,
        prefix_caching: bool = False,
    ) -> None:
        if policy is KvPolicy.NONE and not prefix_caching:
            raise ConfigurationError(
                "KvManager is the pressure machinery; policy NONE means "
                "no manager at all")
        self.model = model
        self.platform = platform
        self.policy = policy
        self.prefix_caching = prefix_caching
        self.block_tokens = block_tokens
        self.block_bytes = block_bytes(model, block_tokens)
        self.recorder = recorder
        self.replica = replica
        self.resource = KvCacheResource(
            BlockPool(capacity_blocks, name=f"kv{replica}"),
            name=f"kv{replica}")
        self.events: list[KvCacheEvent] = []
        #: Host-resident block counts of swapped-out sequences.
        self._host_blocks: dict[int, int] = {}
        # Stats surfaced in ServingRunResult / the CLI summary.
        self.preemptions = 0
        self.swap_out_events = 0
        self.swap_in_events = 0
        self.swapped_blocks = 0
        self.swap_ns_total = 0.0
        #: seq -> (prefix key, shared full blocks) for bound sequences.
        self._seq_prefix: dict[int, tuple[int, int]] = {}
        self.prefix_hits = 0
        self.prefix_misses = 0
        self.cow_forks = 0
        self.prefix_evictions = 0

    @classmethod
    def for_gpu(cls, model: ModelConfig, platform: Platform,
                config: KvCacheConfig, recorder: RunRecorder | None = None,
                replica: int = 0) -> KvManager:
        """Build a manager with capacity derived from the platform's GPU."""
        capacity = pool_capacity_blocks(model, platform.gpu,
                                        pool_gib=config.pool_gib,
                                        block_tokens=config.block_tokens)
        return cls(model, platform, config.policy, capacity,
                   block_tokens=config.block_tokens, recorder=recorder,
                   replica=replica, prefix_caching=config.prefix_caching)

    # -- geometry --------------------------------------------------------
    @property
    def pool(self) -> BlockPool:
        return self.resource.pool

    @property
    def capacity_blocks(self) -> int:
        return self.pool.capacity_blocks

    def blocks_for(self, tokens: int) -> int:
        return blocks_for_tokens(tokens, self.block_tokens)

    def growth_delta(self, seq: int, tokens: int) -> int:
        """Extra *private* blocks ``seq`` needs for ``tokens`` entries.

        A sequence bound to a shared prefix group already covers the
        prefix's full blocks through the group, so only the copy-on-write
        suffix counts against its private holdings.
        """
        shared = self._seq_prefix.get(seq, (0, 0))[1]
        return max(0, self.blocks_for(tokens) - shared - self.pool.held(seq))

    def growth_deltas(self, seqs: Sequence[int],
                      tokens: Sequence[int]) -> list[int]:
        """:meth:`growth_delta` of each ``(seqs[i], tokens[i])``, in one
        pass: ``ceil(tokens / block_tokens) - shared - held``, floored at 0.
        """
        block_tokens = self.block_tokens
        bound = self._seq_prefix
        held = self.pool.holdings
        return [delta if (delta := -(-count // block_tokens)
                          - bound.get(seq, (0, 0))[1]
                          - held.get(seq, 0)) > 0 else 0
                for seq, count in zip(seqs, tokens)]

    # -- admission -------------------------------------------------------
    def admit(self, request: Request, ts_ns: float) -> int | None:
        """Reserve a request's prompt blocks (plus the prefill's first token).

        Returns the prompt tokens a prefix-cache hit lets the prefill skip
        (0 without one), or ``None`` when the pool refuses: nothing stays
        bound or allocated, and the head-of-line request waits. A request
        whose lifetime (prompt plus output) exceeds the whole pool raises
        ``ConfigurationError``, since no amount of waiting admits it.
        """
        rid = request.request_id
        lifetime = self.blocks_for(request.prompt_len + request.output_tokens)
        if lifetime > self.capacity_blocks:
            raise ConfigurationError(
                f"request {rid} needs {lifetime} KV blocks but the pool "
                f"holds {self.capacity_blocks}; the pool cannot fit a "
                f"single sequence of this length")
        cached_tokens = 0
        key = (getattr(request, "prefix_hash", None)
               if self.prefix_caching else None)
        if key is not None:
            got = self.acquire_prefix(rid, key,
                                      getattr(request, "prefix_len"), ts_ns)
            if got is None:
                return None  # a cold prefix cannot fit
            cached_tokens = got
        need = self.growth_delta(rid, request.prompt_len + 1)
        if not self.try_allocate(rid, need, ts_ns):
            if key is not None:
                self.release_prefix(rid, ts_ns)
            return None
        return cached_tokens

    def could_admit(self, request: Request, free: int) -> bool:
        """Whether :meth:`admit` would act on ``request`` with ``free``
        blocks free: admit it, touch the prefix cache (a prefix-tagged
        request does even when refused), or raise."""
        return (self.blocks_for(request.prompt_len + request.output_tokens)
                > self.capacity_blocks
                or (self.prefix_caching
                    and getattr(request, "prefix_hash", None) is not None)
                or self.growth_delta(request.request_id,
                                     request.prompt_len + 1) <= free)

    # -- allocation ------------------------------------------------------
    def try_allocate(self, seq: int, blocks: int, ts_ns: float) -> bool:
        """Admission-time allocation; logs ``alloc`` on success."""
        if not self.resource.try_acquire(seq, blocks, ts_ns):
            return False
        self._log(ts_ns, "alloc", seq, blocks)
        return True

    def decode_steps_covered(self, seqs: Sequence[int],
                             contexts: Sequence[int],
                             first_deltas: Sequence[int], limit: int) -> int:
        """How many of the next ``limit`` decode steps the pool covers.

        ``seqs[i]`` holds ``contexts[i]`` tokens and needs
        ``first_deltas[i]`` blocks (from :meth:`growth_deltas`) for the
        first step, which the caller has already made room for. Its held
        plus shared blocks then equal ``ceil((contexts[i] + 1) /
        block_tokens)``, so step ``j`` needs a new block exactly when
        ``contexts[i] + j`` is a multiple of ``block_tokens``. Counting
        stops before the first step whose growth the free blocks left by
        the earlier steps cannot cover: eviction has to run there.
        """
        block_tokens = self.block_tokens
        bound = self._seq_prefix
        held = self.pool.holdings
        # due[r]: sequences that need a block at every step j with
        # j % block_tokens == r.
        due: dict[int, int] = {}
        for seq, context, delta in zip(seqs, contexts, first_deltas):
            if (held.get(seq, 0) + bound.get(seq, (0, 0))[1] + delta
                    != -(-(context + 1) // block_tokens)):
                raise SimulationError(
                    f"seq {seq} holds blocks for other than its "
                    f"{context + 1} tokens after growth")
            slot = -context % block_tokens
            due[slot] = due.get(slot, 0) + 1
        free = self.pool.free_blocks - sum(first_deltas)
        steps = 1
        while steps < limit:
            need = due.get(steps % block_tokens, 0)
            if need > free:
                break
            free -= need
            steps += 1
        return steps

    def apply_decode_window(self, seqs: Sequence[int],
                            contexts: Sequence[int],
                            first_deltas: Sequence[int],
                            starts: Sequence[float]) -> None:
        """Grow the pool and log the decode events of a window of steps.

        Runs the growth and decode logging of one decode step per entry
        of ``starts`` (the step's start time): the first step acquires
        ``first_deltas``, every later step one block for each sequence at
        a block boundary (see :meth:`decode_steps_covered`). Each step
        logs its ``grow`` events, then its ``decode`` event stamped with
        that step's ``allocated`` count; a ``decode`` event (``seq`` -1)
        carries the step's ids in batch order for K003. The resident set
        cannot change inside a window, so every step's ``decode`` event
        carries the same id tuple.
        """
        block_tokens = self.block_tokens
        due: dict[int, list[tuple[int, int]]] = {}
        if len(starts) > 1:
            for seq, context in zip(seqs, contexts):
                due.setdefault(-context % block_tokens, []).append((seq, 1))
        pool = self.pool
        try_acquire = self.resource.try_acquire
        replica = self.replica
        decode_step = KvCacheEvent.decode_step
        ids = tuple(seqs)
        events: list[KvCacheEvent] = []
        for step, ts_ns in enumerate(starts):
            grown = (zip(seqs, first_deltas) if step == 0
                     else due.get(step % block_tokens, ()))
            for seq, delta in grown:
                if not delta:
                    continue
                if not try_acquire(seq, delta, ts_ns):
                    raise SimulationError(
                        f"kv growth failed for seq {seq} inside a decode "
                        f"window the pool was planned to cover")
                events.append(KvCacheEvent(ts_ns, "grow", seq, delta,
                                           pool.allocated, replica))
            events.append(decode_step(ts_ns, ids, pool.allocated, replica))
        self.events.extend(events)
        if self.recorder is not None:
            self.recorder.kv_events.extend(events)

    def free(self, seq: int, ts_ns: float) -> int:
        """Sequence completed: return all its private blocks.

        A bound prefix reference is dropped too; the shared group's blocks
        stay warm in the pool until evicted or flushed.
        """
        freed = self.resource.release(seq, ts_ns)
        self._log(ts_ns, "free", seq, freed)
        if seq in self._seq_prefix:
            self.release_prefix(seq, ts_ns)
        return freed

    # -- pressure --------------------------------------------------------
    def preempt(self, seq: int, ts_ns: float) -> int:
        """Recompute policy: drop the victim's blocks on the floor."""
        freed = self.resource.release(seq, ts_ns)
        if freed == 0:
            raise SimulationError(
                f"preempting seq {seq} which holds no blocks")
        self.preemptions += 1
        self._log(ts_ns, "preempt", seq, freed)
        return freed

    def swap_out(self, seq: int, ts_ns: float) -> float:
        """Offload policy: move the victim's blocks to the host.

        Returns the transfer time over the platform interconnect; the
        caller charges it to the serving clock.
        """
        blocks = self.pool.held(seq)
        if blocks == 0:
            raise SimulationError(f"swapping out seq {seq} which holds "
                                  f"no blocks")
        self.resource.release(seq, ts_ns)
        self._host_blocks[seq] = blocks
        transfer = self.platform.transfer_ns(blocks * self.block_bytes)
        self.swap_out_events += 1
        self.swapped_blocks += blocks
        self.swap_ns_total += transfer
        self._log(ts_ns, "swap_out", seq, blocks)
        return transfer

    def swap_in(self, seq: int, ts_ns: float) -> float | None:
        """Bring an offloaded sequence back; ``None`` when there is no room.

        Must precede the sequence's next decode step (rule K003).
        """
        blocks = self._host_blocks.get(seq)
        if blocks is None:
            raise SimulationError(f"seq {seq} is not swapped out")
        if not self.resource.try_acquire(seq, blocks, ts_ns):
            return None
        del self._host_blocks[seq]
        transfer = self.platform.transfer_ns(blocks * self.block_bytes)
        self.swap_in_events += 1
        self.swap_ns_total += transfer
        self._log(ts_ns, "swap_in", seq, blocks)
        return transfer

    def host_blocks_of(self, seq: int) -> int:
        """Blocks ``seq`` has parked in host memory (0 when resident)."""
        return self._host_blocks.get(seq, 0)

    @property
    def host_blocks(self) -> int:
        """Blocks currently parked in host memory."""
        return sum(self._host_blocks.values())

    # -- shared-prefix caching (copy-on-write) ---------------------------
    def shared_blocks_for(self, prefix_len: int) -> int:
        """Full blocks a prefix of ``prefix_len`` tokens can share.

        Only whole blocks are shareable; the partial tail block (and
        everything after it) is the request's private copy-on-write fork.
        """
        return prefix_len // self.block_tokens

    def shared_blocks_of(self, seq: int) -> int:
        """Shared blocks ``seq`` covers through its bound prefix group."""
        return self._seq_prefix.get(seq, (0, 0))[1]

    def acquire_prefix(self, seq: int, key: int, prefix_len: int,
                       ts_ns: float) -> int | None:
        """Bind ``seq`` to the shared group for ``key``.

        Returns the number of *cached* prompt tokens ``seq`` can skip
        (0 on a cold miss — the group is inserted and this request's full
        prefill populates it), or ``None`` when a cold group cannot fit
        even after evicting idle groups.
        """
        if not self.prefix_caching:
            raise SimulationError("prefix caching is not enabled")
        if seq in self._seq_prefix:
            raise SimulationError(f"seq {seq} already holds a prefix")
        blocks = self.shared_blocks_for(prefix_len)
        if blocks == 0:
            return 0
        if self.pool.has_shared(key):
            refs = self.pool.ref_shared(key)
            self._seq_prefix[seq] = (key, blocks)
            self.prefix_hits += 1
            self.cow_forks += 1
            self._log(ts_ns, "prefix_ref", key, 0, refs=refs)
            return blocks * self.block_tokens
        if not self.pool.can_allocate(blocks):
            self.evict_idle_prefixes(blocks, ts_ns)
            if not self.pool.can_allocate(blocks):
                return None
        self.pool.add_shared(key, blocks)
        self._seq_prefix[seq] = (key, blocks)
        self.prefix_misses += 1
        self._log(ts_ns, "prefix_alloc", key, blocks, refs=1)
        return 0

    def release_prefix(self, seq: int, ts_ns: float) -> None:
        """Drop ``seq``'s reference on its bound group (blocks stay warm)."""
        key, _ = self._seq_prefix.pop(seq)
        refs = self.pool.deref_shared(key)
        self._log(ts_ns, "prefix_deref", key, 0, refs=refs)

    def evict_idle_prefixes(self, needed_blocks: int, ts_ns: float) -> bool:
        """Evict refcount-0 groups (oldest first) until ``needed`` fits.

        Returns True when the pool can now allocate ``needed_blocks``.
        """
        for key in self.pool.idle_shared_keys():
            if self.pool.can_allocate(needed_blocks):
                break
            freed = self.pool.evict_shared(key)
            self.prefix_evictions += 1
            self._log(ts_ns, "prefix_free", key, freed)
        return self.pool.can_allocate(needed_blocks)

    def flush_prefixes(self, ts_ns: float) -> None:
        """End of run: return every idle group's blocks to the pool.

        A group still referenced here means a sequence completed without
        releasing its prefix — the same class of leak rule K001 flags.
        """
        for key in self.pool.idle_shared_keys():
            freed = self.pool.evict_shared(key)
            self._log(ts_ns, "prefix_free", key, freed)
        if self.pool.shared_allocated:
            raise SimulationError(
                "prefix groups still referenced at end of run: "
                f"{self.pool.shared_allocated} blocks leaked")

    def _log(self, ts_ns: float, kind: str, seq: int, blocks: int,
             refs: int = 0) -> None:
        event = KvCacheEvent(ts_ns=ts_ns, kind=kind, seq=seq, blocks=blocks,
                             allocated=self.pool.allocated,
                             replica=self.replica, refs=refs)
        self.events.append(event)
        if self.recorder is not None:
            self.recorder.on_kv_event(event)
