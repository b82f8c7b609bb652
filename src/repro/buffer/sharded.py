"""A hash-partitioned, per-shard-locked buffer pool for concurrent serving.

The paper's simulator owns one buffer and one thread, so its
:class:`~repro.buffer.base.BufferPool` needs no synchronization.  A
serving engine does not have that luxury: concurrent micro-batches all
funnel into ``request()``, and a single eviction list (the LRU stack)
serializes every one of them.  :class:`ShardedBufferPool` removes the
single list: page ids are hash-partitioned across ``K`` independent
shards, each a plain single-threaded :class:`~repro.buffer.base.
BufferPool` (any registered policy) guarded by its own lock, so
requests for pages in different shards never contend.

Semantics, stated honestly:

* **K = 1 is the paper's buffer, bit-exactly.**  One shard holds the
  full capacity and every pinned page; ``request()`` adds one lock
  acquisition around the identical policy code, so a deterministic
  replay produces the identical hit/miss/eviction sequence as the
  unsharded pool — the correctness anchor back to the batch simulator
  (see ``docs/SERVING.md``).
* **K > 1 is a different replacement policy.**  A sharded LRU with
  per-shard capacity ``C/K`` is *not* equivalent to one LRU of
  capacity ``C`` (a burst of popular pages hashed into one shard can
  evict early while other shards idle).  What *is* exact is the
  decomposition: each shard behaves precisely like a single pool fed
  the subsequence of requests hashed to it, and the aggregate
  counters are precisely the shard sums — both are enforced by
  ``tests/buffer/test_sharded.py`` and by the metrics-export
  validator's sum-reconciliation invariants.

The partition rule: page ``p`` lives in shard ``hash(p) % K``
(:meth:`ShardedBufferPool.shard_of`).  :meth:`~ShardedBufferPool.
request_batch` evaluates the same rule for a whole batch at once as
``pages % K``, which equals ``hash(p) % K`` for every integer id in
``[0, sys.hash_info.modulus)`` — Python hashes such an int to itself.
The stabbers' page ids are level-major node numbers, non-negative and
far below that bound; with K > 1 a batch holding any other id is
refused rather than routed to a different shard than ``request()``
would pick.

Pinned pages (§3.3) are partitioned like any other id and occupy
capacity in their home shard; a pin distribution that overflows some
shard raises :class:`~repro.buffer.base.PinningError` — the sharded
pool never silently spills pins across shards.

Under ``REPRO_SANITIZE=1`` the sanitizer registers every shard's pool
and stats with the shard's lock: touching a shard without holding its
lock raises at the exact write (see ``repro.analysis.sanitize``).
"""

from __future__ import annotations

import sys
import threading
from collections.abc import Iterable

import numpy as np

from .base import BufferPool, BufferStats, PageId, PinningError
from .policies import POLICIES

__all__ = ["ShardedBufferPool"]

_HASH_IDENTITY_BOUND = sys.hash_info.modulus
"""Integer ids in ``[0, bound)`` hash to themselves, so for them
``page % K == hash(page) % K`` — the batch partition's precondition."""


class ShardedBufferPool:
    """``K`` independent replacement domains behind one ``request()``.

    Parameters
    ----------
    capacity:
        Total buffer capacity in pages, split as evenly as possible:
        shard ``s`` gets ``capacity // K`` pages plus one of the
        ``capacity % K`` remainder pages (lowest shards first).
    shards:
        Number of partitions ``K`` (>= 1).
    policy:
        Replacement policy per shard (``lru``, ``fifo``, ``clock``,
        ``random``) — every shard runs the same policy.
    pinned:
        Page ids preloaded and excluded from replacement, partitioned
        to their home shards.
    rng:
        Seed for the ``random`` policy; shard ``s`` draws from an
        independent generator seeded ``rng + s`` (other policies
        ignore it).
    """

    def __init__(
        self,
        capacity: int,
        shards: int = 1,
        *,
        policy: str = "lru",
        pinned: Iterable[PageId] = (),
        rng: int = 0,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        if capacity < shards:
            raise ValueError(
                f"cannot split {capacity} pages across {shards} shards "
                "(each shard needs at least one page)"
            )
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choices: {sorted(POLICIES)}"
            )
        pinned_set = frozenset(pinned)
        if len(pinned_set) > capacity:
            raise PinningError(
                f"cannot pin {len(pinned_set)} pages in a "
                f"{capacity}-page buffer"
            )
        per_shard_pins: list[list[PageId]] = [[] for _ in range(shards)]
        for page in pinned_set:
            per_shard_pins[hash(page) % shards].append(page)
        base, extra = divmod(capacity, shards)
        pools = []
        for s, pins in enumerate(per_shard_pins):
            shard_capacity = base + (1 if s < extra else 0)
            if len(pins) > shard_capacity:
                raise PinningError(
                    f"shard {s} holds {len(pins)} pinned pages but only "
                    f"{shard_capacity} slots; repartition or grow the "
                    "buffer"
                )
            if policy == "random":
                rng_s = np.random.default_rng(int(rng) + s)
                pools.append(POLICIES[policy](shard_capacity, pins, rng=rng_s))
            else:
                pools.append(POLICIES[policy](shard_capacity, pins))
        self.capacity = int(capacity)
        self.n_shards = int(shards)
        self.policy = policy
        self.pinned = pinned_set
        self._pools: tuple[BufferPool, ...] = tuple(pools)
        self._locks: tuple[threading.Lock, ...] = tuple(
            threading.Lock() for _ in range(shards)
        )

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def shard_of(self, page: PageId) -> int:
        """The home shard of ``page`` (stable hash partition)."""
        return hash(page) % self.n_shards

    # ------------------------------------------------------------------
    # The hot path
    # ------------------------------------------------------------------
    def request(self, page: PageId) -> bool:
        """Access ``page`` through its home shard; True on a hit.

        Exactly :meth:`repro.buffer.base.BufferPool.request` semantics
        within the shard, under the shard's lock — requests to
        different shards proceed concurrently.
        """
        shard = hash(page) % self.n_shards
        with self._locks[shard]:
            return self._pools[shard].request(page)

    def request_batch(self, pages) -> int:
        """Access every page id in ``pages`` in order; returns the hit count.

        Same counters and final state as ``sum(self.request(int(p))
        for p in pages)``: the batch is partitioned once as
        ``pages % K`` (the module's partition rule), and each shard
        replays its subsequence in stream order through its pool's
        :meth:`~repro.buffer.base.BufferPool.request_batch` under one
        acquisition of its lock — all any per-shard policy pool's
        state depends on.  K=1 skips the partition.  With K > 1 the
        ids must be integers in ``[0, sys.hash_info.modulus)``; raises
        :class:`ValueError` otherwise.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if self.n_shards == 1:
            parts = [pages]
        else:
            if pages.size and (
                pages.min() < 0 or pages.max() >= _HASH_IDENTITY_BOUND
            ):
                raise ValueError(
                    "request_batch partitions non-negative page ids below "
                    f"{_HASH_IDENTITY_BOUND}; use request() for other ids"
                )
            homes = pages % self.n_shards
            parts = [pages[homes == s] for s in range(self.n_shards)]
        hits = 0
        for lock, pool, part in zip(self._locks, self._pools, parts):
            if part.size:
                with lock:
                    hits += pool.request_batch(part.tolist())
        return hits

    # ------------------------------------------------------------------
    # Accounting — the sum-reconciliation surface
    # ------------------------------------------------------------------
    def shard_stats(self) -> tuple[BufferStats, ...]:
        """Independent per-shard counter snapshots (taken under locks)."""
        snapshots = []
        for lock, pool in zip(self._locks, self._pools):
            with lock:
                snapshots.append(pool.stats.snapshot())
        return tuple(snapshots)

    def aggregate_stats(self) -> BufferStats:
        """Counters summed over shards — the single-pool view.

        The obs-layer invariant this must satisfy: every field equals
        the sum of the same field over :meth:`shard_stats`, and
        ``hits + misses == requests`` (each shard satisfies it, so the
        sum does).
        """
        totals = BufferStats()
        for snapshot in self.shard_stats():
            totals.requests += snapshot.requests
            totals.hits += snapshot.hits
            totals.misses += snapshot.misses
            totals.evictions += snapshot.evictions
        return totals

    def reset_stats(self) -> None:
        """Zero every shard's counters (under each shard's lock)."""
        for lock, pool in zip(self._locks, self._pools):
            with lock:
                pool.stats.reset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def unpinned_capacity(self) -> int:
        """Pages available to replacement, summed over shards."""
        return self.capacity - len(self.pinned)

    def shard_capacities(self) -> tuple[int, ...]:
        """Each shard's total capacity (sums to ``capacity``)."""
        return tuple(pool.capacity for pool in self._pools)

    def is_full(self) -> bool:
        """True once every shard's unpinned area is full."""
        for lock, pool in zip(self._locks, self._pools):
            with lock:
                if not pool.is_full():
                    return False
        return True

    def __contains__(self, page: PageId) -> bool:
        shard = hash(page) % self.n_shards
        with self._locks[shard]:
            return page in self._pools[shard]

    def __len__(self) -> int:
        """Resident pages over all shards, pinned included."""
        total = 0
        for lock, pool in zip(self._locks, self._pools):
            with lock:
                total += len(pool)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedBufferPool(capacity={self.capacity}, "
            f"shards={self.n_shards}, policy={self.policy!r})"
        )
