"""Sharded buffer pool: partitioning, K=1 exactness, sum reconciliation."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.buffer import LRUBuffer, PinningError, ShardedBufferPool
from repro.buffer.policies import POLICIES


def _trace(rng: np.random.Generator, n: int, universe: int) -> list[int]:
    return [int(p) for p in rng.integers(0, universe, n)]


class TestConstruction:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardedBufferPool(8, 0)

    def test_each_shard_needs_a_page(self):
        with pytest.raises(ValueError):
            ShardedBufferPool(3, 4)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ShardedBufferPool(8, 2, policy="mru")

    @pytest.mark.parametrize("capacity,shards", [(8, 3), (10, 4), (7, 7)])
    def test_capacities_split_evenly_and_sum(self, capacity, shards):
        pool = ShardedBufferPool(capacity, shards)
        caps = pool.shard_capacities()
        assert sum(caps) == capacity
        assert max(caps) - min(caps) <= 1

    def test_pins_partition_to_home_shards(self):
        pins = range(6)
        pool = ShardedBufferPool(12, 3, pinned=pins)
        for page in pins:
            assert page in pool
        assert len(pool) == 6

    def test_overfull_shard_pin_raises(self):
        # 10 pins homed to one shard of two cannot fit its 8 slots,
        # even though the 16-page total would hold them.
        pins = [p for p in range(64) if hash(p) % 2 == 0][:10]
        with pytest.raises(PinningError):
            ShardedBufferPool(16, 2, pinned=pins)

    def test_total_pin_overflow_raises(self):
        with pytest.raises(PinningError):
            ShardedBufferPool(4, 2, pinned=range(5))


class TestKOneExactness:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_k1_matches_plain_pool_request_by_request(self, policy):
        rng = np.random.default_rng(7)
        trace = _trace(rng, 5000, 200)
        kwargs = {"rng": 42} if policy == "random" else {}
        sharded = ShardedBufferPool(
            32, 1, policy=policy, pinned=range(4), **kwargs
        )
        if policy == "random":
            plain = POLICIES[policy](
                32, range(4), rng=np.random.default_rng(42)
            )
        else:
            plain = POLICIES[policy](32, range(4))
        for page in trace:
            assert sharded.request(page) == plain.request(page)
        assert sharded.aggregate_stats().as_dict() == plain.stats.as_dict()
        assert len(sharded) == len(plain)

    def test_k1_is_full_and_contains(self):
        sharded = ShardedBufferPool(4, 1)
        plain = LRUBuffer(4)
        for page in range(10):
            sharded.request(page)
            plain.request(page)
            assert sharded.is_full() == plain.is_full()
            assert (page in sharded) == (page in plain)


class TestDecomposition:
    """Each shard == a plain pool fed its hash-filtered subsequence."""

    @pytest.mark.parametrize("shards", [2, 3, 8])
    def test_shards_match_filtered_replay(self, shards):
        rng = np.random.default_rng(11)
        trace = _trace(rng, 8000, 500)
        pool = ShardedBufferPool(32, shards)
        for page in trace:
            pool.request(page)

        caps = pool.shard_capacities()
        for s in range(shards):
            reference = LRUBuffer(caps[s])
            for page in trace:
                if hash(page) % shards == s:
                    reference.request(page)
            assert (
                pool.shard_stats()[s].as_dict()
                == reference.stats.as_dict()
            )

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_aggregate_is_shard_sum(self, shards):
        rng = np.random.default_rng(13)
        pool = ShardedBufferPool(24, shards)
        for page in _trace(rng, 6000, 300):
            pool.request(page)
        agg = pool.aggregate_stats().as_dict()
        per = [s.as_dict() for s in pool.shard_stats()]
        for field in agg:
            assert agg[field] == sum(p[field] for p in per)
        assert agg["hits"] + agg["misses"] == agg["requests"]

    def test_reset_stats_zeros_every_shard(self):
        pool = ShardedBufferPool(8, 2)
        for page in range(20):
            pool.request(page)
        pool.reset_stats()
        assert pool.aggregate_stats().as_dict() == {
            "requests": 0, "hits": 0, "misses": 0, "evictions": 0,
        }
        # contents survive a stats reset
        assert len(pool) > 0

    def test_unpinned_capacity(self):
        pool = ShardedBufferPool(16, 4, pinned=range(5))
        assert pool.unpinned_capacity == 11


class TestRequestBatch:
    """``request_batch`` == per-page ``request()`` on a twin pool."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_matches_per_page_requests(self, shards, policy):
        pinned = (0, 7, 13, 201)
        batched = ShardedBufferPool(
            48, shards, policy=policy, pinned=pinned, rng=5
        )
        twin = ShardedBufferPool(
            48, shards, policy=policy, pinned=pinned, rng=5
        )
        pages = np.random.default_rng(11).integers(0, 400, 4000)
        # Chunked: the pools must agree at every batch boundary, not
        # only at the end of the stream.
        for lo in range(0, len(pages), 700):
            chunk = pages[lo : lo + 700]
            hits = sum(twin.request(int(p)) for p in chunk)
            assert batched.request_batch(chunk) == hits
            assert [s.as_dict() for s in batched.shard_stats()] == [
                s.as_dict() for s in twin.shard_stats()
            ]
            if policy == "lru":
                assert [p.lru_order() for p in batched._pools] == [
                    p.lru_order() for p in twin._pools
                ]
        assert len(batched) == len(twin)
        for page in range(400):
            assert (page in batched) == (page in twin)

    def test_accepts_lists_and_empty_batches(self):
        pool = ShardedBufferPool(8, 2)
        assert pool.request_batch([]) == 0
        assert pool.request_batch([3, 4, 3]) == 1
        assert pool.aggregate_stats().requests == 3

    @pytest.mark.parametrize("page", [-1, 2**61 - 1])
    def test_ids_outside_the_hash_identity_are_refused(self, page):
        # hash(-1) == -2 and hash(2**61 - 1) == 0, so ``pages % K``
        # would send these ids to a different shard than request().
        pool = ShardedBufferPool(8, 2)
        with pytest.raises(ValueError, match="non-negative"):
            pool.request_batch(np.array([1, page], dtype=np.int64))
        assert pool.aggregate_stats().requests == 0


class TestConcurrency:
    def test_concurrent_totals_reconcile(self):
        pool = ShardedBufferPool(64, 8)
        n_threads, n_requests = 4, 5000
        errors: list[Exception] = []

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for page in rng.integers(0, 1000, n_requests):
                    pool.request(int(page))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,))
            for s in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        agg = pool.aggregate_stats()
        assert agg.requests == n_threads * n_requests
        assert agg.hits + agg.misses == agg.requests
        per = pool.shard_stats()
        assert agg.requests == sum(s.requests for s in per)
        assert agg.evictions == sum(s.evictions for s in per)

    def test_concurrent_batches_reconcile(self):
        pool = ShardedBufferPool(64, 8)
        n_threads, n_requests, step = 4, 5000, 500
        errors: list[Exception] = []
        hits = [0] * n_threads

        def worker(i: int) -> None:
            pages = np.random.default_rng(i).integers(0, 1000, n_requests)
            try:
                for lo in range(0, n_requests, step):
                    hits[i] += pool.request_batch(pages[lo : lo + step])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-batch often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        agg = pool.aggregate_stats()
        assert agg.requests == n_threads * n_requests
        assert agg.hits == sum(hits)
        assert agg.hits + agg.misses == agg.requests
        per = pool.shard_stats()
        assert agg.requests == sum(s.requests for s in per)
        assert agg.evictions == sum(s.evictions for s in per)
