"""``BufferPool.request_batch`` == one ``request()`` per page.

Every policy in ``POLICIES`` is fed the same stream two ways — the
batch entry point on one pool, per-page ``request()`` on a twin — and
the two must agree at every batch boundary: hit counts, counters,
resident set, and (for LRU) the exact stack order.  A pool with a sink
attached must emit the identical sequence of sink events.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.buffer import POLICIES, RandomBuffer

PINNED = (0, 7, 13, 201)


def make(name: str, capacity: int, pinned=()):
    if name == "random":
        return RandomBuffer(capacity, pinned, rng=np.random.default_rng(5))
    return POLICIES[name](capacity, pinned)


def stream(n: int = 4000, universe: int = 400) -> list[int]:
    return np.random.default_rng(11).integers(0, universe, n).tolist()


def assert_same_state(batched, twin, universe: int = 400) -> None:
    assert batched.stats.as_dict() == twin.stats.as_dict()
    assert len(batched) == len(twin)
    for page in range(universe):
        assert (page in batched) == (page in twin)
    if hasattr(twin, "lru_order"):
        assert batched.lru_order() == twin.lru_order()


class RecordingSink:
    """Records every sink call in order."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def record_hit(self, page) -> None:
        self.events.append(("hit", page))

    def record_pin_hit(self, page) -> None:
        self.events.append(("pin_hit", page))

    def record_miss(self, page, evicted) -> None:
        self.events.append(("miss", page, evicted))


@pytest.mark.parametrize("policy", sorted(POLICIES))
class TestMatchesPerPageRequests:
    def test_chunked_stream_with_pins(self, policy):
        batched, twin = make(policy, 48, PINNED), make(policy, 48, PINNED)
        pages = stream()
        for lo in range(0, len(pages), 700):
            chunk = pages[lo : lo + 700]
            hits = sum(twin.request(p) for p in chunk)
            assert batched.request_batch(chunk) == hits
            assert_same_state(batched, twin)

    def test_zero_unpinned_capacity(self, policy):
        batched = make(policy, len(PINNED), PINNED)
        twin = make(policy, len(PINNED), PINNED)
        pages = stream(n=1000, universe=30)
        hits = sum(twin.request(p) for p in pages)
        assert batched.request_batch(pages) == hits
        assert_same_state(batched, twin, universe=30)
        assert batched.stats.evictions == 0
        assert len(batched) == len(PINNED)

    def test_empty_batch(self, policy):
        batched, twin = make(policy, 8, PINNED), make(policy, 8, PINNED)
        assert batched.request_batch([]) == 0
        assert_same_state(batched, twin)
        pages = stream(n=50, universe=20)
        batched.request_batch(pages)
        for p in pages:
            twin.request(p)
        assert batched.request_batch([]) == 0
        assert_same_state(batched, twin)

    def test_sink_sees_every_request(self, policy):
        batched, twin = make(policy, 24, PINNED), make(policy, 24, PINNED)
        batched.sink, twin.sink = RecordingSink(), RecordingSink()
        pages = stream(n=2000)
        for lo in range(0, len(pages), 300):
            chunk = pages[lo : lo + 300]
            hits = sum(twin.request(p) for p in chunk)
            assert batched.request_batch(chunk) == hits
        assert batched.sink.events == twin.sink.events
        assert {e[0] for e in twin.sink.events} == {"hit", "pin_hit", "miss"}
        assert_same_state(batched, twin)
