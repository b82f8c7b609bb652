"""Least-recently-used buffer replacement.

This is the policy analysed by the paper's buffer model (following
Bhide, Dan & Dias [2]) and the one its validation simulator implements:
"the least recently used node in the buffer is pushed out and the new
node put on the top of the LRU stack" (§4).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

from .base import BufferPool, PageId

__all__ = ["LRUBuffer"]


class LRUBuffer(BufferPool):
    """An LRU buffer pool.

    The unpinned area is an ordered dict used as the LRU stack: most
    recently used at the end, victim popped from the front.
    """

    def __init__(self, capacity: int, pinned: Iterable[PageId] = ()) -> None:
        super().__init__(capacity, pinned)
        self._stack: OrderedDict[PageId, None] = OrderedDict()

    def _resident(self, page: PageId) -> bool:
        return page in self._stack

    def _resident_count(self) -> int:
        return len(self._stack)

    def _touch(self, page: PageId) -> None:
        self._stack.move_to_end(page)

    def _admit(self, page: PageId) -> None:
        self._stack[page] = None

    def _evict(self) -> PageId:
        victim, _ = self._stack.popitem(last=False)
        return victim

    def request_batch(self, pages: Iterable[PageId]) -> int:
        """Access every page in ``pages`` in order; returns the hit count.

        The same state and counters as one :meth:`request` per page,
        from one loop over the LRU stack: hits, misses and evictions
        are kept in locals and added to ``stats`` once per batch.  A
        pool with a ``sink`` takes the per-request path, so sink
        events stay per request.
        """
        if self.sink is not None:
            return super().request_batch(pages)
        stack = self._stack
        pinned = self.pinned
        room = self.unpinned_capacity
        move_to_end = stack.move_to_end
        popitem = stack.popitem
        size = len(stack)
        hits = misses = evictions = 0
        for page in pages:
            if page in stack:
                move_to_end(page)
                hits += 1
            elif page in pinned:
                hits += 1
            else:
                misses += 1
                if room:
                    if size >= room:
                        popitem(False)
                        evictions += 1
                    else:
                        size += 1
                    stack[page] = None
        stats = self.stats
        stats.requests += hits + misses
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        return hits

    def lru_order(self) -> list[PageId]:
        """Resident unpinned pages, least recently used first (for tests)."""
        return list(self._stack)
