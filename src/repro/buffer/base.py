"""Buffer pool abstraction.

The paper assumes exactly one R-tree node per page, so "page" here is a
node id.  A buffer pool holds up to ``capacity`` pages; requesting a
resident page is a *hit* (no disk access), requesting a non-resident
page is a *miss* that loads the page, evicting another if the pool is
full.  Pinned pages (the paper's §3.3 extension: "pins the top few
levels of the R-tree in the buffer") are preloaded, always hit, and are
never eviction candidates — but they do occupy buffer capacity.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Hashable, Iterable

__all__ = ["BufferPool", "BufferStats", "PinningError"]

PageId = Hashable


class PinningError(ValueError):
    """Raised when pinned pages do not fit in the buffer."""


class BufferStats:
    """Running hit/miss counters for a buffer pool."""

    __slots__ = ("requests", "hits", "misses", "evictions")

    def __init__(self) -> None:
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of requests served from the buffer (0 if no requests)."""
        return self.hits / self.requests if self.requests else 0.0

    def reset(self) -> None:
        """Zero all counters (used between measurement batches)."""
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def snapshot(self) -> "BufferStats":
        """An independent copy of the current counter values."""
        copy = BufferStats()
        copy.requests = self.requests
        copy.hits = self.hits
        copy.misses = self.misses
        copy.evictions = self.evictions
        return copy

    def as_dict(self) -> dict[str, int]:
        """The counters as a JSON-ready mapping."""
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BufferStats(requests={self.requests}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


class BufferPool(ABC):
    """Base class implementing pinning and accounting.

    :meth:`request` accesses one page; :meth:`request_batch` is the
    batch entry point every replay loop feeds a whole stream through
    (:class:`~repro.buffer.lru.LRUBuffer` folds it into one loop).

    Subclasses provide the replacement policy through three hooks:
    :meth:`_touch` (called on a hit), :meth:`_admit` (called to make a
    missed page resident), and :meth:`_evict` (called to choose and
    remove a victim when the unpinned area is full).
    """

    def __init__(
        self, capacity: int, pinned: Iterable[PageId] = ()
    ) -> None:
        if capacity < 1:
            raise ValueError("buffer capacity must be at least 1 page")
        pinned_set = frozenset(pinned)
        if len(pinned_set) > capacity:
            raise PinningError(
                f"cannot pin {len(pinned_set)} pages in a {capacity}-page buffer"
            )
        self.capacity = capacity
        self.pinned = pinned_set
        self.stats = BufferStats()
        self.sink = None
        """Optional observability sink (see :mod:`repro.obs.levels`).

        Any object with ``record_hit(page)``, ``record_pin_hit(page)``
        and ``record_miss(page, evicted)`` methods; ``None`` (the
        default) keeps :meth:`request` on the uninstrumented fast
        path — a single ``is not None`` test per call.
        """

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    @property
    def unpinned_capacity(self) -> int:
        """Pages available to the replacement policy."""
        return self.capacity - len(self.pinned)

    def request(self, page: PageId) -> bool:
        """Access ``page``; returns True on a buffer hit.

        A miss loads the page (a disk access), evicting the policy's
        victim when the unpinned area is full.  When the unpinned
        capacity is zero, missed pages are read and immediately
        discarded — every unpinned access is then a disk access.
        """
        stats = self.stats
        sink = self.sink
        stats.requests += 1
        if page in self.pinned:
            stats.hits += 1
            if sink is not None:
                sink.record_pin_hit(page)
            return True
        if self._resident(page):
            stats.hits += 1
            self._touch(page)
            if sink is not None:
                sink.record_hit(page)
            return True
        stats.misses += 1
        evicted: PageId | None = None
        if self.unpinned_capacity > 0:
            if self._resident_count() >= self.unpinned_capacity:
                evicted = self._evict()
                stats.evictions += 1
            self._admit(page)
        if sink is not None:
            sink.record_miss(page, evicted)
        return False

    def request_batch(self, pages: Iterable[PageId]) -> int:
        """Access every page in ``pages`` in order; returns the hit count.

        Exactly one :meth:`request` per page — the same state,
        counters and sink events.  Policies may override it with a
        faster loop that keeps those semantics.
        """
        return sum(map(self.request, pages))

    def is_full(self) -> bool:
        """True once the unpinned area holds its full complement of pages."""
        return self._resident_count() >= self.unpinned_capacity

    def __contains__(self, page: PageId) -> bool:
        return page in self.pinned or self._resident(page)

    def __len__(self) -> int:
        """Number of resident pages, pinned included."""
        return len(self.pinned) + self._resident_count()

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _resident(self, page: PageId) -> bool:
        """Is ``page`` in the unpinned area?"""

    @abstractmethod
    def _resident_count(self) -> int:
        """Number of pages in the unpinned area."""

    @abstractmethod
    def _touch(self, page: PageId) -> None:
        """Record a hit on a resident page."""

    @abstractmethod
    def _admit(self, page: PageId) -> None:
        """Make a missed page resident (space is guaranteed)."""

    @abstractmethod
    def _evict(self) -> PageId:
        """Choose, remove, and return a victim page."""
