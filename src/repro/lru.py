"""A thread-safe bounded LRU with hit/miss/eviction counters.

One implementation backs both serving caches: the compiled-plan cache
(:class:`repro.queries.PlanCache`) and the answer cache
(:class:`repro.serving.AnswerCache`).  Entries live in an ordered dict,
so a hit moves its key to the most-recent end in O(1) and eviction pops
the least-recent end.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock


class CountedLRU:
    """Bounded LRU map whose every lookup counts as a hit or a miss.

    ``get``/``put`` are guarded by one lock.  ``capacity=0`` is allowed
    only where a subclass opts in (:attr:`min_capacity`); it disables
    storage — ``put`` is a no-op and every lookup is a counted miss.
    Counters describe the cache's lifetime and survive :meth:`clear`.
    """

    #: Smallest capacity the constructor accepts.
    min_capacity = 1

    def __init__(self, capacity: int):
        if capacity < self.min_capacity:
            raise ValueError(f"capacity must be >= {self.min_capacity}")
        self.capacity = int(capacity)
        self._lock = Lock()
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def values(self) -> list:
        """The cached values, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def get(self, key):
        """The value cached under ``key`` (a counted hit) or None (a miss)."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        """Cache ``value`` as the most recent entry, evicting past capacity."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Counters for health documents and the concurrency tests."""
        with self._lock:
            return {"size": len(self._entries), "capacity": self.capacity,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}
