"""A small thread-safe LRU cache with hit/miss statistics.

Both mediator caches (sub-query results, query plans) sit on this map.
Entries are keyed by fully canonical tuples built in
:mod:`repro.cache.keys` / :mod:`repro.cache.plans`; the LRU itself is
policy-free: what a value means (the result cache stamps each with a
version) is the caller's, and :meth:`LRUCache.get_many` asks the caller
which values are hits.  Executors may probe it from pooled dispatch
threads, so every operation takes the internal lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Hashable, Optional, Sequence


@dataclass
class CacheStats:
    """Counters accumulated over the lifetime of one cache."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def probes(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered from the cache (0.0 when unprobed)."""
        return self.hits / self.probes if self.probes else 0.0

    def snapshot(self) -> "CacheStats":
        """An independent copy (used to compute per-execution deltas)."""
        return replace(self)

    def as_dict(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    ``get`` refreshes recency; ``put`` evicts the oldest entries once
    ``max_entries`` is exceeded.  :meth:`peek` is a look that is not a
    probe (a degraded read): it neither refreshes nor counts.
    """

    def __init__(self, max_entries: int = 1024):
        self.max_entries = max(1, max_entries)
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()

    def get(self, key: Hashable) -> Optional[object]:
        """The cached value, or ``None`` (values themselves are never None)."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
            elif key is not None:
                self.stats.misses += 1
        return value

    def peek(self, key: Hashable) -> Optional[object]:
        """The cached value, or ``None``: no recency refresh, no count."""
        with self._lock:
            return self._entries.get(key)

    def get_many(self, keys: Sequence[Optional[Hashable]],
                 hit: Callable[[object], bool]) -> list[Optional[object]]:
        """The value of each key under one lock (a ``None`` key reads
        ``None``): an absent key counts a miss, a value ``hit`` accepts a
        hit; a value it refuses is left for the caller to :meth:`count`."""
        out: list[Optional[object]] = []
        entries = self._entries
        hits = misses = 0
        with self._lock:
            for key in keys:
                value = entries.get(key)
                if value is not None:
                    entries.move_to_end(key)
                    hits += hit(value)
                elif key is not None:
                    misses += 1
                out.append(value)
            self.stats.hits += hits
            self.stats.misses += misses
        return out

    def count(self, hits: int, misses: int) -> None:
        """Count the probes a :meth:`get_many` left undecided."""
        with self._lock:
            self.stats.hits += hits
            self.stats.misses += misses

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or replace) an entry, evicting the oldest past capacity."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            self._entries[key] = value
            self.stats.insertions += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def remove(self, key: Hashable) -> bool:
        """Drop one entry; True when it was present."""
        with self._lock:
            if self._entries.pop(key, None) is None:
                return False
            self.stats.invalidations += 1
            return True

    def clear(self) -> None:
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries
