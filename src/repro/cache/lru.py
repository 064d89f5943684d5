"""A small thread-safe LRU cache with hit/miss statistics.

Both mediator caches (sub-query results, query plans) sit on this map.
Entries are keyed by fully canonical tuples built in
:mod:`repro.cache.keys` / :mod:`repro.cache.plans`; the LRU itself is
policy-free.  Executors may probe it from pooled dispatch threads, so
every operation takes the internal lock.
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
    ``max_entries`` is exceeded.  ``record_miss=False`` serves lookups
    that are not probes (a repair's merge base, a degraded read) and
    probes whose misses are decided later (a stale key may be repaired).

    ``on_evict(key, value)`` is invoked for every entry leaving the
    cache (LRU eviction, :meth:`remove`, :meth:`invalidate_where`,
    :meth:`clear`) — but never for a :meth:`put` refreshing an existing
    key.  Callbacks run *after* the internal lock is released, so they
    may take other locks (the result cache uses this to keep its stale
    degradation index pointing only at live entries).
    """

    def __init__(self, max_entries: int = 1024,
                 on_evict: Callable[[Hashable, object], None] | None = None):
        self.max_entries = max(1, max_entries)
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()
        self._on_evict = on_evict

    def _notify(self, evicted: list[tuple[Hashable, object]]) -> None:
        if self._on_evict is not None:
            for key, value in evicted:
                self._on_evict(key, value)

    def get(self, key: Hashable, record_miss: bool = True) -> Optional[object]:
        """The cached value, or ``None`` (values themselves are never None)."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
            elif record_miss and key is not None:
                self.stats.misses += 1
        return value

    def get_many(self, keys: Sequence[Optional[Hashable]],
                 record_miss: bool = True) -> list[Optional[object]]:
        """:meth:`get` of each key, under one lock; a ``None`` key reads ``None``."""
        out: list[Optional[object]] = []
        entries = self._entries
        hits = misses = 0
        with self._lock:
            for key in keys:
                value = entries.get(key)
                if value is not None:
                    entries.move_to_end(key)
                    hits += 1
                elif key is not None:
                    misses += 1
                out.append(value)
            self.stats.hits += hits
            if record_miss:
                self.stats.misses += misses
        return out

    def miss(self, count: int) -> None:
        """Count misses a ``record_miss=False`` lookup left undecided."""
        with self._lock:
            self.stats.misses += count

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) an entry, evicting the oldest past capacity."""
        evicted: list[tuple[Hashable, object]] = []
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            self._entries[key] = value
            self.stats.insertions += 1
            while len(self._entries) > self.max_entries:
                evicted.append(self._entries.popitem(last=False))
                self.stats.evictions += 1
        self._notify(evicted)

    def remove(self, key: Hashable) -> bool:
        """Drop one entry; True when it was present."""
        with self._lock:
            if key in self._entries:
                value = self._entries.pop(key)
                self.stats.invalidations += 1
            else:
                return False
        self._notify([(key, value)])
        return True

    def invalidate_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``."""
        with self._lock:
            doomed = [(key, value) for key, value in self._entries.items()
                      if predicate(key)]
            for key, _ in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
        self._notify(doomed)
        return len(doomed)

    def clear(self) -> None:
        with self._lock:
            dropped = list(self._entries.items())
            self.stats.invalidations += len(dropped)
            self._entries.clear()
        self._notify(dropped)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries
