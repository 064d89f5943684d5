"""The instance-wide cache facade handed to planners and executors."""

from __future__ import annotations

from repro.cache.plans import PlanCache
from repro.cache.repair import RepairEngine
from repro.cache.results import SubQueryResultCache

#: Entries of the instance-wide sub-query result cache.
RESULT_ENTRIES = 4096
#: Entries of the instance-wide plan cache.
PLAN_ENTRIES = 256


class MediatorCache:
    """Shared caches of one mixed instance.

    Executors are built per pinned snapshot; the caches live here so
    that results and plans survive across pins (and across executors).  Create
    with ``MixedInstance(cache=...)`` or let the instance build its own.
    """

    def __init__(self):
        self.results = SubQueryResultCache(RESULT_ENTRIES)
        self.plans = PlanCache(PLAN_ENTRIES)
        # Delta-join repair of stale result entries; shared by
        # every CachedSource layer so a streaming write repairs each
        # affected entry once, instance-wide.
        self.repair = RepairEngine(self.results)

    def clear(self) -> None:
        """Drop every cached result and plan."""
        self.results.clear()
        self.plans.clear()

    def statistics(self) -> dict[str, dict[str, object]]:
        """Counters of both caches (for demos, benchmarks and tuning)."""
        results = self.results.stats.as_dict()
        results["entries"] = len(self.results)
        plans = self.plans.stats.as_dict()
        plans["entries"] = len(self.plans)
        return {"results": results, "plans": plans,
                "repair": self.repair.stats.as_dict()}

    def register_metrics(self, registry=None) -> None:
        """Surface both caches in a metrics registry as lazy gauges.

        The caches already count hits/misses/evictions themselves
        (:class:`~repro.cache.lru.CacheStats`); callbacks read those
        counters at snapshot time instead of double-accounting them.
        """
        if registry is None:
            from repro.obs.metrics import get_registry

            registry = get_registry()
        for label, cache in (("results", self.results), ("plans", self.plans)):
            stats = cache.stats
            registry.register_callback("cache_hits", lambda s=stats: s.hits,
                                       cache=label)
            registry.register_callback("cache_misses", lambda s=stats: s.misses,
                                       cache=label)
            registry.register_callback("cache_insertions",
                                       lambda s=stats: s.insertions, cache=label)
            registry.register_callback("cache_evictions",
                                       lambda s=stats: s.evictions, cache=label)
            registry.register_callback("cache_invalidations",
                                       lambda s=stats: s.invalidations,
                                       cache=label)
            registry.register_callback("cache_entries",
                                       lambda c=cache: len(c), cache=label)
        repair = self.repair.stats
        registry.register_callback("cache_repair_attempts",
                                   lambda s=repair: s.attempts)
        registry.register_callback("cache_repair_repaired",
                                   lambda s=repair: s.repaired)
        registry.register_callback("cache_repair_rows_appended",
                                   lambda s=repair: s.rows_appended)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"MediatorCache(results={len(self.results)}, "
                f"plans={len(self.plans)})")
