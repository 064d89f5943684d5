"""Cross-query caching for the mediator.

Sub-query results are cached under variable-renaming-invariant keys and
re-stamped or invalidated by per-source version counters; query plans
are cached under canonical CMQ signatures plus the identities of the
sources they reach, and outlive writes.  See
:class:`~repro.cache.mediator.MediatorCache` for the entry point.
"""

from repro.cache.keys import CanonicalQuery, canonical_query
from repro.cache.lru import CacheStats, LRUCache
from repro.cache.mediator import MediatorCache
from repro.cache.plans import PlanCache, catalog_state, cmq_signature, plan_cache_key
from repro.cache.results import CachedSource, SubQueryResultCache

__all__ = [
    "CacheStats",
    "CachedSource",
    "CanonicalQuery",
    "LRUCache",
    "MediatorCache",
    "PlanCache",
    "SubQueryResultCache",
    "canonical_query",
    "catalog_state",
    "cmq_signature",
    "plan_cache_key",
]
