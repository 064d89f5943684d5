"""The statistics catalog: estimates, feedback and the revision stamp.

A :class:`StatisticsCatalog` is the single estimation service shared by
every planner and executor of a mixed instance.  For each (source,
sub-query, bound-variable set) it answers, in order of preference:

1. **feedback** — a cardinality observed at run time for the same
   canonical sub-query under the same bound variables (recorded by the
   executor when a drifted estimate retires a plan);
2. **the estimate memo** — what 3. or 4. answered for the same source
   version, canonical sub-query, bound variables and constants (a
   bounded LRU; for a remote source a hit is a round trip saved);
3. **the wrapper's digest-backed estimate**
   (:meth:`~repro.core.sources.DataSource.derive_estimate`), derived
   beside its store: the relational value-set summaries of the wrapper's
   shared digest (top-k frequencies and histograms, the very summaries
   keyword search looks values up in), RDF index counts with
   join-variable reductions, full-text document frequencies and JSON
   per-path index postings;
4. the wrapper's own ``estimate()`` when 3. derives none — always for a
   remote wrapper, whose peer holds the statistics.

The catalog keeps only the feedback, the memo and the revision: what
an estimate reads lives with the wrapper.  Recording feedback bumps
:attr:`revision`.  The revision is part of
every plan-cache key, so cached plans built from superseded statistics
are invalidated by construction.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.cache.keys import CanonicalQuery, canonical_query
from repro.cache.lru import LRUCache
from repro.core.sources import DataSource, SourceQuery
from repro.stats.cost import DEFAULT_COST_MODEL


#: Entries of the estimate memo (a few hundred bytes each).
ESTIMATE_MEMO_ENTRIES = 4096


class StatisticsCatalog:
    """Digest-backed cardinality statistics with run-time feedback."""

    def __init__(self):
        self.cost_model = DEFAULT_COST_MODEL
        self._feedback: dict[tuple, float] = {}
        #: (feedback key, source version, constant values) -> estimate;
        #: ``.stats`` counts its hits and misses.
        self.estimates = LRUCache(ESTIMATE_MEMO_ENTRIES)
        self._revision = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def revision(self) -> int:
        """Monotonic counter bumped by every effective feedback record."""
        return self._revision

    # ------------------------------------------------------------------
    def estimate(self, source: DataSource, query: SourceQuery,
                 bound: set[str] | None = None,
                 values: dict[str, object] | None = None) -> float:
        """Estimated output rows of ``query`` on ``source``.

        ``bound`` are the sub-query's *formal* variables already bound
        when the step runs; ``values`` the subset whose constant values
        are known at plan time (atom constants) — those are priced from
        the actual value's frequency.

        An estimate is a function of the source's identity and version,
        the canonical sub-query, the bound formals and the constants, so
        it is computed once per such tuple and remembered here, for local
        and remote sources alike — never ``inf`` (a dark source must be
        asked again) and never for a source without a version.
        """
        keyed = self._keyed(source, query, bound or ())
        memo_key = None
        if keyed is not None:
            key, canonical = keyed
            # One dict read needs no lock: ``record`` writes under it.
            observed = self._feedback.get(key)
            if observed is not None:
                return observed
            version = source.version()
            constants = canonical.key_of(values) if values else ()
            if version is not None and constants is not None:
                memo_key = (key, version, constants)
                remembered = self.estimates.get(memo_key)
                if remembered is not None:
                    return remembered
        bound = set(bound or ())
        try:
            estimate = source.derive_estimate(query, bound, dict(values or {}))
        except Exception:
            # Any estimator hiccup (odd syntax, missing metadata) must
            # never fail planning — the wrapper fallback takes over.
            estimate = None
        if estimate is None:
            estimate = source.estimate(query, bound)
        if memo_key is not None and estimate != float("inf"):
            self.estimates.put(memo_key, estimate)
        return estimate

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def record(self, source: DataSource, query: SourceQuery,
               bound: set[str], observed: float) -> bool:
        """Record an observed cardinality; True when it changed anything.

        The key canonicalises the sub-query (renaming-invariant) and the
        bound-variable set, so structurally identical sub-queries of
        future CMQs benefit.  An effective change bumps the revision,
        invalidating every plan-cache entry stamped with the old one.
        """
        keyed = self._keyed(source, query, bound)
        if keyed is None:
            return False
        key = keyed[0]
        with self._lock:
            previous = self._feedback.get(key)
            self._feedback[key] = observed
            if previous is None or previous != observed:
                self._revision += 1
                return True
        return False

    @staticmethod
    def _keyed(source: DataSource, query: SourceQuery,
               bound: set[str]) -> Optional[tuple[tuple, CanonicalQuery]]:
        """The feedback key and the canonical form it was written under."""
        token = getattr(source, "cache_token", None)
        if token is None:
            return None
        canonical = canonical_query(query)
        if canonical is None:
            return None
        renamed = frozenset(canonical.rename.get(name, name) for name in bound)
        return (token, canonical.key, renamed), canonical

    def feedback_count(self) -> int:
        """Number of recorded observations."""
        with self._lock:
            return len(self._feedback)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"StatisticsCatalog(revision={self._revision}, "
                f"feedback={len(self._feedback)})")
