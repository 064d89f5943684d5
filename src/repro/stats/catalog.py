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
3. **digest-backed estimators** (:mod:`repro.stats.estimators`) over
   histograms, value-set distinct counts, per-path index counts and
   inverted-index document frequencies;
4. the wrapper's own ``estimate()`` as a fallback (also used when a
   wrapper sets ``trust_wrapper_estimate`` to advertise that it carries
   better statistics than the mediator can derive).

Recording feedback bumps :attr:`revision`.  The revision is part of
every plan-cache key, so cached plans built from superseded statistics
are invalidated by construction.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.cache.keys import CanonicalQuery, canonical_query
from repro.cache.lru import LRUCache
from repro.core.deltas import INSERT
from repro.core.sources import DataSource, SourceQuery
from repro.fulltext.source import FullTextQuery, FullTextSource
from repro.json.source import JSONQuery, JSONSource
from repro.rdf.source import RDFQuery, RDFSource
from repro.relational.source import RelationalSource, SQLQuery
from repro.digest.valueset import ValueSetSummary
from repro.stats.cost import CostModel, DEFAULT_COST_MODEL
from repro.stats import estimators


#: Entries of the estimate memo (a few hundred bytes each).
ESTIMATE_MEMO_ENTRIES = 4096


class StatisticsCatalog:
    """Digest-backed cardinality statistics with run-time feedback."""

    def __init__(self, cost_model: CostModel | None = None,
                 histogram_buckets: int = 32):
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.histogram_buckets = histogram_buckets
        self._feedback: dict[tuple, float] = {}
        #: (feedback key, source version, constant values) -> estimate;
        #: ``.stats`` counts its hits and misses.
        self.estimates = LRUCache(ESTIMATE_MEMO_ENTRIES)
        self._revision = 0
        self._lock = threading.Lock()
        #: (source token, source version, table, column) -> summary.
        self._column_summaries: dict[tuple, Optional[ValueSetSummary]] = {}
        #: Streaming maintenance counters: full column scans vs. prior
        #: summaries carried forward by absorbing insert-only deltas.
        self.summaries_built = 0
        self.summaries_absorbed = 0

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
        values = dict(values or {})
        estimate = None
        if not getattr(source, "trust_wrapper_estimate", False):
            estimate = self._derive(source, query, bound, values)
        if estimate is None:
            estimate = source.estimate(query, bound)
        if memo_key is not None and estimate != float("inf"):
            self.estimates.put(memo_key, estimate)
        return estimate

    def _derive(self, source: DataSource, query: SourceQuery,
                bound: set[str], values: dict[str, object]) -> Optional[float]:
        try:
            if isinstance(source, RelationalSource) and isinstance(query, SQLQuery):
                return estimators.estimate_sql(
                    source, query, bound, values,
                    lambda table, column: self.column_summary(source, table, column))
            if isinstance(source, RDFSource) and isinstance(query, RDFQuery):
                return estimators.estimate_bgp(source, query, bound, values)
            if isinstance(source, FullTextSource) and isinstance(query, FullTextQuery):
                return estimators.estimate_fulltext(source, query, bound, values)
            if isinstance(source, JSONSource) and isinstance(query, JSONQuery):
                return source.estimate(query, bound, values)
        except Exception:
            # Any estimator hiccup (odd syntax, missing metadata) must
            # never fail planning — the wrapper fallback takes over.
            return None
        return None

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

    # ------------------------------------------------------------------
    # Relational column summaries
    # ------------------------------------------------------------------
    def column_summary(self, source: RelationalSource, table: str,
                       column: str) -> Optional[ValueSetSummary]:
        """Value-set summary of one column, cached per source version.

        Under streaming ingestion a version bump no longer forces a full
        column re-scan: when the delta journal shows only inserts between
        the cached summary's version and the current one, the inserted
        values are absorbed into the prior summary in place
        (:meth:`~repro.digest.valueset.ValueSetSummary.absorb`) and the
        summary is re-keyed under the new version.
        """
        version = source.version()
        if version is None:
            return None
        key = (source.cache_token, version, table.lower(), column.lower())
        with self._lock:
            if key in self._column_summaries:
                return self._column_summaries[key]
        summary: Optional[ValueSetSummary] = None
        if source.database.has_table(table):
            table_obj = source.database.table(table)
            actual = next((c.name for c in table_obj.schema.columns
                           if c.name.lower() == column.lower()), None)
            if actual is not None:
                summary = self._absorb_column_delta(source, key, actual)
                if summary is None:
                    summary = ValueSetSummary(
                        table_obj.column_values(actual),
                        histogram_buckets=self.histogram_buckets)
                    with self._lock:
                        self.summaries_built += 1
        with self._lock:
            self._column_summaries[key] = summary
            # Drop summaries of superseded versions of the same column.
            stale = [k for k in self._column_summaries
                     if k[0] == key[0] and k[2:] == key[2:] and k[1] != version]
            for k in stale:
                del self._column_summaries[k]
        return summary

    def _absorb_column_delta(self, source: RelationalSource, key: tuple,
                             column: str) -> Optional[ValueSetSummary]:
        """Carry a prior-version summary forward over insert-only deltas.

        ``None`` means "rebuild from a full scan": no prior summary, a
        gap in the journal, or deltas that are not pure inserts for the
        summarised table.
        """
        table = key[2]
        with self._lock:
            prior = [(k, s) for k, s in self._column_summaries.items()
                     if k[0] == key[0] and k[2:] == key[2:]
                     and isinstance(k[1], int) and k[1] < key[1]
                     and s is not None]
        if not prior:
            return None
        prior_key, summary = max(prior, key=lambda pair: pair[0][1])
        records = source.deltas_since(prior_key[1], key[1])
        if records is None:
            return None
        relevant = [r for r in records if r.scope is None or r.scope == table]
        if any(r.kind != INSERT for r in relevant):
            return None
        summary.absorb([row.get(column)
                        for record in relevant for row in record.items])
        with self._lock:
            self.summaries_absorbed += 1
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"StatisticsCatalog(revision={self._revision}, "
                f"feedback={len(self._feedback)})")
