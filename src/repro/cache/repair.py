"""Incremental delta-join repair of cached sub-query results.

Without repair, every source mutation bumps the source version and
makes *all* of that source's cached sub-query results stale at once — a
streaming ingest turns the result cache into a pure miss machine.  This
module closes the loop between the stores' typed delta journals
(:mod:`repro.core.deltas`) and the :class:`SubQueryResultCache`: a probe
whose entry is stamped with an *older* version hands that entry to the
:class:`RepairEngine`, which fetches the unbroken delta chain between the
two versions and, for repair-sound query shapes, evaluates the query
**over the delta alone**, merges the delta's contribution into the old
rows, and re-stamps the entry with the new version — the hot path then
hits without ever re-dispatching to the source.

Soundness is per model and deliberately conservative, so each wrapper
states it beside its store (:meth:`~repro.core.sources.DataSource.repair_delta`:
the gates, and the sources a delta's rows are read from); anything outside
the gates falls back to plain invalidation (a recorded miss), never to a
wrong answer.  The engine keeps what is model-free: the size gate, one
delta build per version span, and the merge — an entry becomes
``(entry - f(replaced)) + f(written)``, ``f`` the query over the wrapper's
delta sources; the subtraction takes one occurrence per row, keeps the
order of the rest, and a replaced row the entry lacks falls back
(``diverged``); a query whose answers are sets (``query.distinct``) adds
only the rows the entry lacks.

Merged rows equal a cold re-execution as a *multiset*; for relational
and JSON shapes even the order matches (writes take fresh insertion
ranks), up to which of two equal rows a subtraction took.  Full-text hit
order may differ (cold results interleave by score) — cached rows are
consumed as sets by the bind joins, so this is observable only to
callers that already must not rely on order.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Callable, Optional

from repro.cache.keys import CanonicalQuery
from repro.cache.lru import LRUCache
from repro.core.deltas import MAX_DELTA_ITEMS, DeltaRecord
from repro.core.sources import Row, SourceQuery
from repro.engine.batch import BindingBatch, SeenRows, freeze, row_count
from repro.obs.metrics import get_registry


class RepairStats:
    """Thread-safe counters of the engine's outcomes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempts = 0      # probes whose entry is stamped older
        self.repaired = 0      # entries re-stamped after delta evaluation
        self.restamped = 0     # of which: pure re-stamps (delta elsewhere)
        self.rows_appended = 0
        self.fallbacks: dict[str, int] = {}

    def attempt(self, keys: int) -> None:
        with self._lock:
            self.attempts += keys

    def success(self, appended: int, pure_restamp: bool) -> None:
        with self._lock:
            self.repaired += 1
            self.rows_appended += appended
            if pure_restamp:
                self.restamped += 1

    def fallback(self, reason: str, keys: int = 1) -> None:
        with self._lock:
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + keys

    def as_dict(self) -> dict[str, object]:
        with self._lock:
            return {
                "attempts": self.attempts,
                "repaired": self.repaired,
                "restamped": self.restamped,
                "rows_appended": self.rows_appended,
                "fallbacks": dict(self.fallbacks),
            }


class RepairEngine:
    """Applies delta chains to cached sub-query results.

    One engine serves one :class:`SubQueryResultCache`; it is probed by
    every :class:`CachedSource` layer with the stale keys of a whole
    call — the bindings of a bind-join flush, or the one binding of a
    single probe.  Repair is set-at-a-time: the keys are grouped by the
    version their entry is stamped with, the soundness gates are
    checked once per (query, version span), and the delta source is
    evaluated with ONE ``execute_batch`` for the group; only merging and
    re-stamping happen per key, and :class:`RepairStats` keeps counting
    per key.  All evaluation is local (delta stores built from
    journalled items, seeded BGP steps on the already-held graph) — the
    engine never calls a source.
    """

    #: Bound on memoised delta sources (one per (source, version span)).
    MAX_DELTA_SOURCES = 64
    #: The gate's bound on a chain: the change logs' budget
    #: (:data:`~repro.core.deltas.MAX_DELTA_ITEMS`).
    MAX_DELTA_ITEMS = MAX_DELTA_ITEMS

    def __init__(self, cache) -> None:
        self.cache = cache
        self.stats = RepairStats()
        # (uri, token, pre, post) -> delta DataSource wrappers.  Shared
        # across probes and queries: one ingest batch is repaired against
        # one delta store no matter how many cached entries it touches.
        self._spans = LRUCache(self.MAX_DELTA_SOURCES)
        self._spans_lock = threading.Lock()

    # ------------------------------------------------------------------
    def repair(self, source, version: int, query: SourceQuery, canon: CanonicalQuery,
               keys: list[tuple], bases: list[tuple[int, list[BindingBatch]]],
               binding: Callable[[int], Row]) -> list[Optional[list[BindingBatch]]]:
        """Repair every probe's entry up to ``version``.

        ``keys`` of one query found their entries ``bases`` — each a
        ``(version, batches)`` stamped older than ``version``, batches in
        *canonical* variable names — and ``binding(i)`` are the bindings of
        ``keys[i]``.  Per key, in order: on success the merged batches,
        inserted under the key stamped at ``version``; ``None`` for "fall
        back to a plain miss".  A base is never mutated: the old rows are
        shared with the new entry, not copied.  Never raises: any
        evaluation error is a counted fallback of the keys it was
        evaluated with.
        """
        out: list[Optional[list[BindingBatch]]] = [None] * len(keys)
        self.stats.attempt(len(bases))
        # Base version -> the probes whose entry was stamped with it.
        spans: dict[int, list[tuple[int, list[BindingBatch]]]] = {}
        for index, (pre, stored) in enumerate(bases):
            spans.setdefault(pre, []).append((index, stored))
        registry = get_registry()
        for pre, members in spans.items():
            registry.counter("cache_repair_batches_total").inc()
            records = source.deltas_since(pre, version)
            if records is None:
                self.stats.fallback("no_journal", len(members))
                continue
            stored = [entry for _, entry in members]
            try:
                merged = self._apply(source, query, canon,
                                     [binding(index) for index, _ in members],
                                     stored, records)
            except Exception:  # noqa: BLE001 - repair must never break reads
                self.stats.fallback("error", len(members))
                continue
            if isinstance(merged, str):
                self.stats.fallback(merged, len(members))
                continue
            for (index, base), entry in zip(members, merged):
                self.cache.insert_canonical(keys[index], version, entry)
                self.stats.success(row_count(entry) - row_count(base),
                                   pure_restamp=entry is base)
                out[index] = entry
            registry.counter("cache_repairs_total").inc(len(members))
            registry.counter("cache_repair_rows_total").inc(
                sum(map(row_count, merged)) - sum(map(row_count, stored)))
        return out

    # ------------------------------------------------------------------
    def _apply(self, source, query: SourceQuery, canon: CanonicalQuery,
               bindings: list[Row], stored: list[list[BindingBatch]],
               records: list[DeltaRecord]) -> list[list[BindingBatch]] | str:
        """Merge the delta into every key's entry, or name the gate that
        refused.  The gates depend on the query and the records only, so
        they hold or fail for all the keys at once.

        Returning a key's ``stored`` entry itself signals a pure re-stamp.
        """
        if sum(record.size for record in records) > self.MAX_DELTA_ITEMS:
            return "delta_too_large"
        delta = source.repair_delta(query, records, self)
        if delta is None or isinstance(delta, str):
            # None: the version moved, the queried rows did not.
            return stored if delta is None else delta
        written, replaced = delta
        fetched = written.execute_batch(query, bindings)
        gone = replaced.execute_batch(query, bindings) if replaced else [[]] * len(bindings)
        out = []
        for base, old, new in zip(stored, gone, fetched):
            base = _subtracted(base, canon.canonical_batches(old))
            if base is None:
                return "diverged"
            new = canon.canonical_batches(new)
            if query.distinct:
                # Set answers: keep what the entry does not hold.
                seen = SeenRows()
                for batch in base:
                    seen.fresh(batch)
                new = [BindingBatch(batch.columns, rows) for batch in new
                       if (rows := seen.fresh(batch))]
                if not new:
                    out.append(base)
                    continue
            # What a chain wrote took fresh insertion ranks (the relational
            # and JSON cold order), so it goes last.
            out.append(_extended(base, new))
        return out

    def spanned(self, source, records: list[DeltaRecord], build):
        """``build(records)``, the delta sources of a (source, version span),
        built once."""
        key = (source.uri, source.cache_token, records[0].pre_version,
               records[-1].post_version)
        with self._spans_lock:
            built = self._spans.get(key)
            if built is None:
                built = build(records)
                self._spans.put(key, built)
        return built


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _extended(base: list[BindingBatch], delta: list[BindingBatch]) -> list[BindingBatch]:
    """A new entry, ``base`` then ``delta`` (neither mutated): rows under the
    header ``base`` ends with join its last batch as ``old.rows + new_rows``."""
    if base and delta and base[-1].columns == delta[0].columns:
        joint = BindingBatch(delta[0].columns, base[-1].rows + delta[0].rows)
        return base[:-1] + [joint] + delta[1:]
    return base + delta


def _subtracted(base: list[BindingBatch],
                gone: list[BindingBatch]) -> list[BindingBatch] | None:
    """``base`` less one occurrence of each row (header and values) of
    ``gone``, the rest in order; None when ``gone`` holds a row ``base``
    does not: the entry diverged."""
    if not gone:
        return base
    owed = Counter((batch.columns, freeze(row)) for batch in gone for row in batch.rows)

    def kept(columns: tuple, row: tuple) -> bool:
        key = (columns, freeze(row))
        if owed[key] > 0:
            owed[key] -= 1
            return False
        return True

    out = [BindingBatch(batch.columns, rows) for batch in base
           if (rows := [row for row in batch.rows if kept(batch.columns, row)])]
    return None if +owed else out
