"""Incremental delta-join repair of cached sub-query results.

Without repair, every source mutation bumps the source version and
orphans *all* of that source's cached sub-query results at once — a
streaming ingest turns the result cache into a pure miss machine.  This
module closes the loop between the stores' typed delta journals
(:mod:`repro.core.deltas`) and the :class:`SubQueryResultCache`: on a
cache miss whose probe has an entry cached under an *older* version, the
:class:`RepairEngine` fetches the unbroken delta chain between the two
versions and, for repair-sound query shapes, evaluates the query **over
the delta alone**, merges the delta's contribution into the old rows,
and re-stamps the entry under the new version — the hot path then hits
without ever re-dispatching to the source.

Soundness is per model and deliberately conservative; anything outside
the gates falls back to plain invalidation (a recorded miss), never to a
wrong answer:

relational
    single-table SELECT without joins, aggregates, GROUP BY, HAVING,
    ORDER BY, LIMIT or DISTINCT.  Insert-only deltas *scoped to the
    queried table* are evaluated by running the very same SQL against a
    one-table delta database (reusing the wrapper's placeholder and
    post-filter semantics); deltas scoped to other tables re-stamp the
    entry verbatim — the database-wide version moved, the rows did not.
full-text and json
    queries without ``limit`` (full-text: nor ``sort_by`` or a ``_score``
    output, which depend on corpus-global statistics).  A document's rows
    are its own, so inserts, upserts and removals all repair: the entry
    becomes ``(entry - f(replaced)) + f(written)``, ``f`` the query over a
    delta store of the chain's net replaced (or written) copies; the
    subtraction takes one occurrence per row, keeps the order of the
    rest, and a replaced row the entry lacks falls back (``diverged``).
rdf
    BGPs with a non-empty head, insert-only, on any source — with
    entailment too.  The delta is what the chain added to the graph the
    BGP reads: the explicit triples, or ΔG∞, the triples G∞ gained, read
    off G∞'s own journal (one record per saturation round).  Repair is a
    seeded semi-naive step through the BGP engine: per pattern, the delta
    triples it unifies with, joined with the probes' bindings, are the
    first relation, and the other patterns are joined over the graph *at
    the chain's end*, so joins between new and pre-existing triples, and
    between two new ones, are found; results are deduplicated against
    the cached rows (BGP results are distinct).

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
from repro.core.deltas import INSERT, DeltaRecord
from repro.core.sources import Row, SourceQuery
from repro.fulltext.source import FullTextQuery, FullTextSource
from repro.json.source import JSONQuery, JSONSource
from repro.rdf.source import RDFQuery, RDFSource
from repro.relational.source import RelationalSource, SQLQuery
from repro.engine.batch import BindingBatch, SeenRows, freeze, row_count, tuple_decoder
from repro.fulltext.store import FullTextStore
from repro.json.store import JSONDocumentStore
from repro.obs.metrics import get_registry
from repro.relational.database import Database


class RepairStats:
    """Thread-safe counters of the engine's outcomes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempts = 0      # misses with a prior-version entry to repair
        self.repaired = 0      # entries re-stamped after delta evaluation
        self.restamped = 0     # of which: pure re-stamps (delta elsewhere)
        self.rows_appended = 0
        self.fallbacks: dict[str, int] = {}

    def attempt(self) -> None:
        with self._lock:
            self.attempts += 1

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
    every :class:`CachedSource` proxy with the stale keys of a whole
    call — the bindings of a bind-join flush, or the one binding of a
    single probe.  Repair is set-at-a-time: the keys are grouped by the
    version their prior entry was cached under, the soundness gates are
    checked once per (query, version span), and the delta source is
    evaluated with ONE ``execute_batch`` for the group; only merging and
    re-stamping happen per key, and :class:`RepairStats` keeps counting
    per key.  All evaluation is local (delta stores built from
    journalled items, seeded BGP steps on the already-held graph) — the
    engine never calls a source.
    """

    #: Bound on memoised delta sources (one per (source, version span)).
    MAX_DELTA_SOURCES = 64
    #: A chain this large is cheaper to re-execute than to repair; it
    #: also bounds the seeded-BGP work (seeds x patterns).
    MAX_DELTA_ITEMS = 4096

    def __init__(self, cache) -> None:
        self.cache = cache
        self.stats = RepairStats()
        # (uri, token, pre, post) -> delta DataSource wrappers.  Shared
        # across probes and queries: one ingest batch is repaired against
        # one delta store no matter how many cached entries it touches.
        self._delta_sources = LRUCache(self.MAX_DELTA_SOURCES)
        self._delta_lock = threading.Lock()

    # ------------------------------------------------------------------
    def repair(self, source, version: int, query: SourceQuery, canon: CanonicalQuery,
               keys: list[tuple], binding: Callable[[int], Row],
               ) -> list[Optional[list[BindingBatch]]]:
        """Repair the latest prior entry of every probe up to ``version``.

        ``keys`` of one query just missed; ``binding(i)``, the bindings of
        ``keys[i]``, is asked only of a key with a prior entry.  Per key, in
        order: on success the merged entry (batches in *canonical* variable
        names), inserted under its key — stamping it at the current
        version; ``None`` for "fall back to a plain miss".  The prior entry
        is never mutated: the old rows are shared with the new entry, not
        copied.  Never raises: any evaluation error is a counted fallback
        of the keys it was evaluated with.
        """
        out: list[Optional[list[BindingBatch]]] = [None] * len(keys)
        if not isinstance(version, int):
            return out
        # Prior version -> the probes whose merge base was cached under it.
        spans: dict[int, list[tuple[int, list[BindingBatch]]]] = {}
        for index, key in enumerate(keys):
            prior = self.cache.prior_entry(key)
            if prior is None:
                continue
            pre = prior[0][2]
            if isinstance(pre, int) and pre < version:
                self.stats.attempt()
                spans.setdefault(pre, []).append((index, prior[1]))
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
                self.cache.insert_canonical(keys[index], entry)
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
        if sum(len(r.items) + len(r.replaced) for r in records) > self.MAX_DELTA_ITEMS:
            return "delta_too_large"
        build, relevant = None, records
        if isinstance(query, SQLQuery):
            if not query.template.repair_simple:
                return "shape"
            table = query.template.tables[0].lower()
            relevant = [r for r in records if r.scope is None or r.scope == table]
            if not relevant:
                # The database version moved, the queried table did not:
                # yesterday's rows are today's rows.
                return stored
            build = _sql_delta_source
        elif isinstance(query, FullTextQuery):
            if query.limit is not None or query.sort_by is not None \
                    or "_score" in query.fields().values():
                # Ranking, truncation and scores depend on corpus-global
                # statistics every insert perturbs.
                return "shape"
            build = _document_delta_source
        elif isinstance(query, JSONQuery):
            if query.limit is not None:
                return "shape"
            build = _document_delta_source
        elif not isinstance(query, RDFQuery) or not query.bgp.head \
                or not isinstance(source, RDFSource):
            # Head-less (ASK-style) shapes are not row streams.
            return "shape"
        if build is not _document_delta_source and any(r.kind != INSERT for r in relevant):
            # A removed triple may take rows any solution joined; a RESET
            # (a CREATE or DROP) replaces a whole table.
            return "removals"
        if build is None:
            return self._apply_rdf(source, query, canon, bindings, stored, records)
        written, replaced = self._delta_source(source, records[0].pre_version,
                                               records[-1].post_version,
                                               lambda: build(source, records))
        fetched = written.execute_batch(query, bindings)
        gone = replaced.execute_batch(query, bindings) if replaced else [[]] * len(bindings)
        out = []
        for base, old, new in zip(stored, gone, fetched):
            base = _subtracted(base, canon.canonical_batches(old))
            if base is None:
                return "diverged"
            # What a chain wrote took fresh insertion ranks (the relational
            # and JSON cold order), so it goes last.
            out.append(_extended(base, canon.canonical_batches(new)))
        return out

    # -- rdf -----------------------------------------------------------------
    def _apply_rdf(self, source: RDFSource, query: RDFQuery, canon: CanonicalQuery,
                   bindings: list[Row], stored: list[list[BindingBatch]],
                   records: list[DeltaRecord]) -> list[list[BindingBatch]] | str:
        found = _rdf_delta(source, records)
        if found is None:
            return "no_journal"
        graph, delta = found
        if len(delta) * len(query.bgp.patterns) > self.MAX_DELTA_ITEMS:
            return "delta_too_large"
        with graph.reading() as store:
            fetched = source.seeded_ids(store, query.bgp, bindings, delta)
            dictionary = store.dictionary
        columns = tuple(canon.rename.get(v.name, v.name) for v in query.bgp.output_variables())
        decode = tuple_decoder(len(columns))
        out: list[list[BindingBatch]] = []
        for base, rows in zip(stored, fetched):
            if not rows:
                out.append(base)
                continue
            # BGP results are distinct: keep what the entry does not hold.
            seen = SeenRows()
            for batch in base:
                seen.fresh(batch)
            new = seen.fresh(BindingBatch(columns, decode(rows, dictionary)))
            out.append(_extended(base, [BindingBatch(columns, new)]) if new else base)
        return out

    # ------------------------------------------------------------------
    def _delta_source(self, source, pre: int, post: int, build):
        """The ``(written, replaced)`` delta wrappers of a (source, span), built once."""
        key = (source.uri, source.cache_token, pre, post)
        with self._delta_lock:
            built = self._delta_sources.get(key, record_miss=False)
            if built is None:
                built = build()
                self._delta_sources.put(key, built)
        return built


# ---------------------------------------------------------------------------
# Delta-store construction (one per version span, memoised by the engine)
# ---------------------------------------------------------------------------

def _sql_delta_source(source: RelationalSource,
                      records: list[DeltaRecord]) -> tuple[RelationalSource, None]:
    """A one-off database holding only the chain's inserted rows.

    Every table with journalled inserts is created under the live
    schema, so any simple single-table SELECT of the workload can run
    against it unmodified.
    """
    delta_db = Database(f"{source.database.name}+delta")
    for record in records:
        if record.kind != INSERT or record.scope is None or not record.items:
            continue
        if not delta_db.has_table(record.scope):
            delta_db.create_table(source.database.table(record.scope).schema)
        delta_db.table(record.scope).insert_many(record.items)
    return RelationalSource(source.uri, delta_db, name=source.name), None


def _document_delta_source(source, records: list[DeltaRecord]):
    """Sources over what a chain of document batches did, net: the copies
    it wrote that still stand, in write order (a rewrite moves a document
    last, as its fresh insertion rank does), and the copies standing
    before it that it replaced or removed (None when there are none)."""
    store, json = source.store, isinstance(source, JSONSource)
    id_of = store.id_of if json else (lambda doc: doc.doc_id)
    before, after = {}, {}
    for record in records:
        for old in record.replaced:
            if after.pop(id_of(old), None) is None:  # not a copy the chain wrote
                before.setdefault(id_of(old), old)
        for new in record.items:
            after.pop(id_of(new), None)
            after[id_of(new)] = new

    def source_of(documents: dict):
        name = f"{store.name}+delta"
        delta = (JSONDocumentStore(name, store.id_field, store.text_path) if json else
                 FullTextStore(name, store.field_configs(), store.default_field,
                               store.id_field, store.analyzer))
        delta.add_all(documents.values())
        return (JSONSource if json else FullTextSource)(source.uri, delta, name=source.name)

    return source_of(after), (source_of(before) if before else None)


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


def _rdf_delta(source: RDFSource, records: list[DeltaRecord]):
    """The graph an RDF entry is repaired on — G∞ under entailment — at the
    chain's end, and the triples the chain added to it: ΔG∞, or the
    explicit triples; None when the G∞ lineage cannot say (it did not
    stand at both ends)."""
    if not source.entailment:
        return source.graph, [t for record in records for t in record.items]
    graph = source.effective_graph()  # brings the lineage to the chain's end
    delta = source.closure.delta(records[0].pre_version, records[-1].post_version)
    return None if delta is None else (graph, delta)
