"""The first read after a write pays for the batch, not for the store.

Counts, not timings, so they hold on any host: every derived structure
the first post-write read consults — JSON path statistics, repaired
cache entries, the pinned glue saturation — is advanced by what the
write changed, no read encodes a JSON document, and a cached plan keeps
no superseded snapshot alive.  Each test fails on a tree where the
structure is rebuilt from (or kept alive for) the whole store, or, for
the encoding, where the first JSON query encodes every stored document.
"""

from __future__ import annotations

import gc
from collections import Counter

from repro.cache.keys import canonical_query
from repro.cache.repair import RepairEngine
from repro.cache.results import CachedSource, SubQueryResultCache, counting
from repro.core import JSONQuery, StatisticsCatalog
from repro.core.cmq import SourceAtom
from repro.core.deltas import Snapshot
from repro.core.planner import PlannerOptions
from repro.core.sources import DataSource
from repro.fulltext import source as fulltext_source
from repro.fulltext.source import FullTextQuery, FullTextSource
from repro.json.source import JSONSource
from repro.rdf.source import RDFSource
from repro.datasets import DemoConfig, build_demo_instance
from repro.datasets.loader import (
    TWEETS_JSON_URI,
    TWEETS_URI,
    fact_checking_query,
    party_vocabulary_query,
    qsia_json_query,
    qsia_query,
)
from repro.digest.dataguide import JSONDataguide
from repro.engine.batch import dict_rows
from repro.engine.iterators import BatchBindJoin, MaterializedScan
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json.accel import StoreEncoding
from repro.json.index import PathIndex
from repro.json.matcher import TreePatternMatcher
from repro.json.parser import parse_pattern
from repro.json.store import JSONDocumentStore
from repro.obs.metrics import get_registry, reset_registry
from repro.rdf import Graph, RDFSchema, triple
from repro.relational import Database
from repro.relational.database import DatabaseSnapshot
from repro.service import MediatorService, ServiceConfig
from test_covering_bind import one_group_vocabulary_query


def _spy(monkeypatch, owner, attribute: str, calls: Counter, label: str | None = None):
    """Count the calls of ``owner.attribute`` into ``calls[label]``."""
    original = getattr(owner, attribute)
    label = label or attribute

    def counted(*args, **kwargs):
        calls[label] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, counted)


def _tweet(i: int) -> dict:
    return {"id": i, "text": f"tweet {i}", "user": {"screen_name": f"u{i % 7}"},
            "entities": {"hashtags": ["sia2016"] if i % 5 == 0 else ["other"]},
            "retweet_count": i % 11}


# ---------------------------------------------------------------------------
# 1. JSON path statistics: planning observes no document
# ---------------------------------------------------------------------------

class TestJsonStatisticsReadThePathIndex:
    PATTERNS = ('{ text: ?t, user.screen_name: ?id, entities.hashtags: "sia2016" }',
                "{ text: ?t, user.screen_name: ?id, entities.hashtags: {tag} }",
                "{ retweet_count: ?rt >= 5 }",
                "{ text: ?t, user.screen_name: ?id }")

    def _per_document_operations(self, monkeypatch, n: int, b: int) -> Counter:
        store = JSONDocumentStore("tweets")
        store.add_all(_tweet(i) for i in range(n))
        source = JSONSource("json://tweets", store)
        queries = [JSONQuery.from_text(text) for text in self.PATTERNS]
        for query in queries:  # first touch of every lazy structure
            StatisticsCatalog().estimate(source, query)
        store.add_all(_tweet(i) for i in range(n, n + b))
        calls: Counter = Counter()
        with monkeypatch.context() as patch:
            _spy(patch, JSONDataguide, "observe", calls)
            _spy(patch, StoreEncoding, "_encode", calls)
            for query in queries:
                StatisticsCatalog().estimate(source, query)
                source.estimate(query, {"id"})
        return calls

    def test_planning_after_a_write_observes_no_document(self, monkeypatch):
        calls = self._per_document_operations(monkeypatch, n=200, b=20)
        assert calls["observe"] == 0          # parent: n + b per rebuilt dataguide
        assert calls["_encode"] == 0          # no estimate reads an encoding

    def test_the_cost_does_not_grow_with_the_store(self, monkeypatch):
        small = self._per_document_operations(monkeypatch, n=100, b=20)
        large = self._per_document_operations(monkeypatch, n=400, b=20)
        assert small == large

    def test_a_cmq_plans_after_a_write_without_a_dataguide(self, monkeypatch):
        demo = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42))
        cmq = qsia_json_query(demo)
        demo.instance.plan(cmq)
        store = demo.instance.source(TWEETS_JSON_URI).store
        store.add_all(_tweet(10_000 + i) for i in range(10))
        calls: Counter = Counter()
        _spy(monkeypatch, JSONDataguide, "observe", calls)
        assert demo.instance.plan(cmq).cached      # a write keeps the plan
        plan = demo.instance.plan(cmq, PlannerOptions(plan_cache=False))
        assert not plan.cached and calls["observe"] == 0


# ---------------------------------------------------------------------------
# 2. No query encodes a document
# ---------------------------------------------------------------------------

class TestNoQueryEncodes:
    def test_next_query_after_an_upsert_batch_encodes_nothing(self, monkeypatch):
        n, b = 120, 15
        store = JSONDocumentStore("tweets")
        store.add_all(_tweet(i) for i in range(n))
        pattern = parse_pattern("{ text: ?t, user.screen_name: ?id }")
        pinned = store.snapshot()
        with pinned.reading() as frozen:
            assert len(TreePatternMatcher(frozen).match(pattern)) == n
        store.add_all({**_tweet(i), "retweet_count": 99} for i in range(b))
        calls: Counter = Counter()
        _spy(monkeypatch, StoreEncoding, "_encode", calls)
        with store.snapshot().reading() as frozen:
            assert len(TreePatternMatcher(frozen).match(pattern)) == n
        TreePatternMatcher(store).match(pattern)
        with store.snapshot().reading() as frozen:
            TreePatternMatcher(frozen).match(pattern)
        assert calls["_encode"] == 0          # parent: b (the upserted copies)

    def test_a_cold_demo_pass_and_two_write_batches_encode_nothing(self, monkeypatch):
        """The five demo CMQ classes cold, a keyword query, then an insert
        batch and an upsert batch each followed by the panel: no
        document is ever encoded (the parent encoded every stored tweet
        on the first JSON query, and each upserted copy after)."""
        demo = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42))
        instance = demo.instance
        calls: Counter = Counter()
        _spy(monkeypatch, StoreEncoding, "_encode", calls)
        panel = [qsia_query(demo),
                 instance.parse('qSIA(t, id) :- qG(id), tweetContains(t, id, "sia2016")[dSolr]'),
                 qsia_json_query(demo), qsia_json_query(demo, "etatdurgence"),
                 party_vocabulary_query(demo, "emploi"), fact_checking_query(demo)]
        assert instance.execute(qsia_json_query(demo)).rows
        for cmq in panel:
            instance.execute(cmq)
        assert instance.keyword_query(["head of state", "SIA2016"])
        store = instance.source(TWEETS_JSON_URI).store
        first = store.documents()[:5]
        for batch in ([_tweet(20_000 + i) for i in range(5)],
                      [{**document, "retweet_count": 999} for document in first]):
            store.add_all(batch)
            for cmq in panel:
                instance.execute(cmq)
        assert calls["_encode"] == 0


# ---------------------------------------------------------------------------
# 3. Set-at-a-time cache repair
# ---------------------------------------------------------------------------

class TestRepairIsSetAtATime:
    KEYS = 120

    def _store(self) -> FullTextStore:
        store = FullTextStore("tweets", fields=[
            FieldConfig("text", "text"), FieldConfig("author", "keyword")])
        store.add_all({"id": i, "text": f"alpha tweet {i}", "author": f"a{i % self.KEYS}"}
                      for i in range(3 * self.KEYS))
        return store

    def test_a_bind_join_over_a_stale_cache_repairs_in_one_pass(self, monkeypatch):
        store = self._store()
        source = FullTextSource("solr://tweets", store)
        cache = SubQueryResultCache()
        engine = RepairEngine(cache)
        proxy = CachedSource(source, cache, repair=engine)
        query = FullTextQuery.create("text:alpha", {"t": "text", "id": "author"})
        left = [{"id": f"a{i}"} for i in range(self.KEYS)]
        atom = SourceAtom("q", query, source="solr://tweets")
        canon = canonical_query(query)

        def join() -> BatchBindJoin:
            return BatchBindJoin(
                MaterializedScan(left),
                lambda bindings: proxy.execute_batch(query, bindings),
                keys=["id"], batch_size=1024,
                probe=lambda bindings: proxy.peek(atom, canon, bindings)[0])

        cold = join().rows()
        assert len(cold) == 3 * self.KEYS
        store.add_all({"id": 10_000 + i, "text": "alpha late", "author": f"a{i}"}
                      for i in range(50))
        calls: Counter = Counter()
        _spy(monkeypatch, FullTextStore, "matches", calls)
        _spy(monkeypatch, FullTextSource, "execute_batch", calls)
        _spy(monkeypatch, fulltext_source, "_answers", calls)
        _spy(monkeypatch, RepairEngine, "repair", calls)
        reset_registry()
        warm = join()
        with counting() as tally:
            rows = warm.rows()
        assert len(rows) == 3 * self.KEYS + 50
        assert warm.cache_hits == self.KEYS and warm.calls == 0
        assert (tally.hits, tally.misses) == (self.KEYS, 0)
        # One probe per flush, one repair call, no source call, and one
        # restricted pass over the store for all the keys.
        assert calls["repair"] == 1
        assert calls["execute_batch"] == 0
        assert calls["_answers"] == 1
        assert calls["matches"] == 1
        stats = engine.stats.as_dict()
        assert stats["attempts"] == stats["repaired"] == self.KEYS
        assert stats["rows_appended"] == 50
        # The operator reads the same numbers off the registry.
        registry = get_registry()
        assert registry.counter("cache_repair_batches_total").value == 1
        assert registry.counter("cache_repairs_total").value == self.KEYS

    def test_the_executor_probes_once_per_flush(self, monkeypatch):
        demo = build_demo_instance(DemoConfig(politicians=40, weeks=2, seed=42))
        instance = demo.instance
        # One group's nine accounts: over every account the full-text step
        # covers its atom and is materialised, with no bind join to probe.
        cmq = one_group_vocabulary_query(demo, "left", "france")
        options = PlannerOptions(bind_batch_size=1024)
        cold = instance.execute(cmq, options=options)
        instance.source(TWEETS_URI).store.add_all(
            {"id": 900_000 + i, "text": "la france", "week": "2016-W01",
             "user": {"screen_name": row["id"]}, "retweet_count": 1}
            for i, row in enumerate(cold.rows[:5]))
        calls: Counter = Counter()
        _spy(monkeypatch, CachedSource, "peek", calls)
        _spy(monkeypatch, RepairEngine, "repair", calls)
        before = instance.cache.repair.stats.as_dict()
        warm = instance.execute(cmq, options=options)
        after = instance.cache.repair.stats.as_dict()
        assert len(warm.rows) >= len(cold.rows)
        assert calls["peek"] == 1
        assert calls["repair"] == 1
        assert after["attempts"] - before["attempts"] > 1   # still counted per key
        assert after["attempts"] - before["attempts"] == \
            after["repaired"] - before["repaired"]


class TestRepairReadsThePin:
    """A document span is repaired by reading the pinned store restricted
    to the documents the span wrote: an insert-only span builds no store,
    an upsert span one, of its replaced copies, and the restricted read
    builds no presence set of the whole store."""

    def _cases(self) -> list:
        text = FullTextStore("tweets", fields=[
            FieldConfig("text", "text"), FieldConfig("author", "keyword")])
        text.add_all({"id": i, "text": f"alpha tweet {i}", "author": f"a{i % 7}"}
                      for i in range(200))
        documents = JSONDocumentStore("tweets")
        documents.add_all(_tweet(i) for i in range(200))
        return [
            (FullTextSource("solr://tweets", text),
             FullTextQuery.create("text:alpha", {"t": "text", "id": "author"}),
             lambda first: text.add_all({"id": first + i, "text": "alpha late",
                                         "author": f"a{i}"} for i in range(20))),
            (JSONSource("json://tweets", documents),
             JSONQuery.from_text('{ text: ?t, user.screen_name: ?id, '
                                 'entities.hashtags: "sia2016" }'),
             lambda first: documents.add_all(_tweet(first + i) for i in range(20)))]

    def test_an_insert_only_span_builds_no_store(self, monkeypatch):
        for source, query, write in self._cases():
            cache = SubQueryResultCache()
            engine = RepairEngine(cache)
            CachedSource(source.pin(), cache, repair=engine).execute_batch(query, [{}])
            for first, stores in ((1000, 0), (1010, 1)):  # an insert, then an upsert
                write(first)
                calls: Counter = Counter()
                with monkeypatch.context() as patch:
                    for store in (FullTextStore, JSONDocumentStore):
                        _spy(patch, store, "__init__", calls, "store")
                        _spy(patch, store, "add_all", calls, "add_all")
                    rows = CachedSource(source.pin(), cache, repair=engine).execute_batch(
                        query, [{}])
                assert calls == Counter({"store": stores, "add_all": stores}), source
                assert sorted(map(repr, dict_rows(rows[0]))) == \
                    sorted(map(repr, source.execute(query)))
            assert engine.stats.repaired == 2 and not engine.stats.fallbacks

    def test_a_restricted_read_builds_no_presence_set(self, monkeypatch):
        store = JSONDocumentStore("tweets")
        store.add_all({**_tweet(i), **({"extra": i} if i % 3 else {})} for i in range(120))
        source = JSONSource("json://tweets", store)
        # ``user`` is an interior path, ``extra`` is not in every document:
        # a cold read prunes with the presence sets of both.
        query = JSONQuery.from_text("{ user: ?u, extra: ?x, text: ?t }")
        cache = SubQueryResultCache()
        engine = RepairEngine(cache)
        proxy = CachedSource(source, cache, repair=engine)
        proxy.execute_batch(query, [{}])
        store.add_all({**_tweet(500 + i), "extra": i} for i in range(10))
        calls: Counter = Counter()
        with monkeypatch.context() as patch:
            _spy(patch, JSONDocumentStore, "doc_ids_with_path", calls)
            _spy(patch, PathIndex, "documents", calls)
            repaired = dict_rows(proxy.execute_batch(query, [{}])[0])
            assert engine.stats.repaired == 1 and calls == Counter()
            assert repaired == source.execute(query)
        assert calls["doc_ids_with_path"] and calls["documents"]


# ---------------------------------------------------------------------------
# 4. Plans reference sources by URI and pin no snapshot
# ---------------------------------------------------------------------------

#: The stores and their snapshots (which no longer subclass them).
SNAPSHOTS = (Snapshot, DatabaseSnapshot)
STORES = (DataSource, Graph, FullTextStore, JSONDocumentStore, Database) + SNAPSHOTS


def _reachable(roots: list) -> list:
    """Every object reachable from ``roots`` through ``gc.get_referents``."""
    seen: dict[int, object] = {}
    stack = list(roots)
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, type):
            continue
        seen[id(item)] = item
        stack.extend(gc.get_referents(item))
    return list(seen.values())


class TestPlansPinNoSnapshot:
    def test_the_plan_cache_reaches_no_source_or_store(self):
        demo = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42))
        instance = demo.instance
        for cmq in (qsia_query(demo), qsia_json_query(demo),
                    party_vocabulary_query(demo, "france")):
            instance.execute(cmq)
            assert all(isinstance(uri, str) for step in instance.plan(cmq).steps
                       for uri in step.sources)
        entries = list(instance.cache.plans.entries._entries.values())
        assert entries
        held = [item for item in _reachable(entries) if isinstance(item, STORES)]
        assert held == []

    def test_write_rounds_leave_a_bounded_number_of_snapshots(self):
        def stores() -> Counter:
            gc.collect()
            return Counter(
                (type(store).__name__, store.name) for store in gc.get_objects()
                if isinstance(store, (FullTextStore, JSONDocumentStore, Database, Graph)
                              + SNAPSHOTS)
                and not store.name.endswith("+delta"))

        # Demo instances other tests left alive carry the same store names
        # (and, now that ``instance.execute`` pins, a snapshot each).
        before = stores()
        demo = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42))
        instance = demo.instance
        panel = [qsia_query(demo), qsia_json_query(demo),
                 party_vocabulary_query(demo, "france")]
        service = MediatorService(instance, ServiceConfig(workers=2, tracing=False))
        try:
            for cmq in panel:
                service.execute(cmq)
            for round_ in range(12):
                instance.source(TWEETS_URI).store.add_all(
                    [{"id": 800_000 + round_, "text": "la france",
                      "user": {"screen_name": "nobody"}, "retweet_count": 0}])
                instance.source(TWEETS_JSON_URI).store.add_all(
                    [_tweet(800_000 + round_)])
                instance.add_glue_triples(
                    [triple(f"ttn:Evt{round_}", "ttn:observedAt", round_)])
                for cmq in panel:
                    result = service.execute(cmq)
        finally:
            service.shutdown(wait=True)
        assert result.rows is not None
        # Per store name: the live store, the memoised pin and at most one
        # more snapshot that the last result may still reference (a graph
        # comes with its saturation; the repair engine's ``+delta`` stores
        # are not snapshots).  The parent kept one snapshot per round.
        census = stores() - before
        assert census[("FullTextStore", instance.source(TWEETS_URI).store.name)] <= 3
        assert census[("JSONDocumentStore",
                       instance.source(TWEETS_JSON_URI).store.name)] <= 3
        assert census[("Graph", instance.glue_source.graph.name)] <= 6
        assert max(census.values()) <= 6, census


# ---------------------------------------------------------------------------
# 5. The pinned glue saturation is seeded from what it is handed
# ---------------------------------------------------------------------------

class TestPinnedSaturationIsSeededFromTheDelta:
    SIZE = 150

    def _source(self) -> RDFSource:
        graph = Graph("ent")
        graph.add(triple("ttn:politician", "rdfs:subClassOf", "ttn:person"))
        graph.add(triple("ttn:memberOf", "rdfs:range", "ttn:party"))
        graph.add_all(triple(f"ttn:P{i}", "rdf:type", "ttn:politician")
                      for i in range(self.SIZE))
        return RDFSource("rdf://ent", graph, entailment=True)

    def test_schema_extraction_touches_schema_triples_only(self, monkeypatch):
        graph = self._source().effective_graph()
        assert len(graph) > 2 * self.SIZE
        calls: Counter = Counter()
        _spy(monkeypatch, RDFSchema, "observe", calls)
        schema = RDFSchema.from_graph(graph)
        assert calls["observe"] == 2          # parent: every triple of the closure
        assert len(schema.triples()) == 2

    def test_seeding_from_the_previous_pin_tests_the_delta_only(self, monkeypatch):
        source = self._source()
        first = source.pin()
        with first.effective_graph().reading() as saturated:
            assert len(saturated) > 2 * self.SIZE
        # Written past the wrapper, so the live saturation is out of sync
        # and the next pin is seeded from the previous one.
        added = [triple(f"ttn:Q{i}", "rdf:type", "ttn:politician") for i in range(3)]
        source.graph.add_all(added)
        calls: Counter = Counter()
        _spy(monkeypatch, Graph, "__contains__", calls)
        _spy(monkeypatch, RDFSchema, "observe", calls)
        second = source.pin()
        assert second is not first and second._saturated is not None
        assert calls["__contains__"] <= len(added)      # parent: |G|
        # The schema triples, then the delta and what it derives (parent: |G∞|).
        assert calls["observe"] <= 2 + 2 * len(added)
        monkeypatch.undo()
        from repro.rdf.entailment import saturate

        expected, _ = saturate(source.graph)
        with second.effective_graph().reading() as saturated:
            assert set(saturated) == set(expected)
