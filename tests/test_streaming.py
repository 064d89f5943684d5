"""Streaming ingestion: delta journals, cache repair, standing queries.

Covers the version-churn fixes (one ingest batch = ONE version bump per
store), the delta-join repair of stale cache entries
(`repro.cache.repair`) — including a hypothesis property test that a
repaired entry equals a cold re-execution across all four data models
under random insert/remove interleavings — and the standing-query
registry's push deltas against a periodic full re-run.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.keys import canonical_query
from repro.cache.repair import RepairEngine
from repro.cache.results import CachedSource, SubQueryResultCache
from repro.core import MixedInstance
from repro.core.cmq import SourceAtom
from repro.core import deltas
from repro.core.deltas import DeltaJournal, INSERT, REMOVE, UPSERT
from repro.fulltext.source import FullTextQuery, FullTextSource
from repro.json.source import JSONQuery, JSONSource
from repro.rdf.source import RDFQuery, RDFSource
from repro.relational.source import RelationalSource, SQLQuery
from repro.engine.batch import dict_rows
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json.store import JSONDocumentStore
from repro.rdf import Graph, triple
from repro.relational import Database
from repro.service import MediatorService, ServiceConfig

pytestmark = pytest.mark.streaming


def _fp(row: dict) -> tuple:
    return tuple(sorted(row.items()))


def _multiset(rows: list[dict]) -> Counter:
    return Counter(_fp(row) for row in rows)


def _proxy(source):
    cache = SubQueryResultCache()
    engine = RepairEngine(cache)
    return CachedSource(source, cache, repair=engine), engine


# ---------------------------------------------------------------------------
# One ingest batch = ONE version bump (the version-churn bugfixes)
# ---------------------------------------------------------------------------

class TestBatchVersionBumps:
    def test_json_add_all_bumps_once(self):
        store = JSONDocumentStore("docs")
        before = store.version
        store.add_all([{"id": str(i), "v": i} for i in range(50)])
        assert store.version == before + 1
        records = store.deltas_since(before)
        assert len(records) == 1 and records[0].kind == INSERT
        assert len(records[0].items) == 50

    def test_json_upsert_bumps_once(self):
        store = JSONDocumentStore("docs")
        store.add_all([{"id": str(i), "v": i} for i in range(10)])
        before = store.version
        store.add({"id": "3", "v": 99})  # upsert through add()
        assert store.version == before + 1
        records = store.deltas_since(before)
        assert [r.kind for r in records] == [UPSERT]
        assert store.get("3")["v"] == 99

    def test_database_insert_statement_bumps_once(self):
        db = Database("d")
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        before = db.version
        db.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        assert db.version == before + 1
        records = db.deltas_since(before)
        assert len(records) == 1 and records[0].kind == INSERT
        assert len(records[0].items) == 3 and records[0].scope == "t"

    def test_graph_add_all_bumps_once(self):
        graph = Graph("g")
        before = graph.version
        added = graph.add_all([triple(f"ttn:S{i}", "ttn:p", i) for i in range(20)])
        assert added == 20
        assert graph.version == before + 1
        records = graph.deltas_since(before)
        assert len(records) == 1 and records[0].kind == INSERT
        assert len(records[0].items) == 20

    def test_graph_noop_batch_does_not_bump(self):
        graph = Graph("g")
        graph.add(triple("ttn:S", "ttn:p", 1))
        before = graph.version
        assert graph.add_all([triple("ttn:S", "ttn:p", 1)]) == 0
        assert graph.version == before

    def test_fulltext_add_all_bumps_once(self):
        store = FullTextStore("ft", fields=[FieldConfig("text", "text")])
        before = store.version
        store.add_all([{"id": i, "text": f"doc {i}"} for i in range(30)])
        assert store.version == before + 1
        records = store.deltas_since(before)
        assert len(records) == 1 and len(records[0].items) == 30

    def test_fulltext_upsert_bumps_once(self):
        store = FullTextStore("ft", fields=[FieldConfig("text", "text")])
        store.add({"id": 1, "text": "first"})
        before = store.version
        store.add({"id": 1, "text": "second"})
        assert store.version == before + 1
        assert [r.kind for r in store.deltas_since(before)] == [UPSERT]


# ---------------------------------------------------------------------------
# Delta journal chain soundness
# ---------------------------------------------------------------------------

class TestDeltaJournal:
    def test_chain_with_gap_returns_none(self, monkeypatch):
        monkeypatch.setattr(deltas, "MAX_DELTA_ITEMS", 4)
        journal = DeltaJournal()
        for v in range(8):
            journal.record(v, INSERT, (v,))
        # Versions 0..4 fell out of the 4-item window: the chain from 0 has a gap.
        assert journal.since(0, 8) is None
        chain = journal.since(4, 8)
        assert chain is not None and [r.pre_version for r in chain] == [4, 5, 6, 7]

    def test_gap_falls_back_to_plain_miss_with_correct_rows(self, monkeypatch):
        monkeypatch.setattr(deltas, "MAX_DELTA_ITEMS", 2)  # tiny history
        store = JSONDocumentStore("docs")
        store.add_all([{"id": "0", "v": 0}])
        source = JSONSource("json://d", store)
        proxy, engine = _proxy(source)
        query = JSONQuery.from_text('{"v": ?v}')
        proxy.execute(query)
        for i in range(1, 5):  # 4 one-item bumps > the budget: chain breaks
            store.add({"id": str(i), "v": i})
        warm = proxy.execute(query)
        assert _multiset(warm) == _multiset(source.execute(query))
        assert engine.stats.fallbacks.get("no_journal", 0) == 1


# ---------------------------------------------------------------------------
# Repaired entry == cold re-execution (hypothesis, all four models)
# ---------------------------------------------------------------------------

_OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "remove", "upsert"]),
              st.integers(min_value=0, max_value=19)),
    min_size=1, max_size=12)


def _check(proxy, source, query, bindings=None):
    warm = proxy.execute(query, dict(bindings or {}))
    cold = source.execute(query, dict(bindings or {}))
    assert _multiset(warm) == _multiset(cold)


class TestRepairedEqualsCold:
    @given(ops=_OPS)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_json(self, ops):
        store = JSONDocumentStore("docs")
        store.add_all([{"id": str(i), "k": i % 3, "v": i} for i in range(8)])
        source = JSONSource("json://docs", store)
        proxy, _ = _proxy(source)
        query = JSONQuery.from_text('{"k": ?k, "v": ?v}')
        _check(proxy, source, query)
        counter = 100
        for op, i in ops:
            if op == "insert":
                counter += 1
                store.add({"id": str(counter), "k": counter % 3, "v": counter})
            elif op == "upsert":
                store.add({"id": str(i), "k": i % 3, "v": 1000 + i})
            else:
                store.remove(str(i))
            _check(proxy, source, query)

    @given(ops=_OPS)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_rdf(self, ops):
        graph = Graph("g")
        for i in range(8):
            graph.add(triple(f"ttn:S{i}", "ttn:handle", f"h{i % 3}"))
            graph.add(triple(f"ttn:S{i}", "ttn:score", i))
        source = RDFSource("rdf://g", graph)
        proxy, _ = _proxy(source)
        query = RDFQuery.from_text(
            "SELECT ?h ?s WHERE { ?x ttn:handle ?h . ?x ttn:score ?s }")
        bound = RDFQuery.from_text(
            "SELECT ?s WHERE { ?x ttn:handle ?h . ?x ttn:score ?s }")
        _check(proxy, source, query)
        _check(proxy, source, bound, {"h": "h1"})
        counter = 100
        for op, i in ops:
            if op == "remove":
                graph.remove(triple(f"ttn:S{i}", "ttn:score", i))
            else:  # insert and upsert both add fresh triples
                counter += 1
                graph.add_all([
                    triple(f"ttn:S{counter}", "ttn:handle", f"h{counter % 3}"),
                    triple(f"ttn:S{counter}", "ttn:score", counter)])
            _check(proxy, source, query)
            _check(proxy, source, bound, {"h": "h1"})

    @given(ops=_OPS)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fulltext(self, ops):
        store = FullTextStore("ft", fields=[
            FieldConfig("text", "text"), FieldConfig("tag", "keyword")])
        store.add_all([{"id": i, "text": f"alpha doc {i}", "tag": f"t{i % 3}"}
                       for i in range(6)])
        source = FullTextSource("solr://ft", store)
        proxy, _ = _proxy(source)
        query = FullTextQuery(query_template="alpha",
                              output_fields=(("tag", "tag"),), limit=None)
        _check(proxy, source, query)
        counter = 100
        for op, i in ops:
            if op == "insert":
                counter += 1
                store.add({"id": counter, "text": "alpha fresh",
                           "tag": f"t{counter % 3}"})
            elif op == "upsert":
                store.add({"id": i, "text": "alpha updated", "tag": f"t{i % 3}"})
            else:
                store.remove(str(i))
            _check(proxy, source, query)

    @given(batches=st.lists(st.integers(min_value=1, max_value=5),
                            min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sql(self, batches):
        # Tables are append-only: the stream is a sequence of insert
        # batches (each one statement, hence one bump).
        db = Database("d")
        db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        db.execute("INSERT INTO t (k, v) VALUES (0, 'seed'), (1, 'seed')")
        source = RelationalSource("sql://d", db)
        proxy, engine = _proxy(source)
        query = SQLQuery(sql="SELECT k AS k, v AS v FROM t")
        bound = SQLQuery(sql="SELECT v AS v FROM t WHERE k = {k}")
        _check(proxy, source, query)
        _check(proxy, source, bound, {"k": 1})
        counter = 10
        for size in batches:
            rows = ", ".join(f"({counter + j}, 'b{counter + j}')"
                             for j in range(size))
            counter += size
            db.execute(f"INSERT INTO t (k, v) VALUES {rows}")
            _check(proxy, source, query)
            _check(proxy, source, bound, {"k": 1})
        assert engine.stats.repaired > 0

    @pytest.mark.parametrize("sql", [
        "SELECT k AS k, v AS v FROM t ORDER BY k DESC",
        "SELECT DISTINCT v AS v FROM t",
        "SELECT k AS k FROM t LIMIT 2",
        "SELECT MAX(k) AS top FROM t",
        "SELECT v AS v, COUNT(*) AS n FROM t GROUP BY v",
        "SELECT a.k AS k FROM t a JOIN t b ON a.k = b.k",
    ])
    def test_sql_shapes_an_insert_does_not_extend_fall_back(self, sql):
        db = Database("d")
        db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
        db.execute("INSERT INTO t (k, v) VALUES (0, 'seed'), (1, 'seed')")
        source = RelationalSource("sql://d", db)
        proxy, engine = _proxy(source)
        query = SQLQuery(sql=sql)
        _check(proxy, source, query)
        db.execute("INSERT INTO t (k, v) VALUES (7, 'late'), (8, 'seed')")
        _check(proxy, source, query)
        assert engine.stats.fallbacks == {"shape": 1} and engine.stats.repaired == 0


# ---------------------------------------------------------------------------
# Set-at-a-time repair: batch == per key == cold, and every gate still holds
# ---------------------------------------------------------------------------

def _json_case():
    store = JSONDocumentStore("docs")
    store.add_all({"id": str(i), "k": i % 4, "v": i} for i in range(12))
    counter = iter(range(100, 10_000))
    return (JSONSource("json://docs", store),
            JSONQuery.from_text('{"k": ?k, "v": ?v}'),
            [{"k": k} for k in range(4)] + [{}],
            lambda size: store.add_all(
                {"id": str(i), "k": i % 4, "v": i}
                for i in (next(counter) for _ in range(size))))


def _sql_case():
    db = Database("d")
    db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
    db.execute("CREATE TABLE other (k INTEGER)")
    db.execute("INSERT INTO t (k, v) VALUES (0, 'seed'), (1, 'seed'), (2, 'seed')")
    counter = iter(range(100, 10_000))

    def write(size: int) -> None:
        rows = ", ".join(f"({i % 4}, 'b{i}')"
                         for i in (next(counter) for _ in range(size)))
        db.execute(f"INSERT INTO t (k, v) VALUES {rows}")
        db.execute("INSERT INTO other (k) VALUES (1)")  # a re-stamp in the chain

    return (RelationalSource("sql://d", db),
            SQLQuery(sql="SELECT v AS v FROM t WHERE k = {k}"),
            [{"k": k} for k in range(4)], write)


def _fulltext_case():
    store = FullTextStore("ft", fields=[
        FieldConfig("text", "text"), FieldConfig("tag", "keyword")])
    store.add_all({"id": i, "text": "alpha doc", "tag": f"t{i % 4}"}
                  for i in range(12))
    counter = iter(range(100, 10_000))
    return (FullTextSource("solr://ft", store),
            FullTextQuery.create("text:alpha", {"tag": "tag", "t": "text"}),
            [{"tag": f"t{k}"} for k in range(4)] + [{}],
            lambda size: store.add_all(
                {"id": i, "text": "alpha doc", "tag": f"t{i % 4}"}
                for i in (next(counter) for _ in range(size))))


def _rdf_case():
    graph = Graph("g")
    for i in range(12):
        graph.add(triple(f"ttn:S{i}", "ttn:handle", f"h{i % 4}"))
        graph.add(triple(f"ttn:S{i}", "ttn:score", i))
    counter = iter(range(100, 10_000))

    def write(size: int) -> None:
        for i in (next(counter) for _ in range(size)):
            graph.add_all([triple(f"ttn:S{i}", "ttn:handle", f"h{i % 4}"),
                           triple(f"ttn:S{i}", "ttn:score", i)])

    return (RDFSource("rdf://g", graph),
            RDFQuery.from_text(
                "SELECT ?h ?s WHERE { ?x ttn:handle ?h . ?x ttn:score ?s }"),
            [{"h": f"h{k}"} for k in range(4)] + [{}], write)


class TestBatchRepair:
    @pytest.mark.parametrize("case, ordered", [
        (_json_case, True), (_sql_case, True), (_fulltext_case, False),
        (_rdf_case, False)])
    @given(sizes=st.lists(st.integers(min_value=1, max_value=4),
                          min_size=2, max_size=5))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_batch_equals_per_key_equals_cold(self, case, ordered, sizes):
        """One ``execute_batch`` / ``peek`` over keys stale from *different*
        versions (and some never cached) answers what one ``execute`` per
        key answers, row lists and order included, and what the source
        answers cold (as a multiset for the two models whose cold order
        ``repro.cache.repair`` does not promise: hits interleave by score,
        BGP solutions come in index order)."""
        source, query, keys, write = case()
        batched, batch_engine = _proxy(source)
        peeked, _ = _proxy(source)
        per_key, key_engine = _proxy(source)
        early, late = keys[::2], keys[1::2]
        for proxy in (batched, peeked):
            proxy.execute_batch(query, early)
        for key in early:
            per_key.execute(query, dict(key))
        for step, size in enumerate(sizes):
            write(size)
            # After the first write only the late keys are asked (cached at
            # a later version than the early ones); from then on, all.
            asked = late if step == 0 else keys
            one_by_one = [per_key.execute(query, dict(key)) for key in asked]
            assert list(map(dict_rows, batched.execute_batch(query, asked))) == one_by_one
            atom = SourceAtom("q", query, source=source.uri)
            answers, _ = peeked.peek(atom, canonical_query(query),
                                     [(tuple(key), tuple(key.values())) for key in asked])
            hits = [None if batches is None else dict_rows(batches) for batches in answers]
            assert [rows for rows in hits if rows is not None] == \
                [rows for rows, hit in zip(one_by_one, hits) if hit is not None]
            peeked.execute_batch(query, asked)
            for key, rows in zip(asked, one_by_one):
                cold = source.execute(query, dict(key))
                assert rows == cold if ordered else _multiset(rows) == _multiset(cold)
        assert batch_engine.stats.as_dict() == key_engine.stats.as_dict()
        assert batch_engine.stats.repaired > 0 and not batch_engine.stats.fallbacks

    def test_fulltext_delta_store_answers_like_a_rerun(self):
        """The delta store the repair builds for a full-text span
        (``FullTextSource._delta_sources``) answers a batch through the same
        evaluation as the live store: one call per key answers the same
        rows in the same order, they close every repaired entry, and
        entry = stored + delta is the cold re-run's multiset."""
        source, query, keys, write = _fulltext_case()
        proxy, engine = _proxy(source)
        stored = list(map(dict_rows, proxy.execute_batch(query, keys)))
        pre = source.version()
        write(2)
        write(3)
        delta, replaced = source._delta_sources(source.deltas_since(pre))
        assert replaced is None
        fresh = list(map(dict_rows, delta.execute_batch(query, keys)))
        assert fresh == [delta.execute(query, dict(key)) for key in keys]
        assert sum(map(len, fresh)) == 2 * 5  # the catch-all key sees all five
        repaired = list(map(dict_rows, proxy.execute_batch(query, keys)))
        assert engine.stats.repaired == len(keys) and not engine.stats.fallbacks
        for key, old, new, rows in zip(keys, stored, fresh, repaired):
            assert rows == old + new
            assert _multiset(rows) == _multiset(source.execute(query, dict(key)))

    # -- gates, through the batch entry -------------------------------------
    def _refused(self, source, query, keys, write, reason, ordered=True):
        """Warm ``keys``, write, re-ask them in one batch: the answers are
        the cold ones (wrong when the gate is dropped) and every key is a
        counted fallback."""
        proxy, engine = _proxy(source)
        proxy.execute_batch(query, keys)
        write()
        warm = list(map(dict_rows, proxy.execute_batch(query, keys)))
        for key, rows in zip(keys, warm):
            cold = source.execute(query, dict(key))
            assert rows == cold if ordered else _multiset(rows) == _multiset(cold)
        assert engine.stats.fallbacks == {reason: len(keys)}
        assert engine.stats.attempts == len(keys) and engine.stats.repaired == 0

    def _repaired(self, source, query, keys, write, ordered=True):
        """Warm ``keys``, write, re-ask them in one batch: every key is
        repaired without a source call, into the cold answer."""
        proxy, engine = _proxy(source)
        proxy.execute_batch(query, keys)
        write()
        source.execute_batch = None  # a source call would raise
        try:
            warm = list(map(dict_rows, proxy.execute_batch(query, keys)))
        finally:
            del source.execute_batch
        for key, rows in zip(keys, warm):
            cold = source.execute(query, dict(key))
            assert rows == cold if ordered else _multiset(rows) == _multiset(cold)
        assert not engine.stats.fallbacks
        assert engine.stats.attempts == engine.stats.repaired == len(keys)

    def test_json_limit_and_upsert(self):
        source, query, keys, write = _json_case()
        limited = JSONQuery.from_text('{"k": ?k, "v": ?v}', limit=2)
        self._refused(source, limited, keys[:2], lambda: write(8), "shape")
        self._repaired(source, query, keys,
                       lambda: source.store.add({"id": "0", "k": 0, "v": 999}))
        self._repaired(source, query, keys, lambda: source.store.remove("1"))

    @pytest.mark.parametrize("query", [
        FullTextQuery.create("text:alpha", {"tag": "tag"}, limit=2),
        FullTextQuery.create("text:alpha", {"tag": "tag", "i": "id"}, sort_by="tag"),
        FullTextQuery.create("text:alpha", {"tag": "tag", "s": "_score"}),
    ])
    def test_fulltext_limit_sort_and_score(self, query):
        source, _, _, _ = _fulltext_case()
        self._refused(
            source, query, [{}, {"tag": "t1"}],
            lambda: source.store.add_all(
                {"id": 500 + i, "text": "alpha alpha", "tag": f"t{i % 2}"}
                for i in range(4)),
            "shape")

    def test_fulltext_removal(self):
        source, query, keys, _ = _fulltext_case()
        self._repaired(source, query, keys, lambda: source.store.remove("0"),
                       ordered=False)

    def test_delta_too_large(self):
        source, query, keys, write = _json_case()
        proxy, engine = _proxy(source)
        engine.MAX_DELTA_ITEMS = 3
        proxy.execute_batch(query, keys)
        write(4)
        assert list(map(dict_rows, proxy.execute_batch(query, keys))) == \
            [source.execute(query, dict(key)) for key in keys]
        assert engine.stats.fallbacks == {"delta_too_large": len(keys)}
        # RDF counts seeds: delta triples x triple patterns.
        source, query, keys, write = _rdf_case()
        proxy, engine = _proxy(source)
        engine.MAX_DELTA_ITEMS = 3
        proxy.execute_batch(query, keys)
        write(1)  # one batch of two triples, against two patterns
        for key, rows in zip(keys, list(map(dict_rows, proxy.execute_batch(query, keys)))):
            assert _multiset(rows) == _multiset(source.execute(query, dict(key)))
        assert engine.stats.fallbacks == {"delta_too_large": len(keys)}

    def test_rdf_removal_entailment_and_headless(self):
        source, query, keys, write = _rdf_case()
        self._refused(
            source, query, keys[:2],
            lambda: source.graph.remove(triple("ttn:S0", "ttn:score", 0)),
            "removals", ordered=False)
        headless = RDFQuery(bgp=type(query.bgp)(head=(), patterns=query.bgp.patterns))
        self._refused(source, headless, keys[:2], lambda: write(2), "shape",
                      ordered=False)
        graph = Graph("ent")
        graph.add(triple("ttn:politician", "rdfs:subClassOf", "ttn:person"))
        graph.add(triple("ttn:X", "rdf:type", "ttn:politician"))
        entailed = RDFSource("rdf://ent", graph, entailment=True)
        people = RDFQuery.from_text("SELECT ?s WHERE { ?s rdf:type ttn:person }")
        # An insert into the entailed glue is repaired over ΔG∞: the one
        # explicit triple unifies with no pattern, what it entails does.
        self._repaired(
            entailed, people, [{}, {"s": "http://tatooine.inria.fr/ns#Y"}],
            lambda: graph.add(triple("ttn:Y", "rdf:type", "ttn:politician")),
            ordered=False)

    def test_journal_gap(self, monkeypatch):
        source, query, keys, write = _json_case()
        monkeypatch.setattr(deltas, "MAX_DELTA_ITEMS", 2)
        self._refused(source, query, keys,
                      lambda: [write(1) for _ in range(4)], "no_journal")


# ---------------------------------------------------------------------------
# Document upserts and removals are repaired, chains included
# ---------------------------------------------------------------------------

#: One write round: batches of documents (an id twice in a batch is
#: written twice) or removals, repaired as one chain at the next asking.
_ROUNDS = st.lists(st.lists(st.one_of(
    st.tuples(st.just("write"), st.lists(st.integers(0, 13), min_size=1, max_size=4)),
    st.tuples(st.just("remove"), st.integers(0, 13))), min_size=1, max_size=4),
    min_size=1, max_size=3)


def _json_documents():
    store = JSONDocumentStore("docs")
    return (store, JSONSource("json://docs", store), JSONQuery.from_text('{"k": ?k, "v": ?v}'),
            [{"k": k} for k in range(3)] + [{}],
            lambda i, revision: {"id": str(i), "k": (i + revision) % 3, "v": 100 * revision + i})


def _fulltext_documents():
    store = FullTextStore("ft", fields=[FieldConfig("text", "text"),
                                        FieldConfig("tag", "keyword")])
    return (store, FullTextSource("solr://ft", store),
            FullTextQuery.create("text:alpha", {"tag": "tag", "v": "v"}),
            [{"tag": f"t{k}"} for k in range(3)] + [{}],
            lambda i, revision: {"id": i, "text": "alpha" if (i + revision) % 4 else "beta",
                                 "tag": f"t{(i + revision) % 3}", "v": 100 * revision + i})


class TestDocumentRewritesAreRepaired:
    @pytest.mark.parametrize("case, ordered", [(_json_documents, True),
                                               (_fulltext_documents, False)])
    @given(rounds=_ROUNDS)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_a_repaired_chain_equals_a_rerun(self, case, ordered, rounds):
        """Upserts, removals and inserts — a document written twice in one
        batch, or rewritten, removed and written again across the batches
        of one chain — are repaired without a source call into the cold
        answer: the same multiset, and for JSON the same order."""
        store, source, query, keys, document = case()
        store.add_all(document(i, 0) for i in range(10))
        proxy, engine = _proxy(source)
        proxy.execute_batch(query, keys)
        revision = 0
        for batches in rounds:
            for op, argument in batches:
                revision += 1
                if op == "write":
                    store.add_all(document(i, revision) for i in argument)
                else:
                    store.remove(str(argument))
            source.execute_batch = None  # a source call would raise
            try:
                warm = list(map(dict_rows, proxy.execute_batch(query, keys)))
            finally:
                del source.execute_batch
            assert not engine.stats.fallbacks
            for key, rows in zip(keys, warm):
                cold = source.execute(query, dict(key))
                assert rows == cold if ordered else _multiset(rows) == _multiset(cold)
        assert engine.stats.repaired == engine.stats.attempts

    def test_a_diverged_entry_falls_back(self):
        """A replaced copy whose rows the entry does not hold (here: every
        entry emptied behind the cache's back) makes the span fall back,
        with the reason ``diverged``, to the cold answer."""
        store, source, query, keys, document = _json_documents()
        store.add_all(document(i, 0) for i in range(6))
        proxy, engine = _proxy(source)
        proxy.execute_batch(query, keys)
        for key, (version, _) in list(engine.cache.entries._entries.items()):
            engine.cache.insert_canonical(key, version, [])
        store.add(document(0, 1))
        warm = list(map(dict_rows, proxy.execute_batch(query, keys)))
        assert warm == [source.execute(query, dict(key)) for key in keys]
        assert engine.stats.fallbacks == {"diverged": len(keys)}


# ---------------------------------------------------------------------------
# Warm-cache hit rate under a write stream
# ---------------------------------------------------------------------------

class TestWarmCacheUnderWrites:
    def test_write_stream_keeps_hit_rate(self):
        glue = Graph("glue")
        for handle, dept in [("fh", "75"), ("ml", "62")]:
            glue.add(triple(f"ttn:U_{handle}", "ttn:twitterAccount", handle))
            glue.add(triple(f"ttn:U_{handle}", "ttn:deptCode", dept))
        db = Database("insee")
        db.create_table_from_rows("unemployment", [
            {"dept_code": "75", "rate": 7.5},
            {"dept_code": "62", "rate": 12.1},
        ])
        inst = MixedInstance(graph=glue, name="stream", entailment=False)
        inst.register_relational("sql://insee", db)
        cmq = (inst.builder("q", head=["dept", "rate"])
               .graph("SELECT ?dept WHERE { ?x ttn:deptCode ?dept }")
               .sql("stats", source="sql://insee",
                    sql="SELECT dept_code AS dept, rate AS rate "
                        "FROM unemployment WHERE dept_code = {dept}")
               .build())
        inst.execute(cmq)  # cold
        for i in range(10):
            db.execute("INSERT INTO unemployment (dept_code, rate) "
                       f"VALUES ('{90 + i}', {i}.5)")
            result = inst.execute(cmq)
            assert result.trace.cache_misses == 0, f"write {i} poisoned the cache"
            assert result.trace.cache_hits > 0
        repair = inst.cache.repair.stats.as_dict()
        assert repair["repaired"] > 0 and not repair["fallbacks"]

    HANDLES = ["fhollande", "mlepen", "njdam"]
    DEPTS = ["75", "62", "33"]

    def five_stores(self) -> MixedInstance:
        glue = Graph("stream-glue")
        for i, (handle, dept) in enumerate(zip(self.HANDLES, self.DEPTS)):
            glue.add(triple(f"ttn:P{i}", "ttn:twitterAccount", handle))
            glue.add(triple(f"ttn:P{i}", "ttn:deptCode", dept))
        database = Database("insee")
        database.create_table_from_rows(
            "unemployment", [{"dept_code": dept, "year": 2015, "rate": 7.0 + i}
                             for i, dept in enumerate(self.DEPTS)])
        posts = FullTextStore("posts", fields=[FieldConfig("text", "text"),
                                               FieldConfig("user.screen_name", "keyword")],
                              default_field="text")
        posts.add_all([{"id": i, "text": "campagne en cours", "user": {"screen_name": handle}}
                       for i, handle in enumerate(self.HANDLES)])
        tweets = JSONDocumentStore("tweets")
        tweets.add_all([{"id": str(i), "author": handle, "likes": 10 * i}
                        for i, handle in enumerate(self.HANDLES)])
        profiles = Graph("profiles")
        for i, handle in enumerate(self.HANDLES):
            profiles.add(triple(f"ttn:U{i}", "ttn:handle", handle))
            profiles.add(triple(f"ttn:U{i}", "ttn:followers", 1000 * (i + 1)))
        inst = MixedInstance(graph=glue, name="five-stores", entailment=False)
        inst.register_relational("sql://insee", database)
        inst.register_fulltext("solr://posts", posts)
        inst.register_json("json://tweets", tweets)
        inst.register_rdf("rdf://profiles", profiles)
        return inst

    def panel(self, inst) -> list:
        """One CMQ per data model, each but the RDF one probed from the glue."""
        accounts = "SELECT ?id WHERE { ?x ttn:twitterAccount ?id }"
        return [
            inst.builder("rates", head=["dept", "rate"])
            .graph("SELECT ?dept WHERE { ?x ttn:deptCode ?dept }")
            .sql("stats", source="sql://insee",
                 sql="SELECT dept_code AS dept, rate AS rate FROM unemployment "
                     "WHERE dept_code = {dept}").build(),
            inst.builder("posts", head=["id", "t"]).graph(accounts)
            .fulltext("posts", source="solr://posts", query="user.screen_name:{id}",
                      fields={"t": "text", "id": "user.screen_name"}).build(),
            inst.builder("tweets", head=["id", "likes"]).graph(accounts)
            .json("tweets", source="json://tweets",
                  pattern="{ author: ?id, likes: ?likes }").build(),
            inst.builder("followers", head=["id", "f"])
            .rdf("prof", "SELECT ?id ?f WHERE { ?u ttn:handle ?id . ?u ttn:followers ?f }",
                 source="rdf://profiles").build(),
        ]

    def ingest(self, inst, tick: int) -> None:
        """One batch into each of the five stores: new facts about known
        entities, so the panel's probe bindings stay the same."""
        inst.graph.add_all([triple(f"ttn:Evt{tick}", "ttn:observedAt", tick)])
        inst.source("sql://insee").database.execute(
            "INSERT INTO unemployment (dept_code, year, rate) VALUES " + ", ".join(
                f"('{dept}', {2016 + tick}, {7.0 + tick % 4})" for dept in self.DEPTS))
        inst.source("solr://posts").store.add_all([
            {"id": 1000 + 10 * tick + i, "text": f"reaction {tick} en direct",
             "user": {"screen_name": handle}} for i, handle in enumerate(self.HANDLES)])
        inst.source("json://tweets").store.add_all([
            {"id": f"t{tick}-{i}", "author": handle, "likes": tick + i}
            for i, handle in enumerate(self.HANDLES)])
        inst.source("rdf://profiles").graph.add_all([
            triple(f"ttn:U{i}", "ttn:followers", 1000 * (i + 1) + tick + 1)
            for i in range(len(self.HANDLES))])

    def replay(self, repair: bool, rounds: int = 3):
        inst = self.five_stores()
        if not repair:
            inst.cache.repair = None  # a write strands every entry of its source
        panel = self.panel(inst)
        for cmq in panel:
            inst.execute(cmq)
        answers, hits, misses = [], 0, 0
        for tick in range(rounds):
            self.ingest(inst, tick)
            for cmq in panel:
                result = inst.execute(cmq)
                hits += result.trace.cache_hits
                misses += result.trace.cache_misses
                answers.append(_multiset(result.rows))
        return inst, answers, hits, misses

    def test_five_store_stream_is_repaired_to_the_cold_answers(self):
        """Each round writes all five stores; every warm re-run of the
        four-model panel is answered from repaired entries, equal to the
        answers of the run whose writes strand the cache."""
        repaired, warm, hits, misses = self.replay(repair=True)
        _, cold, cold_hits, cold_misses = self.replay(repair=False)
        assert warm == cold
        assert misses == 0 and hits > 0
        stats = repaired.cache.repair.stats.as_dict()
        assert stats["repaired"] > 0 and not stats["fallbacks"]
        assert hits / (hits + misses) >= 5 * cold_hits / (cold_hits + cold_misses)


# ---------------------------------------------------------------------------
# Standing queries
# ---------------------------------------------------------------------------

class TestStandingQueries:
    def _wait(self, predicate, timeout=5.0):
        deadline = time.time() + timeout
        while not predicate() and time.time() < deadline:
            time.sleep(0.02)
        assert predicate(), "condition not reached before timeout"

    def test_deltas_match_periodic_full_rerun(self):
        glue = Graph("glue")
        glue.add(triple("ttn:U_fh", "ttn:deptCode", "75"))
        glue.add(triple("ttn:U_ml", "ttn:deptCode", "62"))
        db = Database("insee")
        db.create_table_from_rows("unemployment", [
            {"dept_code": "75", "rate": 7.5},
            {"dept_code": "62", "rate": 12.1},
        ])
        inst = MixedInstance(graph=glue, name="standing", entailment=False)
        inst.register_relational("sql://insee", db)
        with MediatorService(inst, ServiceConfig(workers=2)) as service:
            cmq = (inst.builder("watch", head=["dept", "rate"])
                   .graph("SELECT ?dept WHERE { ?x ttn:deptCode ?dept }")
                   .sql("stats", source="sql://insee",
                        sql="SELECT dept_code AS dept, rate AS rate "
                            "FROM unemployment WHERE dept_code = {dept}")
                   .build())
            deltas = []
            sub = service.register_standing(cmq, deltas.append)
            baseline = _multiset(sub.rows)
            assert len(sub.rows) == 2 and not deltas

            glue.add(triple("ttn:U_zz", "ttn:deptCode", "33"))
            db.execute("INSERT INTO unemployment (dept_code, rate) "
                       "VALUES ('33', 9.0)")
            self._wait(lambda: len(deltas) >= 1)

            # Applying the pushed deltas to the baseline reproduces a
            # full re-run exactly (multiset semantics).
            state = Counter(baseline)
            for delta in deltas:
                state.update(_fp(r) for r in delta.added)
                state.subtract(_fp(r) for r in delta.removed)
            rerun = service.execute(cmq)
            assert +state == _multiset(rerun.rows) == _multiset(sub.rows)
            assert any(_fp({"dept": "33", "rate": 9.0}) == _fp(r)
                       for d in deltas for r in d.added)

            # An irrelevant write refreshes but delivers nothing.
            seen = len(deltas)
            glue.add(triple("ttn:U_qq", "ttn:other", "x"))
            refreshes = sub.refreshes
            self._wait(lambda: sub.refreshes > refreshes)
            assert len(deltas) == seen

            stats = service.stats()
            assert stats["standing"]["subscriptions"] == 1
            assert stats["standing"]["deliveries"] >= 1
            assert stats["repair"]["repaired"] > 0

            sub.cancel()
            assert service.stats()["standing"]["subscriptions"] == 0

    def test_callback_error_does_not_stop_refreshing(self):
        glue = Graph("glue")
        glue.add(triple("ttn:A", "ttn:p", 1))
        inst = MixedInstance(graph=glue, name="cb", entailment=False)
        with MediatorService(inst, ServiceConfig(workers=1)) as service:
            cmq = (inst.builder("w", head=["x", "v"])
                   .graph("SELECT ?x ?v WHERE { ?x ttn:p ?v }")
                   .build())
            calls = []

            def explode(delta):
                calls.append(delta)
                raise RuntimeError("subscriber bug")

            sub = service.register_standing(cmq, explode)
            glue.add(triple("ttn:B", "ttn:p", 2))
            self._wait(lambda: len(calls) >= 1)
            glue.add(triple("ttn:C", "ttn:p", 3))
            self._wait(lambda: len(calls) >= 2)
            assert sub.callback_errors >= 1
            assert len(sub.rows) == 3

    def test_callback_runs_on_the_refresh_thread(self):
        glue = Graph("glue")
        glue.add(triple("ttn:A", "ttn:p", 1))
        inst = MixedInstance(graph=glue, name="cbt", entailment=False)
        with MediatorService(inst, ServiceConfig(workers=1)) as service:
            cmq = (inst.builder("w", head=["x", "v"])
                   .graph("SELECT ?x ?v WHERE { ?x ttn:p ?v }")
                   .build())
            threads = []
            service.register_standing(
                cmq, lambda delta: threads.append(threading.current_thread().name))
            glue.add(triple("ttn:B", "ttn:p", 2))
            self._wait(lambda: len(threads) >= 1)
            assert threads[0] == "mediator-standing"
