"""Streaming ingestion: delta journals, cache repair, standing queries.

Covers the version-churn fixes (one ingest batch = ONE version bump per
store), the delta-join repair of version-orphaned cache entries
(`repro.cache.repair`) — including a hypothesis property test that a
repaired entry equals a cold re-execution across all four data models
under random insert/remove interleavings — and the standing-query
registry's push deltas against a periodic full re-run.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.lru import CacheStats
from repro.cache.repair import RepairEngine
from repro.cache.results import CachedSource, SubQueryResultCache
from repro.core import MixedInstance
from repro.core.deltas import DeltaJournal, INSERT, REMOVE, UPSERT
from repro.core.sources import (
    FullTextQuery,
    FullTextSource,
    JSONQuery,
    JSONSource,
    RDFQuery,
    RDFSource,
    RelationalSource,
    SQLQuery,
)
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
    stats = CacheStats()
    return CachedSource(source, cache, stats=stats, repair=engine), engine, stats


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

    def test_json_upsert_bumps_once_and_keeps_accelerator(self):
        store = JSONDocumentStore("docs")
        store.add_all([{"id": str(i), "v": i} for i in range(10)])
        store.encoding_view()  # build the accelerator
        before = store.version
        store.add({"id": "3", "v": 99})  # upsert through add()
        assert store.version == before + 1
        records = store.deltas_since(before)
        assert [r.kind for r in records] == [UPSERT]
        # The accelerator survived the upsert (removals drop it, upserts
        # must not) and serves the updated value.
        view = store.encoding_view()
        assert view is not None
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
    def test_chain_with_gap_returns_none(self):
        journal = DeltaJournal(capacity=4)
        for v in range(8):
            journal.record(v, v + 1, INSERT, (v,))
        # Versions 0..4 fell off the ring: the chain from 0 has a gap.
        assert journal.since(0, 8) is None
        chain = journal.since(4, 8)
        assert chain is not None and [r.pre_version for r in chain] == [4, 5, 6, 7]

    def test_gap_falls_back_to_plain_miss_with_correct_rows(self):
        store = JSONDocumentStore("docs")
        store._journal = DeltaJournal(capacity=2)  # tiny history
        store.add_all([{"id": "0", "v": 0}])
        source = JSONSource("json://d", store)
        proxy, engine, _ = _proxy(source)
        query = JSONQuery.from_text('{"v": ?v}')
        proxy.execute(query)
        for i in range(1, 5):  # 4 bumps > capacity: chain breaks
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
        proxy, _, _ = _proxy(source)
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
        proxy, _, _ = _proxy(source)
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
        proxy, _, _ = _proxy(source)
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
        proxy, engine, _ = _proxy(source)
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
        proxy, engine, _ = _proxy(source)
        query = SQLQuery(sql=sql)
        _check(proxy, source, query)
        db.execute("INSERT INTO t (k, v) VALUES (7, 'late'), (8, 'seed')")
        _check(proxy, source, query)
        assert engine.stats.fallbacks == {"shape": 1} and engine.stats.repaired == 0


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


# ---------------------------------------------------------------------------
# Statistics absorption
# ---------------------------------------------------------------------------

class TestStatisticsAbsorption:
    def test_column_summary_absorbs_insert_only_deltas(self):
        from repro.stats.catalog import StatisticsCatalog

        db = Database("d")
        db.create_table_from_rows("t", [{"c": i, "s": f"v{i}"}
                                        for i in range(100)])
        source = RelationalSource("sql://d", db)
        catalog = StatisticsCatalog()
        summary = catalog.column_summary(source, "t", "c")
        assert catalog.summaries_built == 1
        db.table("t").insert_many([{"c": 1000 + i, "s": "new"}
                                   for i in range(10)])
        absorbed = catalog.column_summary(source, "t", "c")
        assert absorbed is summary  # carried forward, not rebuilt
        assert catalog.summaries_absorbed == 1 and catalog.summaries_built == 1
        assert absorbed.total_values == 110
        assert absorbed.might_contain(1005) and absorbed.might_contain(50)
        assert not absorbed.might_contain(424242)

    def test_absorbed_summary_tracks_top_k_and_histogram(self):
        from repro.stats.catalog import StatisticsCatalog

        db = Database("d")
        db.create_table_from_rows("t", [{"s": f"v{i}", "n": float(i)}
                                        for i in range(50)])
        source = RelationalSource("sql://d", db)
        catalog = StatisticsCatalog()
        catalog.column_summary(source, "t", "s")
        catalog.column_summary(source, "t", "n")
        db.table("t").insert_many([{"s": "hot", "n": 25.0}] * 20)
        s = catalog.column_summary(source, "t", "s")
        n = catalog.column_summary(source, "t", "n")
        assert catalog.summaries_absorbed == 2
        assert s.top_k.frequency("hot") == 20
        assert n.numeric and n.histogram.total == 70
        # Out-of-range values clamp into the edge buckets.
        db.table("t").insert_many([{"s": "x", "n": 10_000.0}])
        n2 = catalog.column_summary(source, "t", "n")
        assert n2.histogram.total == 71
