"""Tests for the cross-query caching subsystem (`repro.cache`)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.cache import (
    CacheStats,
    CachedSource,
    LRUCache,
    MediatorCache,
    canonical_query,
    cmq_signature,
)
from repro.core import MixedInstance, PlannerOptions
from repro.core.planner import REPLAN_THRESHOLD
from repro.cache.repair import RepairEngine
from repro.cache.results import SubQueryResultCache
from repro.core.sources import DataSource
from repro.fulltext.source import FullTextQuery, FullTextSource
from repro.json.source import JSONQuery
from repro.rdf.source import RDFQuery
from repro.relational.source import RelationalSource, SQLQuery
from repro.engine.batch import BindingBatch, dict_rows
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json.store import JSONDocumentStore
from repro.rdf import Graph, triple
from repro.relational import Database
from repro.remote import LocalTransport, RemoteSource, RemoteSourceHandler

NO_CACHE = PlannerOptions(result_cache=False, plan_cache=False)

HANDLES = [f"u{i}" for i in range(6)]


@pytest.fixture
def instance():
    """A four-model instance: glue + SQL + full-text + JSON + RDF."""
    glue = Graph("glue")
    for handle, dept in [("fhollande", "75"), ("mlepen", "62"), ("nobody", "99")]:
        glue.add(triple(f"ttn:U_{handle}", "ttn:twitterAccount", handle))
        glue.add(triple(f"ttn:U_{handle}", "ttn:deptCode", dept))

    database = Database("insee")
    database.create_table_from_rows("unemployment", [
        {"dept_code": "75", "rate": 7.5},
        {"dept_code": "62", "rate": 12.1},
        {"dept_code": "33", "rate": 9.0},
    ])

    store = FullTextStore("tweets", fields=[
        FieldConfig("text", "text"),
        FieldConfig("user.screen_name", "keyword"),
    ], default_field="text")
    store.add_all([
        {"id": 1, "text": "bonjour de paris", "user": {"screen_name": "fhollande"}},
        {"id": 2, "text": "bonjour du nord", "user": {"screen_name": "mlepen"}},
    ])

    json_store = JSONDocumentStore("docs")
    json_store.add_all([
        {"id": "1", "user": {"screen_name": "fhollande"}, "retweets": 10},
        {"id": "2", "user": {"screen_name": "mlepen"}, "retweets": 3},
    ])

    rdf_graph = Graph("handles")
    rdf_graph.add(triple("ttn:A1", "ttn:handle", "fhollande"))
    rdf_graph.add(triple("ttn:A1", "ttn:followers", 1_500_000))
    rdf_graph.add(triple("ttn:A2", "ttn:handle", "mlepen"))
    rdf_graph.add(triple("ttn:A2", "ttn:followers", 900_000))

    inst = MixedInstance(graph=glue, name="cache-test", entailment=False)
    inst.register_relational("sql://insee", database)
    inst.register_fulltext("solr://tweets", store)
    inst.register_json("json://docs", json_store)
    inst.register_rdf("rdf://handles", rdf_graph)
    return inst


def sql_cmq(inst, name="q"):
    return (inst.builder(name, head=["dept", "rate"])
            .graph("SELECT ?dept WHERE { ?x ttn:deptCode ?dept }")
            .sql("stats", source="sql://insee",
                 sql="SELECT dept_code AS dept, rate AS rate FROM unemployment "
                     "WHERE dept_code = {dept}")
            .build())


def rows_of(result):
    return sorted(map(str, result.rows))


# ---------------------------------------------------------------------------
# LRU primitives
# ---------------------------------------------------------------------------

class TestLRUCache:
    def test_hit_miss_counters(self):
        lru = LRUCache(4)
        assert lru.get("a") is None
        lru.put("a", [1])
        assert lru.get("a") == [1]
        assert lru.stats.hits == 1 and lru.stats.misses == 1

    def test_eviction_is_least_recently_used(self):
        lru = LRUCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")  # refresh a; b is now the oldest
        lru.put("c", 3)
        assert "a" in lru and "c" in lru and "b" not in lru
        assert lru.stats.evictions == 1

    def test_peek_does_not_record_miss(self):
        lru = LRUCache(4)
        assert lru.peek("nope") is None
        assert lru.stats.misses == 0


# ---------------------------------------------------------------------------
# Canonical keys: variable-renaming invariance
# ---------------------------------------------------------------------------

class TestCanonicalKeys:
    def test_rdf_renaming_invariant(self):
        a = RDFQuery.from_text("SELECT ?x ?y WHERE { ?x ttn:knows ?y }")
        b = RDFQuery.from_text("SELECT ?p ?q WHERE { ?p ttn:knows ?q }")
        c = RDFQuery.from_text("SELECT ?y ?x WHERE { ?x ttn:knows ?y }")
        assert canonical_query(a).key == canonical_query(b).key
        assert canonical_query(a).key != canonical_query(c).key  # head order

    def test_rdf_structure_matters(self):
        a = RDFQuery.from_text("SELECT ?x WHERE { ?x ttn:knows ?y }")
        b = RDFQuery.from_text("SELECT ?x WHERE { ?x ttn:likes ?y }")
        assert canonical_query(a).key != canonical_query(b).key

    def test_sql_placeholder_renaming_invariant(self):
        a = SQLQuery(sql="SELECT h AS id FROM t WHERE h = {id}")
        b = SQLQuery(sql="SELECT h AS id FROM t WHERE h = {handle}")
        assert canonical_query(a).key == canonical_query(b).key

    def test_a_quoted_sql_placeholder_is_a_literal_not_a_parameter(self):
        """``'{x}'`` and ``'{y}'`` are two different string literals: the
        text-level rename gave them one key and a bogus ``{'x': '?0'}``
        rename that a header rename would have applied to the rows."""
        a = SQLQuery(sql="SELECT name AS x FROM t WHERE tag = '{x}'")
        b = SQLQuery(sql="SELECT name AS x FROM t WHERE tag = '{y}'")
        assert a.required_parameters() == set()
        assert canonical_query(a).key != canonical_query(b).key
        assert canonical_query(a).rename == {} == canonical_query(b).rename
        database = Database("db")
        database.create_table_from_rows(
            "t", [{"name": "braces-x", "tag": "{x}"}, {"name": "braces-y", "tag": "{y}"}])
        cached = CachedSource(RelationalSource("sql://t", database),
                              SubQueryResultCache(8))
        assert cached.execute(a, {}) == [{"x": "braces-x"}]
        assert cached.execute(b, {}) == [{"x": "braces-y"}]  # never a's entry
        assert len(cached.cache) == 2

    def test_sql_parameters_share_an_entry_whatever_their_names(self):
        a = SQLQuery(sql="SELECT name AS n FROM t WHERE tag = {x} AND name <> '{x}'")
        b = SQLQuery(sql="SELECT name AS n  FROM t WHERE tag = {y} AND name <> '{x}'")
        assert canonical_query(a).key == canonical_query(b).key
        assert canonical_query(a).rename == {"x": "?0"}
        assert canonical_query(b).rename == {"y": "?0"}
        database = Database("db")
        database.create_table_from_rows("t", [{"name": "n1", "tag": "a"}])
        cache = SubQueryResultCache(8)
        cached = CachedSource(RelationalSource("sql://t", database), cache)
        assert cached.execute(a, {"x": "a"}) == cached.execute(b, {"y": "a"}) == [{"n": "n1"}]
        assert (cache.stats.hits, cache.stats.misses, len(cache)) == (1, 1, 1)

    def test_fulltext_renaming_invariant(self):
        a = FullTextQuery.create("user.screen_name:{id}",
                                 {"t": "text", "id": "user.screen_name"})
        b = FullTextQuery.create("user.screen_name:{who}",
                                 {"txt": "text", "who": "user.screen_name"})
        assert canonical_query(a).key == canonical_query(b).key
        assert canonical_query(a).key != canonical_query(
            FullTextQuery.create("user.screen_name:{id}",
                                 {"t": "text", "id": "user.screen_name"},
                                 limit=5)).key
        # A parameter is renamed; the same letters inside a phrase are text.
        c = FullTextQuery.create('text:"{id} now" user.screen_name:{id}',
                                 {"t": "text", "id": "user.screen_name"})
        d = FullTextQuery.create('text:"{id} now" user.screen_name:{who}',
                                 {"txt": "text", "who": "user.screen_name"})
        e = FullTextQuery.create('text:"{who} now" user.screen_name:{who}',
                                 {"txt": "text", "who": "user.screen_name"})
        assert canonical_query(c).key == canonical_query(d).key != canonical_query(e).key
        assert canonical_query(d).rename == {"who": "?0", "txt": "?1"}

    def test_json_renaming_invariant(self):
        a = JSONQuery.from_text("{ user.screen_name: ?id, retweets: ?n }")
        b = JSONQuery.from_text("{ user.screen_name: ?who, retweets: ?m }")
        assert canonical_query(a).key == canonical_query(b).key

    def test_binding_keys_follow_the_renaming(self):
        a = SQLQuery(sql="SELECT h AS id FROM t WHERE h = {id}")
        b = SQLQuery(sql="SELECT h AS id FROM t WHERE h = {handle}")
        ka = canonical_query(a).key_of({"id": "x"})
        kb = canonical_query(b).key_of({"handle": "x"})
        assert ka == kb

    def test_binding_keys_are_type_sensitive(self):
        # True == 1 == 1.0 in Python, but the wrappers render them
        # differently at the source — they must not share an entry.
        canon = canonical_query(SQLQuery(sql="SELECT c AS c FROM t WHERE c = {x}"))
        keys = {canon.key_of({"x": value}) for value in (True, 1, 1.0)}
        assert len(keys) == 3
        assert canon.key_of({"x": [1]}) != canon.key_of({"x": (1,)})

    def test_nested_container_bindings_are_cacheable(self):
        a = SQLQuery(sql="SELECT h AS id FROM t WHERE h = {id}")
        canon = canonical_query(a)
        key = canon.key_of({"id": [["nested"], {"k": "v"}]})
        assert key is not None
        assert key == canon.key_of({"id": [["nested"], {"k": "v"}]})

    def test_unhashable_binding_is_uncacheable(self):
        a = SQLQuery(sql="SELECT h AS id FROM t WHERE h = {id}")
        key = canonical_query(a).key_of({"id": bytearray(b"raw")})
        assert key is None

    @pytest.mark.parametrize("a,b", [
        (JSONQuery.from_text("{ user.screen_name: ?id }"),
         JSONQuery.from_text("{ user.screen_name: ?who }")),
        (FullTextQuery.create('text:"{who} said" user.screen_name:{id}',
                              {"id": "user.screen_name"}),
         FullTextQuery.create('text:"{who} said" user.screen_name:{who}',
                              {"who": "user.screen_name"})),
    ])
    def test_row_round_trip_through_renaming(self, a, b):
        rows = [("fhollande",)]
        stored = canonical_query(a).canonical_batches([BindingBatch(("id",), rows)])
        (served,) = canonical_query(b).original_batches(stored)
        assert served.dicts() == [{"who": "fhollande"}]
        # A renaming works on the header: the row list is shared.
        assert stored[0].rows is rows and served.rows is rows


# ---------------------------------------------------------------------------
# Result cache behaviour through the executor
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_warm_run_equals_cold_run(self, instance):
        cmq = sql_cmq(instance)
        reference = instance.execute(cmq, options=NO_CACHE)
        cold = instance.execute(cmq)
        warm = instance.execute(cmq)
        assert rows_of(cold) == rows_of(reference)
        assert rows_of(warm) == rows_of(reference)
        assert warm.trace.cache_hits > 0
        assert warm.trace.cache_misses == 0

    def test_trace_counters_on_cold_run(self, instance):
        cold = instance.execute(sql_cmq(instance))
        assert cold.trace.cache_misses > 0
        assert not cold.trace.plan_cached

    def test_renamed_cmq_shares_cache_entries(self, instance):
        instance.execute(sql_cmq(instance))  # populate
        renamed = (instance.builder("q2", head=["d", "r"])
                   .graph("SELECT ?d WHERE { ?y ttn:deptCode ?d }")
                   .sql("stats", source="sql://insee",
                        sql="SELECT dept_code AS dept, rate AS rate FROM unemployment "
                            "WHERE dept_code = {dept}",
                        renames={"dept": "d", "rate": "r"})
                   .build())
        warm = instance.execute(renamed)
        assert warm.trace.cache_misses == 0
        assert warm.trace.cache_hits > 0
        assert {row["d"] for row in warm.rows} == {"75", "62"}

    def test_bind_join_probe_serves_hits_without_dispatch(self, instance):
        cmq = sql_cmq(instance)
        instance.execute(cmq)
        warm = instance.execute(cmq)
        # The bind step never shipped: only the glue materialize call is
        # dispatched (and itself answered by the cache).
        assert len(warm.trace.calls) == 1
        assert warm.trace.calls[0].atom == "qG"

    def test_mutation_is_absorbed_without_poisoning_the_cache(self, instance):
        cmq = sql_cmq(instance)
        instance.execute(cmq)
        instance.source("sql://insee").database.execute(
            "INSERT INTO unemployment (dept_code, rate) VALUES ('99', 42.0)")
        after = instance.execute(cmq)
        # Glue entries still hit; the SQL entries went stale with the
        # version bump but were delta-repaired from the insert journal, so
        # they serve as hits too — and the fresh row is in the answer.
        assert after.trace.cache_hits > 0
        assert after.trace.cache_misses == 0
        assert instance.cache.repair.stats.repaired > 0
        assert {row["dept"] for row in after.rows} == {"75", "62", "99"}

    def test_fulltext_store_mutation_is_seen(self, instance):
        cmq = (instance.builder("ft", head=["id", "t"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .fulltext("tweets", source="solr://tweets",
                         query="user.screen_name:{id}",
                         fields={"t": "text", "id": "user.screen_name"})
               .build())
        before = instance.execute(cmq)
        instance.source("solr://tweets").store.add(
            {"id": 3, "text": "salut", "user": {"screen_name": "nobody"}})
        after = instance.execute(cmq)
        assert len(after.rows) == len(before.rows) + 1

    def test_json_store_mutation_is_seen(self, instance):
        cmq = (instance.builder("js", head=["id", "n"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .json("docs", source="json://docs",
                     pattern="{ user.screen_name: ?id, retweets: ?n }")
               .build())
        before = instance.execute(cmq)
        instance.source("json://docs").store.add(
            {"id": "3", "user": {"screen_name": "nobody"}, "retweets": 1})
        after = instance.execute(cmq)
        assert len(after.rows) == len(before.rows) + 1

    def test_rdf_graph_mutation_is_seen_even_at_equal_size(self, instance):
        cmq = (instance.builder("rq", head=["id", "f"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .rdf("followers", source="rdf://handles",
                    sparql_text="SELECT ?id ?f WHERE { ?u ttn:handle ?id . "
                                "?u ttn:followers ?f }")
               .build())
        before = instance.execute(cmq)
        source = instance.source("rdf://handles")
        source.graph.remove(triple("ttn:A2", "ttn:followers", 900_000))
        source.graph.add(triple("ttn:A2", "ttn:followers", 901_000))
        after = instance.execute(cmq)
        assert len(source.graph) == 4  # same size, different content
        assert rows_of(after) != rows_of(before)
        assert {row["f"] for row in after.rows} == {1_500_000, 901_000}

    def test_glue_update_invalidates_glue_entries(self, instance):
        cmq = sql_cmq(instance)
        instance.execute(cmq)
        instance.add_glue_triples([triple("ttn:U_new", "ttn:deptCode", "33")])
        after = instance.execute(cmq)
        assert {row["dept"] for row in after.rows} == {"75", "62", "33"}

    def test_cache_disabled_by_option(self, instance):
        cmq = sql_cmq(instance)
        instance.execute(cmq, options=NO_CACHE)
        again = instance.execute(cmq, options=NO_CACHE)
        assert again.trace.cache_hits == 0 and again.trace.cache_misses == 0

    def test_cache_disabled_on_instance(self):
        inst = MixedInstance(name="nocache", cache=False, entailment=False)
        assert inst.cache is None
        assert inst.cache_statistics() == {}

    def test_shared_cache_never_crosses_instances(self):
        """Two instances sharing one MediatorCache collide on the glue URI
        (both are '#glue') — the per-source identity token must keep
        their entries apart."""
        shared = MediatorCache()
        results = {}
        for name in ("alice", "bob"):
            glue = Graph(f"{name}-glue")
            glue.add(triple(f"ttn:{name}", "ttn:twitterAccount", name))
            inst = MixedInstance(graph=glue, name=name, entailment=False,
                                 cache=shared)
            cmq = (inst.builder("q", head=["id"])
                   .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
                   .build())
            results[name] = inst.execute(cmq)
        assert [row["id"] for row in results["alice"].rows] == ["alice"]
        assert [row["id"] for row in results["bob"].rows] == ["bob"]

    def test_clear_caches(self, instance):
        cmq = sql_cmq(instance)
        instance.execute(cmq)
        instance.clear_caches()
        cold = instance.execute(cmq)
        assert cold.trace.cache_hits == 0

    def test_equivalence_across_all_four_models(self, instance):
        queries = [
            sql_cmq(instance),
            (instance.builder("ft", head=["id", "t"])
             .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
             .fulltext("tweets", source="solr://tweets",
                       query="user.screen_name:{id}",
                       fields={"t": "text", "id": "user.screen_name"})
             .build()),
            (instance.builder("js", head=["id", "n"])
             .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
             .json("docs", source="json://docs",
                   pattern="{ user.screen_name: ?id, retweets: ?n }")
             .build()),
            (instance.builder("rq", head=["id", "f"])
             .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
             .rdf("followers", source="rdf://handles",
                  sparql_text="SELECT ?id ?f WHERE { ?u ttn:handle ?id . "
                              "?u ttn:followers ?f }")
             .build()),
        ]
        for cmq in queries:
            reference = instance.execute(cmq, options=NO_CACHE)
            cold = instance.execute(cmq)
            warm = instance.execute(cmq)
            assert rows_of(cold) == rows_of(reference)
            assert rows_of(warm) == rows_of(reference)
            assert warm.trace.cache_hits > 0


# ---------------------------------------------------------------------------
# CachedSource proxy
# ---------------------------------------------------------------------------

class TestCachedSource:
    def test_batch_ships_only_misses(self, instance):
        cache = MediatorCache()
        inner = instance.source("sql://insee")
        proxy = CachedSource(inner, cache.results)
        query = SQLQuery(sql="SELECT dept_code AS dept, rate AS rate "
                             "FROM unemployment WHERE dept_code = {dept}")
        proxy.execute(query, {"dept": "75"})

        shipped = []
        original = inner.execute_batch

        def spy(q, batch):
            shipped.append(list(batch))
            return original(q, batch)

        inner.execute_batch = spy
        try:
            results = list(map(dict_rows,
                               proxy.execute_batch(query, [{"dept": "75"}, {"dept": "62"}])))
        finally:
            inner.execute_batch = original
        assert len(shipped) == 1 and shipped[0] == [{"dept": "62"}]
        assert [len(r) for r in results] == [1, 1]

    def test_delegation(self):
        """Every read other than the cached ones is the wrapped source's:
        the statistics catalog, the digest, repair and the change log see
        the same answers through the layer as over the bare wrapper."""
        from repro.cache.repair import RepairEngine
        from repro.stats.catalog import StatisticsCatalog

        database = Database("db")
        database.create_table_from_rows("people", [
            {"id": i, "city": f"c{i % 5}"} for i in range(100)])
        inner = RelationalSource("sql://people", database)
        cache = SubQueryResultCache()
        layer = CachedSource(inner, cache, repair=RepairEngine(cache))
        assert layer.uri == inner.uri and layer.name == inner.name
        assert layer.model == "relational"
        assert layer.size() == inner.size() == 100
        assert layer.version() == inner.version()
        query = SQLQuery(sql="SELECT id AS id, city AS city FROM people "
                             "WHERE city = {city}")

        assert (StatisticsCatalog().estimate(layer, query, {"city"})
                == StatisticsCatalog().estimate(inner, query, {"city"}))
        assert layer.estimate(query, {"city"}) == inner.estimate(query, {"city"})
        assert (layer.derive_estimate(query, {"city"}, {})
                == inner.derive_estimate(query, {"city"}, {}))
        assert layer.digest() is inner.digest()
        assert layer.cache_token == inner.cache_token
        assert layer.cost_kind == inner.cost_kind == "relational"
        assert layer.accepts(query) and not layer.accepts(RDFQuery.from_text(
            "SELECT ?x WHERE { ?x ttn:p ?y }"))
        assert layer.journal() is inner.journal() is not None
        for name in {*DataSource.__annotations__, *vars(DataSource)}:
            if not name.startswith("__") and name not in ("pin", "execute", "execute_batch"):
                assert getattr(layer, name) == getattr(inner, name), name

        before = inner.version()
        database.execute("INSERT INTO people (id, city) VALUES (100, 'c1')")
        records = inner.deltas_since(before)
        assert records and layer.deltas_since(before) == records
        engine = RepairEngine(SubQueryResultCache())
        assert (layer.repair_delta(query, records, engine)
                == inner.repair_delta(query, records, engine))
        assert layer.repair_delta(query, records, engine) not in ("shape", None)

        pinned = layer.pin()
        assert isinstance(pinned, CachedSource)
        assert pinned.inner is inner.pin()
        assert pinned.pinned_at == inner.version()
        assert pinned.digest() is inner.pin().digest()


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------

class TestPlanCache:
    def test_second_plan_is_cached(self, instance):
        cmq = sql_cmq(instance)
        first = instance.plan(cmq)
        second = instance.plan(cmq)
        assert not first.cached
        assert second.cached
        assert "(cached plan)" in second.explain()
        assert [s.atom.name for s in second.steps] == [s.atom.name for s in first.steps]

    def test_a_write_keeps_the_plan_a_registration_or_feedback_misses(self, instance):
        cmq = sql_cmq(instance)
        first = instance.plan(cmq)
        source = instance.source("sql://insee")
        source.database.execute(
            "INSERT INTO unemployment (dept_code, rate) VALUES ('01', 5.0)")
        kept = instance.plan(cmq)
        assert kept.cached and kept.atom_order() == first.atom_order()
        # Statistics feedback bumps the revision: the next plan is fresh.
        step = first.steps[-1]
        assert instance.statistics().record(source, step.atom.query,
                                            set(step.bound_variables), 12345.0)
        assert not instance.plan(cmq).cached and instance.plan(cmq).cached
        # A new wrapper under the URI is another source.
        instance.register_relational("sql://insee", source.database)
        assert not instance.plan(cmq).cached and instance.plan(cmq).cached

    def test_a_plan_whose_estimates_drifted_is_retired(self, instance):
        """The drift guard of a plan that outlives writes: grow the source
        its first step reads past ``REPLAN_THRESHOLD`` x the step's
        estimate; the cached plan runs to the end, is retired and records
        the feedback, and the plan after it is built anew."""
        cmq = sql_cmq(instance)
        instance.execute(cmq)
        planned = instance.plan(cmq)
        first = planned.steps[0]
        assert planned.cached and first.atom.is_glue() and len(planned.steps) == 2
        grown = int(REPLAN_THRESHOLD * first.estimate) + 10
        instance.add_glue_triples(triple(f"ttn:U_n{i}", "ttn:deptCode", f"n{i}")
                                  for i in range(grown))
        revision = instance.statistics().revision
        result = instance.execute(cmq)
        assert result.trace.plan_cached and result.trace.plan_retired
        assert instance.statistics().revision > revision
        assert not instance.plan(cmq).cached

    def test_renamed_cmq_hits_and_is_rebound(self, instance):
        instance.plan(sql_cmq(instance))
        renamed = (instance.builder("other", head=["d", "r"])
                   .graph("SELECT ?d WHERE { ?y ttn:deptCode ?d }")
                   .sql("stats", source="sql://insee",
                        sql="SELECT dept_code AS dept, rate AS rate FROM unemployment "
                            "WHERE dept_code = {dept}",
                        renames={"dept": "d", "rate": "r"})
                   .build())
        plan = instance.planner().plan(renamed)
        assert plan.cached
        # The plan executes the *renamed* query's own atoms.
        assert plan.query is renamed
        assert all(step.atom in renamed.atoms for step in plan.steps)
        result = instance.executor().execute(renamed, plan=plan)
        assert {row["d"] for row in result.rows} == {"75", "62"}

    def test_different_options_plan_separately(self, instance):
        cmq = sql_cmq(instance)
        instance.plan(cmq)
        other = instance.plan(cmq, PlannerOptions(bind_batch_size=1))
        assert not other.cached

    def test_signature_is_renaming_invariant(self, instance):
        a = sql_cmq(instance, name="a")
        renamed = (instance.builder("b", head=["d", "r"])
                   .graph("SELECT ?d WHERE { ?y ttn:deptCode ?d }")
                   .sql("stats", source="sql://insee",
                        sql="SELECT dept_code AS dept, rate AS rate FROM unemployment "
                            "WHERE dept_code = {dept}",
                        renames={"dept": "d", "rate": "r"})
                   .build())
        assert cmq_signature(a) == cmq_signature(renamed)
        different = (instance.builder("c", head=["dept", "rate"])
                     .graph("SELECT ?dept WHERE { ?x ttn:twitterAccount ?dept }")
                     .sql("stats", source="sql://insee",
                          sql="SELECT dept_code AS dept, rate AS rate FROM unemployment "
                              "WHERE dept_code = {dept}")
                     .build())
        assert cmq_signature(a) != cmq_signature(different)


# ---------------------------------------------------------------------------
# The proxy's delegation, stale pointers and the canonical memo
# ---------------------------------------------------------------------------

def test_cached_source_delegates_cost_kind_trust_and_pin():
    """A remote source seen through the cache proxy keeps remote pricing."""
    database = Database("db")
    database.create_table_from_rows(
        "profiles", [{"handle": "u0", "followers": 100}])
    inner = MixedInstance(graph=Graph("g"), name="inner", entailment=False)
    wrapper = inner.register_relational("sql://profiles", database)
    remote = RemoteSource(LocalTransport(RemoteSourceHandler(wrapper).handle))
    proxy = CachedSource(remote, SubQueryResultCache())

    assert proxy.cost_kind == "remote"
    pinned = proxy.pin()
    assert isinstance(pinned, CachedSource)
    # A remote clone pins with its first use, not at ``pin()``.
    assert pinned.pinned_at is None
    assert pinned.version() == wrapper.version()
    assert pinned.pinned_at == pinned.inner.pinned_at == wrapper.version()
    assert pinned.cost_kind == "remote"
    assert pinned.cache is proxy.cache


def sql_probe_key(cache, wrapper, value):
    query = SQLQuery(sql="SELECT handle AS id, followers AS f FROM profiles "
                         "WHERE handle = {id}")
    canon = canonical_query(query)
    (key,) = cache.keys(wrapper, canon, [canon.key_of({"id": value})])
    assert key is not None
    return key, canon


def test_stale_pointers_are_evicted_per_entry():
    """An LRU eviction drops exactly its own entry's degraded read, nothing
    else, and a degraded read finds the probe's newest insert."""
    database = Database("db")
    database.create_table_from_rows(
        "profiles", [{"handle": h, "followers": 1} for h in HANDLES])
    inner = MixedInstance(graph=Graph("g"), name="inner", entailment=False)
    wrapper = inner.register_relational("sql://profiles", database)
    cache = SubQueryResultCache(max_entries=2)

    keys = [sql_probe_key(cache, wrapper, f"u{i}") for i in range(3)]
    for (key, canon), i in zip(keys, range(3)):
        cache.insert(key, 1, canon, [{"id": f"u{i}", "f": i}])
    key, canon = keys[2]
    cache.insert(key, 2, canon, [{"id": "u2", "f": 20}])

    # Entry 0 was evicted (capacity 2); the survivors still answer — no
    # wholesale flush — and u2's v2 insert replaced its v1 entry.
    query = SQLQuery(sql="SELECT handle AS id, followers AS f FROM profiles "
                         "WHERE handle = {id}")
    assert cache.fetch_stale(wrapper, query, {"id": "u0"}) is None
    assert dict_rows(cache.fetch_stale(wrapper, query, {"id": "u1"})) == [{"id": "u1", "f": 1}]
    assert dict_rows(cache.fetch_stale(wrapper, query, {"id": "u2"})) == [{"id": "u2", "f": 20}]
    assert len(cache) == 2


# ---------------------------------------------------------------------------
# One entry per probe: a write makes an entry stale in place
# ---------------------------------------------------------------------------

PROFILE = SQLQuery(sql="SELECT handle AS id, followers AS f FROM profiles "
                       "WHERE handle = {id}")


def _profiles(handles: list[str], repair: bool = True):
    database = Database("db")
    database.create_table_from_rows(
        "profiles", [{"handle": h, "followers": 0} for h in handles])
    inner = MixedInstance(graph=Graph("g"), name="inner", entailment=False)
    wrapper = inner.register_relational("sql://profiles", database)
    cache = SubQueryResultCache()
    engine = RepairEngine(cache) if repair else None
    proxy = CachedSource(wrapper, cache, stats=CacheStats(), repair=engine)
    return database.table("profiles"), wrapper, proxy


@pytest.mark.parametrize("repair", [True, False])
def test_writes_leave_one_entry_per_probe(repair):
    """50 one-row writes, each followed by the same 10 probes: the cache
    holds 10 entries (a version in the key left 500) and every answer is
    the source's at the probe's version."""
    handles = [f"u{i}" for i in range(10)]
    table, wrapper, proxy = _profiles(handles, repair)
    probes = [{"id": h} for h in handles]
    for write in range(1, 51):
        table.insert({"handle": handles[write % 10], "followers": write})
        answers = list(map(dict_rows, proxy.execute_batch(PROFILE, probes)))
        pinned = wrapper.pin()
        assert answers == [pinned.execute(PROFILE, probe) for probe in probes]
    assert len(proxy.cache) == 10
    if repair:
        assert proxy.repair.stats.repaired == 49 * 10


def test_each_probe_counts_once(monkeypatch):
    """A fresh or repaired probe is one hit, an unrepaired one is one miss,
    and a degraded read counts nothing."""
    table, wrapper, proxy = _profiles(HANDLES)
    stats, engine = proxy.cache.stats, proxy.repair

    def counts():
        local = proxy.local_stats
        assert (local.hits, local.misses) == (stats.hits, stats.misses)
        return stats.hits, stats.misses

    probe = [{"id": "u0"}]
    proxy.execute_batch(PROFILE, probe)
    assert counts() == (0, 1)
    proxy.execute_batch(PROFILE, probe)
    assert counts() == (1, 1)
    table.insert({"handle": "u0", "followers": 1})
    proxy.execute_batch(PROFILE, probe)
    assert counts() == (2, 1) and engine.stats.repaired == 1
    monkeypatch.setattr(engine, "MAX_DELTA_ITEMS", 0)
    table.insert({"handle": "u0", "followers": 2})
    proxy.execute_batch(PROFILE, probe)
    assert counts() == (2, 2) and engine.stats.fallbacks == {"delta_too_large": 1}
    assert dict_rows(proxy.cache.fetch_stale(wrapper, PROFILE, probe[0])) == [
        {"id": "u0", "f": f} for f in (0, 1, 2)]
    assert counts() == (2, 2)


def test_a_pin_older_than_the_entry_misses_and_reads_its_snapshot():
    """An entry stamped newer than the probe is neither a hit nor a
    repair base: the pinned probe reads its own snapshot."""
    table, wrapper, proxy = _profiles(HANDLES)
    probe = [{"id": "u0"}]
    pinned = proxy.pin()
    table.insert({"handle": "u0", "followers": 1})
    assert len(dict_rows(proxy.execute_batch(PROFILE, probe)[0])) == 2
    misses = proxy.cache.stats.misses
    assert dict_rows(pinned.execute_batch(PROFILE, probe)[0]) == [{"id": "u0", "f": 0}]
    assert proxy.cache.stats.misses == misses + 1
    assert proxy.repair.stats.attempts == 0
    # The older pin's answer did not replace the newer entry: a live
    # probe still hits it, with no repair.
    key, _ = sql_probe_key(proxy.cache, wrapper, "u0")
    assert proxy.cache.entries.peek(key)[0] == wrapper.version()
    hits = proxy.cache.stats.hits
    assert len(dict_rows(proxy.execute_batch(PROFILE, probe)[0])) == 2
    assert proxy.cache.stats.hits == hits + 1
    assert proxy.repair.stats.attempts == 0


def test_canonical_form_is_kept_on_the_query():
    query = SQLQuery(sql="SELECT a FROM hot WHERE a = {p}")
    canon = canonical_query(query)
    assert canon is not None and canonical_query(query) is canon is query.canonical
    # An equal query object derives its own form, under the same key.
    twin = SQLQuery(sql="SELECT a FROM hot WHERE a = {p}")
    assert canonical_query(twin) is not canon
    assert canonical_query(twin).key == canon.key


# ---------------------------------------------------------------------------
# The proxy's one fetch path: every miss ships in the caller's own call
# ---------------------------------------------------------------------------

def posts_by(variable: str) -> FullTextQuery:
    """The posts of one account, spelled with the caller's own names."""
    return FullTextQuery.create(
        f"user.screen_name:{{{variable}}}",
        {f"text_{variable}": "text", variable: "user.screen_name"})


class GatedPosts(DataSource):
    """A posts store behind a gate: a call records its bindings, then
    blocks until released — so a test decides who is in flight when.
    ``fail_first`` makes the first call raise once released."""

    def __init__(self, fail_first: bool = False):
        store = FullTextStore("posts", fields=[
            FieldConfig("text", "text"),
            FieldConfig("user.screen_name", "keyword"),
        ], default_field="text")
        for i in range(12):
            handle = HANDLES[i % len(HANDLES)]
            store.add({"id": i, "text": f"post {i} by {handle}",
                       "user": {"screen_name": handle}})
        self.inner = FullTextSource("solr://posts", store)
        super().__init__(self.inner.uri)
        self.model = self.inner.model
        self.fail_first = fail_first
        self.calls: list[list[dict]] = []
        self._lock = threading.Lock()
        self.gate = threading.Event()
        self.gate.set()

    def version(self):
        return 1

    def execute(self, query, bindings=None):
        return self.execute_batch(query, [bindings or {}])[0]

    def execute_batch(self, query, bindings_batch):
        with self._lock:
            self.calls.append([dict(b) for b in bindings_batch])
            first = len(self.calls) == 1
        assert self.gate.wait(5.0)
        if first and self.fail_first:
            raise RuntimeError("the source call died")
        return self.inner.execute_batch(query, bindings_batch)

    def expected(self, variable: str, handle: str) -> list[dict]:
        return self.inner.execute(posts_by(variable), {variable: handle})


def wait_for(condition, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert condition()


def test_a_probe_under_other_variable_names_hits_and_reads_in_its_own():
    source, cache = GatedPosts(), SubQueryResultCache()
    first = list(map(dict_rows, CachedSource(source, cache).execute_batch(
        posts_by("id"), [{"id": "u1"}])))
    second = CachedSource(source, cache).execute(posts_by("h"), {"h": "u1"})
    assert source.calls == [[{"id": "u1"}]]  # the second proxy hit
    assert first == [source.expected("id", "u1")]
    assert second == source.expected("h", "u1") != []
    assert cache.stats.hits == 1


def test_a_failed_fetch_caches_nothing_and_the_next_call_re_evaluates():
    source, cache = GatedPosts(fail_first=True), SubQueryResultCache()
    proxy = CachedSource(source, cache)
    with pytest.raises(RuntimeError, match="the source call died"):
        proxy.execute(posts_by("id"), {"id": "u1"})
    assert len(cache) == 0
    assert proxy.execute(posts_by("h"), {"h": "u1"}) == source.expected("h", "u1")
    assert source.calls == [[{"id": "u1"}], [{"h": "u1"}]]
    assert len(cache) == 1


def test_key_duplicated_inside_one_call_answers_every_position():
    source = GatedPosts()
    proxy = CachedSource(source, SubQueryResultCache())
    batch = [{"id": "u1"}, {"id": "u2"}, {"id": "u1"}]
    expected = [source.expected("id", handle) for handle in ("u1", "u2", "u1")]
    assert list(map(dict_rows, proxy.execute_batch(posts_by("id"), batch))) == expected
    assert len(source.calls) == 1  # every miss went into one call
    assert len(proxy.cache) == 2
    # The repeat is served wholly from the cache.
    assert list(map(dict_rows, proxy.execute_batch(posts_by("id"), batch))) == expected
    assert len(source.calls) == 1


def test_concurrent_misses_of_one_probe_each_ship_their_own_call():
    """No proxy waits on another's in-flight call: two callers that miss
    the same probe at once both ship it, each reads its own names, and
    the cache keeps one entry."""
    source, cache = GatedPosts(), SubQueryResultCache()
    source.gate.clear()
    outcome: dict[str, object] = {}

    def ask(name: str, variable: str) -> None:
        outcome[name] = CachedSource(source, cache).execute(
            posts_by(variable), {variable: "u1"})

    threads = [threading.Thread(target=ask, args=("first", "id")),
               threading.Thread(target=ask, args=("second", "h"))]
    for thread in threads:
        thread.start()
    wait_for(lambda: len(source.calls) == 2)
    source.gate.set()
    for thread in threads:
        thread.join(10.0)
        assert not thread.is_alive()
    assert sorted(source.calls, key=str) == [[{"h": "u1"}], [{"id": "u1"}]]
    assert outcome == {"first": source.expected("id", "u1"),
                       "second": source.expected("h", "u1")}
    assert len(cache) == 1
