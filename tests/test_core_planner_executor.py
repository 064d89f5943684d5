"""Unit tests for the mixed-query planner and executor over a small instance."""

import math
import threading
from collections import Counter

import pytest

from repro.core import CMQBuilder, MixedInstance, PlannerOptions
from repro.fulltext.source import FullTextSource
from repro.json.source import JSONSource
from repro.rdf.source import RDFSource
from repro.relational.source import RelationalSource, SQLQuery
from repro.datasets import (
    DemoConfig,
    build_demo_instance,
    fact_checking_query,
    party_vocabulary_query,
    qsia_json_query,
    qsia_query,
)
from repro.errors import PlanningError, QueryCancelledError, UnknownSourceError
from repro.obs.metrics import reset_registry
from repro.relational import Database
from repro.stats.cost import BIND_BINDING_SHARE, CostModel


@pytest.fixture
def instance(politics_graph, small_database, small_tweet_store):
    inst = MixedInstance(graph=politics_graph, name="mini")
    inst.register_relational("sql://insee", small_database)
    inst.register_fulltext("solr://tweets", small_tweet_store)
    return inst


@pytest.fixture
def qsia(instance):
    return (instance.builder("qSIA", head=["t", "id"])
            .graph("SELECT ?id WHERE { ?x ttn:position ttn:headOfState . "
                   "?x ttn:twitterAccount ?id }")
            .fulltext("tweetContains", source="solr://tweets",
                      query="entities.hashtags:sia2016",
                      fields={"t": "text", "id": "user.screen_name"})
            .build())


class TestPlanner:
    def test_plan_orders_selective_glue_first(self, instance, qsia):
        plan = instance.plan(qsia)
        assert plan.atom_order() == ["qG", "tweetContains"]
        assert plan.steps[0].mode == "materialize"
        assert plan.steps[1].mode == "bind"

    def test_plan_without_bind_joins_materialises_everything(self, instance, qsia):
        plan = instance.plan(qsia, PlannerOptions(cost_based=False))
        assert all(step.mode == "materialize" for step in plan.steps)

    def test_syntactic_order_preserved_when_requested(self, instance):
        cmq = (instance.builder("q", head=["t"])
               .fulltext("tweets", source="solr://tweets", query="*:*",
                         fields={"t": "text", "id": "user.screen_name"})
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .build())
        plan = instance.plan(cmq, PlannerOptions(cost_based=False))
        assert plan.atom_order() == ["tweets", "qG"]
        reordered = instance.plan(cmq)
        assert reordered.atom_order() == ["qG", "tweets"]

    def test_dependency_forces_order(self, instance):
        cmq = (instance.builder("q", head=["rate"])
               .sql("stats", source="sql://insee",
                    sql="SELECT rate AS rate FROM unemployment WHERE dept_code = {dept}")
               .graph("SELECT ?dept WHERE { ?x ttn:memberOf ?party . "
                      "?x ttn:twitterAccount ?dept }")
               .build())
        plan = instance.plan(cmq)
        assert plan.atom_order()[0] == "qG"
        assert plan.steps[1].mode == "bind"

    def test_unsatisfiable_dependency_raises(self, instance):
        cmq = (instance.builder("q", head=["rate"])
               .sql("stats", source="sql://insee",
                    sql="SELECT rate AS rate FROM unemployment WHERE dept_code = {nowhere}")
               .build())
        with pytest.raises(PlanningError):
            instance.plan(cmq)

    def test_unknown_source_uri_raises(self, instance):
        cmq = (instance.builder("q", head=["t"])
               .fulltext("tweets", source="solr://unknown", query="*:*", fields={"t": "text"})
               .build())
        with pytest.raises(PlanningError):
            instance.plan(cmq)

    def test_model_mismatch_raises(self, instance):
        cmq = (instance.builder("q", head=["t"])
               .fulltext("tweets", source="sql://insee", query="*:*", fields={"t": "text"})
               .build())
        with pytest.raises(PlanningError):
            instance.plan(cmq)

    def test_parallel_stage_groups_independent_atoms(self, instance):
        cmq = (instance.builder("q", head=["name", "t"])
               .sql("depts", source="sql://insee",
                    sql="SELECT name AS name FROM departments")
               .fulltext("tweets", source="solr://tweets", query="entities.hashtags:sia2016",
                         fields={"t": "text"})
               .build())
        plan = instance.plan(cmq)
        assert len(plan.stages) == 1 and len(plan.stages[0]) == 2
        reference = instance.plan(cmq, PlannerOptions(cost_based=False))
        assert len(reference.stages) == 2

    def test_explain_mentions_every_atom(self, instance, qsia):
        text = instance.plan(qsia).explain()
        assert "qG" in text and "tweetContains" in text

    def test_dynamic_step_describe_shows_source_variable(self, instance):
        cmq = (instance.builder("q", head=["rate", "src"])
               .graph("SELECT ?src WHERE { ?x ttn:position ttn:headOfState . "
                      "?x ttn:statsEndpoint ?src }")
               .sql("stats", source_variable="src",
                    sql="SELECT rate AS rate FROM unemployment")
               .build())
        plan = instance.plan(cmq)
        step = next(s for s in plan.steps if s.dynamic)
        description = step.describe()
        assert "?src" in description
        assert "?dynamic" not in description
        # Static steps keep showing their resolved source URI.
        glue_step = next(s for s in plan.steps if not s.dynamic)
        assert "#glue" in glue_step.describe()


class TestExecutor:
    def test_qsia_end_to_end(self, instance, qsia):
        result = instance.execute(qsia)
        assert result.variables == ["t", "id"]
        assert len(result) == 1
        assert result.rows[0]["id"] == "fhollande"

    def test_trace_records_calls_and_order(self, instance, qsia):
        result = instance.execute(qsia)
        trace = result.trace
        assert trace.atom_order == ["qG", "tweetContains"]
        assert trace.calls_to("solr://tweets") == 1
        assert trace.calls_to("#glue") == 1
        assert trace.total_seconds > 0

    def test_same_answers_with_and_without_bind_joins(self, instance, qsia):
        fast = instance.execute(qsia)
        naive = instance.execute(qsia, options=PlannerOptions(cost_based=False))
        assert sorted(map(str, fast.rows)) == sorted(map(str, naive.rows))

    def test_unrelated_atoms_cross_product(self, instance):
        cmq = (instance.builder("q", head=["id", "rate"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id . "
                      "?x ttn:position ttn:headOfState . ?x ttn:memberOf ?party }")
               .sql("stats", source="sql://insee",
                    sql="SELECT dept_code AS dept2, rate AS rate FROM unemployment")
               .build())
        # No shared variable here: the SQL atom materialises fully.
        result = instance.execute(cmq)
        assert len(result) == 4  # cross product of 1 politician x 4 rates

    def test_join_on_shared_variable(self, instance):
        cmq = (instance.builder("q", head=["id", "t"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .fulltext("tweets", source="solr://tweets", query="*:*",
                         fields={"t": "text", "id": "user.screen_name"})
               .build())
        result = instance.execute(cmq)
        assert len(result) == 3
        assert {row["id"] for row in result} == {"fhollande", "mlepen"}

    def test_limit_and_distinct(self, instance):
        cmq = (instance.builder("q", head=["id"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .fulltext("tweets", source="solr://tweets", query="*:*",
                         fields={"t": "text", "id": "user.screen_name"})
               .build())
        assert len(instance.execute(cmq)) == 2  # distinct accounts
        assert len(instance.execute(cmq, limit=1)) == 1
        assert len(instance.execute(cmq, distinct=False)) == 3

    def test_dynamic_source_from_binding(self, instance, politics_graph):
        from repro.rdf import triple

        politics_graph.add(triple("ttn:POL1", "ttn:statsEndpoint", "sql://insee"))
        instance.add_glue_triples([])
        cmq = (instance.builder("q", head=["rate", "src"])
               .graph("SELECT ?src WHERE { ?x ttn:position ttn:headOfState . "
                      "?x ttn:statsEndpoint ?src }")
               .sql("stats", source_variable="src",
                    sql="SELECT rate AS rate FROM unemployment WHERE year = 2015")
               .build())
        result = instance.execute(cmq)
        assert len(result) == 3
        assert set(result.column("src")) == {"sql://insee"}

    def test_dynamic_source_unknown_uri_raises(self, instance, politics_graph):
        from repro.rdf import triple

        politics_graph.add(triple("ttn:POL1", "ttn:statsEndpoint", "sql://missing"))
        instance.add_glue_triples([])
        cmq = (instance.builder("q", head=["rate"])
               .graph("SELECT ?src WHERE { ?x ttn:statsEndpoint ?src }")
               .sql("stats", source_variable="src",
                    sql="SELECT rate AS rate FROM unemployment")
               .build())
        with pytest.raises(UnknownSourceError):
            instance.execute(cmq)

    def test_free_source_variable_fans_out_to_accepting_sources(self, instance):
        cmq = (instance.builder("q", head=["t", "d"])
               .fulltext("anytweets", source_variable="d", query="entities.hashtags:sia2016",
                         fields={"t": "text"})
               .build())
        result = instance.execute(cmq)
        assert len(result) == 1
        assert result.rows[0]["d"] == "solr://tweets"

    def test_materialize_stage_dispatches_its_calls_as_one_flat_batch(
            self, instance, small_tweet_store, monkeypatch):
        """Three materialize steps in one stage, one of them fanning out
        to two full-text sources: four source calls, one ``run_calls``
        batch, recorded in step order then source order."""
        import repro.core.executor as executor_module

        instance.register_fulltext("solr://archive", small_tweet_store)
        cmq = (instance.builder("q", head=["id", "t", "d", "rate"])
               .fulltext("anytweets", source_variable="d",
                         query="entities.hashtags:sia2016",
                         fields={"t": "text", "id": "user.screen_name"})
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .sql("stats", source="sql://insee",
                    sql="SELECT rate AS rate FROM unemployment WHERE year = 2015")
               .build())
        batches = []
        run_calls = executor_module.run_calls

        def recording(calls, **kwargs):
            batches.append(len(calls))
            return run_calls(calls, **kwargs)

        monkeypatch.setattr(executor_module, "run_calls", recording)
        # The reference plan materialises every atom in body order; run
        # its three steps as one stage.
        plan = instance.plan(cmq, PlannerOptions(cost_based=False))
        plan.stages = [[0, 1, 2]]
        result = instance.pin().executor(instance).execute(cmq, plan=plan)
        assert batches == [4]
        assert result.trace.stages == [["anytweets", "qG", "stats"]]
        assert [(c.atom, c.source_uri) for c in result.trace.calls] == [
            ("anytweets", "solr://tweets"), ("anytweets", "solr://archive"),
            ("qG", "#glue"), ("stats", "sql://insee")]
        assert set(result.column("d")) == {"solr://tweets", "solr://archive"}

    def test_every_call_records_the_bindings_it_carried(self, instance, qsia):
        trace = instance.execute(qsia).trace
        materialize, bind = trace.calls
        assert (materialize.atom, materialize.bindings_in, materialize.batched) == (
            "qG", 1, False)
        assert (bind.atom, bind.bindings_in, bind.batched) == (
            "tweetContains", 1, True)
        assert [(s.mode, s.bindings) for s in trace.steps] == [
            ("materialize", 1), ("bind", 1)]

    def test_sources_are_reached_from_one_method_only(self):
        """One dispatcher: a second route to ``atom.execute_batch_on`` or a
        second ``SubQueryCall`` site is a fork."""
        import ast
        import inspect

        import repro.core.executor as executor_module

        tree = ast.parse(inspect.getsource(executor_module))
        cls = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                   and node.name == "MixedQueryExecutor")
        reaching, recording = set(), 0
        for method in cls.body:
            for node in ast.walk(method):
                if (isinstance(node, ast.Attribute)
                        and node.attr == "execute_batch_on"):
                    reaching.add(method.name)
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "SubQueryCall"):
                    recording += 1
        assert reaching == {"_dispatch"}
        assert recording == 1

    def test_batch_size_one_is_priced_as_a_call_per_binding(self, instance, qsia):
        default = instance.plan(qsia).steps[1]
        assert default.mode == "bind" and default.batch_size > 1
        model = instance.statistics().cost_model
        batched = model.bind_cost(["fulltext"], 100, 1.0, default.batch_size)
        per_binding = model.bind_cost(["fulltext"], 100, 1.0, 1)
        setup = model.costs_for("fulltext").call_setup
        priced = math.ceil(100 * BIND_BINDING_SHARE)
        assert per_binding - batched == pytest.approx((priced - 1) * setup)

    @pytest.mark.parametrize("models, bindings, per_binding, batch, price", [
        (("rdf",), 100, 1.0, 64, 4.25),
        (("relational",), 10, 0.5, 16, 2.0975),
        (("fulltext",), 1000, 3.0, 128, 112.5),
        (("json",), 7, 2.0, 1, 9.1785),
        (("fulltext", "fulltext"), 40, 0.25, 16, 20.825),
        (("remote",), 500, 10.0, 1024, 235.0),
        (("custom",), 3, 1.0, 2, 6.072),
        (("rdf",), 0, 5.0, 16, 1.0),
        (("relational",), float("inf"), 1.0, 16, float("inf")),
        ((), 10, 1.0, 16, float("inf")),
    ])
    def test_bind_cost_keeps_its_calibrated_prices(self, models, bindings,
                                                   per_binding, batch, price):
        """The bind-join prices every plan was chosen by, pinned: a bind
        join is priced on three quarters of its input bindings."""
        assert CostModel().bind_cost(models, bindings, per_binding, batch) \
            == pytest.approx(price)

    def test_result_helpers(self, instance, qsia):
        result = instance.execute(qsia)
        assert result.column("id") == ["fhollande"]
        assert "fhollande" in result.to_table()
        assert len(result.sorted_by("id").rows) == len(result.rows)


class TestCancellation:
    def test_cancel_lands_between_two_bind_stages(self, politics_graph):
        """Bind stages dispatch lazily, as the last operator pulls rows:
        a cancel requested while the first bind stage ships stops the
        query before the next bind stage ships anything."""
        cancelled = []
        shipped: dict[str, int] = {}

        class Spy(RelationalSource):
            def execute_batch(self, query, batch):
                shipped[self.uri] = shipped.get(self.uri, 0) + 1
                cancelled.append(True)
                return super().execute_batch(query, batch)

        handles = ["fhollande", "mlepen", "nsarkozy", "jlmelenchon", "ejoly"]
        profiles = Database("profiles-db")
        profiles.create_table_from_rows(
            "profiles", [{"handle": h, "team": f"T{i % 2}"}
                         for i, h in enumerate(handles)])
        teams = Database("teams-db")
        teams.create_table_from_rows(
            "teams", [{"name": "T0", "city": "Paris"}, {"name": "T1", "city": "Lyon"}])
        inst = MixedInstance(graph=politics_graph, name="cancel")
        inst.register(Spy("sql://profiles", profiles))
        inst.register(Spy("sql://teams", teams))
        cmq = (inst.builder("q", head=["id", "city"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .sql("profile", source="sql://profiles",
                    sql="SELECT handle AS id, team AS team FROM profiles "
                        "WHERE handle = {id}")
               .sql("team", source="sql://teams",
                    sql="SELECT name AS team, city AS city FROM teams "
                        "WHERE name = {team}")
               .build())
        options = PlannerOptions(result_cache=False)
        plan = inst.plan(cmq, options)
        assert [(step.atom.name, step.mode) for step in plan.steps] == [
            ("qG", "materialize"), ("profile", "bind"), ("team", "bind")]
        assert len(inst.execute(cmq, options=options)) > 0
        shipped.clear()
        cancelled.clear()

        def cancel_check():
            if cancelled:
                raise QueryCancelledError("cancelled mid-query")

        executor = inst.pin().executor(inst, options)
        with pytest.raises(QueryCancelledError):
            executor.execute(cmq, cancel_check=cancel_check)
        assert shipped == {"sql://profiles": 1}


class TestInstanceRegistry:
    def test_size_summary(self, instance):
        stats = instance.size_summary()
        assert stats["glue_triples"] > 0
        assert set(stats["sources"]) == {"sql://insee", "solr://tweets"}

    def test_statistics_accessor_is_shared(self, instance):
        from repro.core import StatisticsCatalog

        stats = instance.statistics()
        assert isinstance(stats, StatisticsCatalog)
        assert instance.statistics() is stats
        assert instance.pin().executor(instance).planner.statistics is stats

    def test_source_lookup(self, instance):
        assert instance.source("sql://insee").model == "relational"
        assert instance.source("#glue").model == "rdf"
        with pytest.raises(UnknownSourceError):
            instance.source("sql://absent")

    def test_accepting_sources(self, instance):
        from repro.fulltext.source import FullTextQuery

        q = FullTextQuery.create("*:*", {"t": "text"})
        assert [s.uri for s in instance.accepting_sources(q)] == ["solr://tweets"]

    def test_has_source(self, instance):
        assert instance.has_source("solr://tweets")
        assert not instance.has_source("solr://facebook")


class TestOneCallShape:
    """Every source call is one ``execute_batch``: a materialize step ships
    the batch of one empty binding, a bind step its flush."""

    WRAPPERS = (RDFSource, RelationalSource, FullTextSource, JSONSource)

    @pytest.fixture(scope="class")
    def demo(self):
        return build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42))

    @staticmethod
    def one_cmq_per_class(demo) -> list:
        """qsia, dynamic, qsia_json, party and factcheck: the stream's classes."""
        dynamic = demo.instance.parse(
            'qSIA(t, id) :- qG(id), tweetContains(t, id, "sia2016")[dSolr]')
        return [qsia_query(demo), dynamic, qsia_json_query(demo),
                party_vocabulary_query(demo, "emploi"), fact_checking_query(demo)]

    def entries(self, monkeypatch) -> list[tuple[str, str]]:
        """``(source uri, method)`` of every outermost wrapper entry."""
        seen: list[tuple[str, str]] = []
        local = threading.local()
        for cls in self.WRAPPERS:
            for name in ("execute", "execute_batch"):
                def spy(source, *args, _original=cls.__dict__[name], _name=name, **kwargs):
                    depth = getattr(local, "depth", 0)
                    if depth == 0:
                        seen.append((source.uri, _name))
                    local.depth = depth + 1
                    try:
                        return _original(source, *args, **kwargs)
                    finally:
                        local.depth = depth
                monkeypatch.setattr(cls, name, spy)
        return seen

    @pytest.mark.parametrize("result_cache", [False, True])
    def test_the_mediator_enters_a_wrapper_once_per_call_through_execute_batch(
            self, demo, monkeypatch, result_cache):
        entries = self.entries(monkeypatch)
        registry = reset_registry()
        try:
            demo.instance.clear_caches()
            options = PlannerOptions(result_cache=result_cache)
            calls: Counter = Counter()
            for cmq in self.one_cmq_per_class(demo):
                result = demo.instance.execute(cmq, options=options)
                assert result.rows, cmq.name
                modes = {call.batched for call in result.trace.calls}
                assert modes == {False, True}, cmq.name  # both step kinds ran
                calls.update(call.source_uri for call in result.trace.calls)
            assert {name for _, name in entries} == {"execute_batch"}
            entered = Counter(uri for uri, _ in entries)
            if result_cache:
                assert entered <= calls  # a call answered from the cache enters nothing
            else:
                assert entered == calls
            counted = {uri: registry.value("source_calls_total", source=uri)
                       for uri in demo.instance.source_uris() + ["#glue"]}
            assert counted == {uri: (entered[uri] or None) for uri in counted}
        finally:
            reset_registry()

    def test_a_direct_execute_counts_one_call(self):
        database = Database("db")
        database.create_table_from_rows("t", [{"k": 1}, {"k": 2}])
        source = RelationalSource("sql://t", database)
        registry = reset_registry()
        try:
            rows = source.execute(SQLQuery("SELECT k AS k FROM t WHERE k = {k}"), {"k": 2})
            assert rows == [{"k": 2}]
            assert registry.value("source_calls_total", source="sql://t") == 1
            assert registry.value("source_bindings_total", source="sql://t") == 1
            assert registry.value("source_rows_total", source="sql://t") == 1
        finally:
            reset_registry()
