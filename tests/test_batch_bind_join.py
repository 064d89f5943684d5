"""Batched bind joins: wrapper batching and equivalence.

The equivalence harness at the bottom proves, for every source model,
that the batched engine returns exactly the per-binding engine's rows
while issuing strictly fewer ``SubQueryCall``s.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import CMQBuilder, MixedInstance, PlannerOptions
from repro.stats.cost import DEFAULT_COST_MODEL, MAX_BIND_BATCH, MIN_BIND_BATCH
from repro.fulltext.source import FullTextQuery
from repro.json.source import JSONQuery
from repro.rdf.source import RDFQuery
from repro.relational.source import SQLQuery
from repro.engine.batch import dict_rows
from repro.errors import RelationalError
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json import JSONDocumentStore
from repro.rdf import Graph, triple
from repro.relational import Database, InList


#: The classical bind join: one source call per distinct binding.  The
#: planner prices a call per binding truthfully and may rather materialize
#: an atom, so the equivalence tests below bind through a parameter.
PER_BINDING = PlannerOptions(bind_batch_size=1)


@pytest.fixture
def json_store(small_tweet_store):
    store = JSONDocumentStore("mini_tweets_json")
    for document in small_tweet_store.documents():
        store.add(document.fields)
    return store


@pytest.fixture
def instance(politics_graph, small_database, small_tweet_store, json_store):
    inst = MixedInstance(graph=politics_graph, name="mini")
    inst.register_relational("sql://insee", small_database)
    inst.register_fulltext("solr://tweets", small_tweet_store)
    inst.register_json("json://tweets", json_store)
    rdf_graph = Graph("handles")
    for handle, followers in [("fhollande", 1_500_000), ("mlepen", 900_000),
                              ("nobody", 3)]:
        rdf_graph.add(triple(f"ttn:U_{handle}", "ttn:handle", handle))
        rdf_graph.add(triple(f"ttn:U_{handle}", "ttn:followers", followers))
    inst.register_rdf("rdf://handles", rdf_graph)
    return inst


def assert_equivalent(instance, cmq, per_binding=PER_BINDING):
    """Run batched vs per-binding and assert identical result sets.

    Each run starts on cold caches: a warm result cache answers bindings
    before they ship, which would hide the calls the tests count.
    """
    instance.clear_caches()
    batched = instance.execute(cmq)
    instance.clear_caches()
    reference = instance.execute(cmq, options=per_binding)
    assert sorted(map(str, batched.rows)) == sorted(map(str, reference.rows))
    return batched, reference


def _spy_statements(source, action) -> list:
    """The statements ``action`` makes ``source``'s database execute."""
    statements = []
    original = source.database.execute_select

    def spy(statement):
        statements.append(statement)
        return original(statement)

    source.database.execute_select = spy
    try:
        action()
    finally:
        del source.database.execute_select
    return statements


# ---------------------------------------------------------------------------
# Wrapper-level execute_batch
# ---------------------------------------------------------------------------

class TestExecuteBatch:
    def assert_batch_matches_loop(self, source, query, batch):
        reference = [source.execute(query, bindings) for bindings in batch]
        batched = list(map(dict_rows, source.execute_batch(query, batch)))
        assert len(batched) == len(batch)
        for expected, got in zip(reference, batched):
            assert sorted(map(str, expected)) == sorted(map(str, got))

    def test_relational_without_placeholders(self, instance):
        source = instance.source("sql://insee")
        query = SQLQuery(sql="SELECT dept_code AS dept, rate AS rate FROM unemployment")
        batch = [{"dept": "75"}, {"dept": "33"}, {"dept": "nowhere"}, {}]
        self.assert_batch_matches_loop(source, query, batch)

    def test_relational_in_list_rewrite(self, instance):
        source = instance.source("sql://insee")
        query = SQLQuery(sql="SELECT dept_code AS dept, rate AS rate "
                             "FROM unemployment WHERE dept_code = {dept}")
        batch = [{"dept": "75"}, {"dept": "33"}, {"dept": "29"}, {"dept": "nope"}]
        self.assert_batch_matches_loop(source, query, batch)
        # The rewrite really runs an IN-list statement: one answers all.
        statements = _spy_statements(source, lambda: source.execute_batch(query, batch))
        assert len(statements) == 1
        assert isinstance(statements[0].where, InList)
        assert sorted(v.value for v in statements[0].where.values) \
            == ["29", "33", "75", "nope"]

    def test_relational_fallback_placeholder(self, instance):
        source = instance.source("sql://insee")
        query = SQLQuery(sql="SELECT name AS name FROM departments "
                             "WHERE population > {minpop}")
        batch = [{"minpop": 0}, {"minpop": 1_000_000}, {"minpop": 10 ** 10}]
        self.assert_batch_matches_loop(source, query, batch)

    def test_relational_or_context_disables_in_rewrite(self, instance):
        # A placeholder equality under OR is not a necessary condition on
        # the rows; the IN rewrite + echo attribution would drop the
        # disjunct's rows, so the wrapper must fall back.
        source = instance.source("sql://insee")
        query = SQLQuery(sql="SELECT dept_code AS dept, rate AS rate "
                             "FROM unemployment WHERE dept_code = {dept} "
                             "OR rate > 9.0")
        batch = [{"dept": "75"}, {"dept": "zz"}]
        self.assert_batch_matches_loop(source, query, batch)
        assert dict_rows(source.execute_batch(query, batch)[1])  # the OR branch's rows
        assert len(_spy_statements(
            source, lambda: source.execute_batch(query, batch))) == 2

    def test_relational_or_beside_top_level_equality_is_rewritten(self, instance):
        # The equality is a top-level conjunct: necessary for every row,
        # whatever the parenthesised OR beside it lets through.
        source = instance.source("sql://insee")
        query = SQLQuery(sql="SELECT dept_code AS dept, rate AS rate "
                             "FROM unemployment WHERE dept_code = {dept} "
                             "AND (rate > 9.0 OR year = 2014)")
        batch = [{"dept": "75"}, {"dept": "33"}, {"dept": "29"}, {"dept": "zz"}]
        self.assert_batch_matches_loop(source, query, batch)
        assert [len(rows) for rows in map(dict_rows, source.execute_batch(query, batch))] == \
            [1, 1, 0, 0]
        statements = _spy_statements(source, lambda: source.execute_batch(query, batch))
        assert len(statements) == 1
        assert isinstance(statements[0].where.left, InList)

    @pytest.mark.parametrize("sql", [
        # The equality sits in a JOIN's ON: not a condition on the rows.
        "SELECT u.dept_code AS dept, d.name AS name FROM unemployment u "
        "LEFT JOIN departments d ON d.code = {dept}",
        # One group / one aggregate per binding, not one over the IN list.
        "SELECT dept_code AS dept, COUNT(*) AS n FROM unemployment "
        "WHERE dept_code = {dept} GROUP BY dept_code",
        "SELECT MAX(rate) AS top FROM unemployment WHERE dept_code = {dept}",
    ])
    def test_relational_shapes_never_rewritten(self, instance, sql):
        source = instance.source("sql://insee")
        query = SQLQuery(sql=sql)
        batch = [{"dept": "75"}, {"dept": "33"}, {"dept": "75"}]
        self.assert_batch_matches_loop(source, query, batch)
        statements = _spy_statements(source, lambda: source.execute_batch(query, batch))
        assert len(statements) == 2  # one per distinct binding
        assert not any(isinstance(node, InList) for statement in statements
                       for clause in (statement.where,
                                      *(j.condition for j in statement.joins))
                       if clause is not None for node in clause.walk())

    def test_relational_fallback_groups_by_type_tagged_values(self, instance):
        # 1, True and 1.0 are equal and hash alike, "1" prints alike: each
        # is still its own statement, as each is its own cache entry.
        source = instance.source("sql://insee")
        query = SQLQuery(sql="SELECT name AS name FROM departments "
                             "WHERE NOT (population = {p})")
        batch = [{"p": 1}, {"p": True}, {"p": 1.0}, {"p": "1"}, {"p": 1}, {"p": None}]
        self.assert_batch_matches_loop(source, query, batch)
        statements = _spy_statements(source, lambda: source.execute_batch(query, batch))
        shipped = [statement.where.operand.right.value for statement in statements]
        assert [(type(v), v) for v in shipped] == [
            (int, 1), (bool, True), (float, 1.0), (str, "1"), (type(None), None)]

    def test_relational_not_context_disables_in_rewrite(self, instance):
        source = instance.source("sql://insee")
        query = SQLQuery(sql="SELECT dept_code AS dept, rate AS rate "
                             "FROM unemployment WHERE NOT (dept_code = {dept})")
        batch = [{"dept": "75"}, {"dept": "33"}]
        self.assert_batch_matches_loop(source, query, batch)
        assert len(_spy_statements(
            source, lambda: source.execute_batch(query, batch))) == 2

    def test_relational_limit_disables_in_rewrite(self, instance):
        # A shared LIMIT over the IN-list would starve later bindings;
        # the wrapper must fall back to per-statement execution.
        source = instance.source("sql://insee")
        query = SQLQuery(sql="SELECT dept_code AS dept, rate AS rate "
                             "FROM unemployment WHERE dept_code = {dept} LIMIT 1")
        batch = [{"dept": "75"}, {"dept": "33"}, {"dept": "29"}]
        self.assert_batch_matches_loop(source, query, batch)
        for rows in list(map(dict_rows, source.execute_batch(query, batch))):
            assert len(rows) == 1
        assert len(_spy_statements(
            source, lambda: source.execute_batch(query, batch))) == 3

    @given(select=st.sampled_from(["dept_code AS dept", "u.dept_code AS dept",
                                   "dept_code", "rate AS dept"]),
           compared=st.sampled_from(["dept_code", "u.dept_code"]),
           shape=st.sampled_from([
               "{eq}", "{eq} AND (rate > 8.0 OR year = 2014)", "year = 2015 AND {eq}",
               "{eq} OR rate > 9.0", "NOT ({eq})", "{eq} AND rate > {dept}"]),
           tail=st.sampled_from(["", " ORDER BY rate", " LIMIT 1"]),
           distinct=st.booleans(),
           values=st.lists(st.sampled_from(
               ["75", "33", "29", "zz", 75, 8.6, 1, True, 1.0, "1", None]),
               min_size=2, max_size=6),
           rate=st.sampled_from([None, 8.2, 9.4, 1]))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_relational_batch_equals_the_loop(self, small_database, select, compared,
                                              shape, tail, distinct, values, rate):
        from repro.relational.source import RelationalSource

        source = RelationalSource("sql://diff", small_database)
        where = shape.replace("{eq}", compared + " = {dept}")
        query = SQLQuery(sql=f"SELECT {'DISTINCT ' if distinct else ''}{select}, "
                             f"rate AS rate FROM unemployment u WHERE {where}{tail}")
        batch = [{"dept": v} if rate is None else {"dept": v, "rate": rate}
                 for v in values]
        try:
            reference = [source.execute(query, b) for b in batch]
        except RelationalError:  # rate > '75': the engine refuses, batched or not
            with pytest.raises(RelationalError):
                source.execute_batch(query, batch)
            return
        assert list(map(dict_rows, source.execute_batch(query, batch))) == reference

    def test_fulltext_without_placeholders(self, instance):
        source = instance.source("solr://tweets")
        query = FullTextQuery.create("*:*", {"t": "text", "id": "user.screen_name"})
        batch = [{"id": "fhollande"}, {"id": "mlepen"}, {"id": "missing"}, {}]
        self.assert_batch_matches_loop(source, query, batch)

    def test_fulltext_disjunctive_rewrite(self, instance):
        source = instance.source("solr://tweets")
        query = FullTextQuery.create("user.screen_name:{id}",
                                     {"t": "text", "id": "user.screen_name"})
        batch = [{"id": "fhollande"}, {"id": "mlepen"}, {"id": "missing"}]
        self.assert_batch_matches_loop(source, query, batch)
        evaluated = []
        original = source.store.matches

        def spy(query):
            evaluated.append(str(query))
            return original(query)

        source.store.matches = spy
        try:
            source.execute_batch(query, batch)
        finally:
            del source.store.matches
        assert len(evaluated) == 1
        assert " OR " in evaluated[0]

    def test_fulltext_case_insensitive_attribution(self, instance):
        source = instance.source("solr://tweets")
        query = FullTextQuery.create("user.screen_name:{id}",
                                     {"t": "text", "id": "user.screen_name"})
        batch = [{"id": "FHOLLANDE"}, {"id": "mlepen"}]
        self.assert_batch_matches_loop(source, query, batch)

    def test_fulltext_or_context_disables_disjunction(self, instance):
        # OR-merging a clause that already sits under OR (or NOT) would
        # attribute the other disjunct's hits wrongly; fall back instead.
        source = instance.source("solr://tweets")
        query = FullTextQuery.create("text:urgence OR user.screen_name:{id}",
                                     {"t": "text", "id": "user.screen_name"})
        batch = [{"id": "fhollande"}, {"id": "missing"}]
        self.assert_batch_matches_loop(source, query, batch)
        assert dict_rows(source.execute_batch(query, batch)[1])  # the OR branch's hits
        negated = FullTextQuery.create("NOT user.screen_name:{id}",
                                       {"t": "text", "id2": "user.screen_name"})
        self.assert_batch_matches_loop(source, negated,
                                       [{"id": "fhollande"}, {"id": "mlepen"}])

    def test_fulltext_score_output_disables_disjunction(self, instance):
        # OR-ing the filled clauses repeats constant text terms and
        # inflates BM25; _score outputs force the per-statement fallback.
        source = instance.source("solr://tweets")
        query = FullTextQuery.create("text:urgence AND user.screen_name:{id}",
                                     {"t": "text", "id": "user.screen_name",
                                      "s": "_score"})
        batch = [{"id": "mlepen"}, {"id": "fhollande"}]
        self.assert_batch_matches_loop(source, query, batch)

    def test_fulltext_text_field_falls_back(self, instance):
        source = instance.source("solr://tweets")
        query = FullTextQuery.create("text:{word}", {"t": "text"})
        batch = [{"word": "chomage"}, {"word": "urgence"}, {"word": "zzz"}]
        self.assert_batch_matches_loop(source, query, batch)

    def test_rdf_batch(self, instance):
        source = instance.source("rdf://handles")
        query = RDFQuery.from_text("SELECT ?h ?f WHERE { ?u ttn:handle ?h . "
                                   "?u ttn:followers ?f }")
        batch = [{"h": "fhollande"}, {"h": "mlepen"}, {"h": "ghost"},
                 {"f": 900_000}, {}]
        self.assert_batch_matches_loop(source, query, batch)

    def test_rdf_batch_with_non_projected_bound_variable(self, instance):
        # Bindings on a body variable the SELECT projects away cannot be
        # bucketed from the (projected) solutions; the wrapper must fall
        # back to per-binding evaluation for them.
        source = instance.source("rdf://handles")
        query = RDFQuery.from_text("SELECT ?h WHERE { ?u ttn:handle ?h . "
                                   "?u ttn:followers ?f }")
        batch = [{"f": 1_500_000}, {"f": 900_000}, {"f": -1}]
        self.assert_batch_matches_loop(source, query, batch)
        assert dict_rows(source.execute_batch(query, batch)[0]) == [{"h": "fhollande"}]

    def test_rdf_batch_distinguishes_uri_and_literal(self, instance):
        graph = Graph("mixed-values")
        graph.add(triple("ttn:A", "ttn:ref", "http://example.org/x"))
        inst = MixedInstance(graph=Graph("empty"))
        rdf = inst.register_rdf("rdf://mixed", graph)
        query = RDFQuery.from_text("SELECT ?v WHERE { ?s ttn:ref ?v }")
        batch = [{"v": "http://example.org/x"}, {"v": "http://example.org/y"}]
        self.assert_batch_matches_loop(rdf, query, batch)

    def test_json_batch_with_pushdown(self, instance):
        source = instance.source("json://tweets")
        query = JSONQuery.from_text('{ user.screen_name: ?id, text: ?t }')
        batch = [{"id": "fhollande"}, {"id": "mlepen"}, {"id": "missing"}, {}]
        self.assert_batch_matches_loop(source, query, batch)

    def test_json_batch_with_parameters_and_limit(self, instance):
        source = instance.source("json://tweets")
        query = JSONQuery.from_text('{ user.screen_name: {id}, text: ?t }', limit=1)
        batch = [{"id": "fhollande"}, {"id": "mlepen"}]
        self.assert_batch_matches_loop(source, query, batch)

    def test_base_fallback_used_by_unknown_models(self, instance):
        # The base class answers batches with a per-binding loop, so any
        # source without a native implementation still satisfies the
        # protocol contract.
        from repro.core.sources import DataSource

        class Fixed(DataSource):
            model = "fulltext"

            def execute(self, query, bindings=None):
                return [{"x": (bindings or {}).get("x", 0)}]

        fixed = Fixed("stub://fixed")
        query = FullTextQuery.create("*:*", {"x": "x"})
        assert list(map(dict_rows, fixed.execute_batch(query, [{"x": 1}, {"x": 2}]))) == [
            [{"x": 1}], [{"x": 2}]]


# ---------------------------------------------------------------------------
# Planner knobs
# ---------------------------------------------------------------------------

def head_of_state_tweets(instance):
    """Every tweet of the head of state's account: one binding reaches a
    share of the atom, so the full-text step is a bind join (over every
    account it would cover the atom and be materialised)."""
    return (instance.builder("q", head=["t", "id"])
            .graph("SELECT ?id WHERE { ?x ttn:position ttn:headOfState . "
                   "?x ttn:twitterAccount ?id }")
            .fulltext("tweets", source="solr://tweets", query="*:*",
                      fields={"t": "text", "id": "user.screen_name"})
            .build())


class TestPlannerBatching:
    def test_bind_steps_carry_batch_size(self, instance):
        plan = instance.plan(head_of_state_tweets(instance))
        bind_steps = [s for s in plan.steps if s.mode == "bind"]
        assert bind_steps and all(s.batch_size >= MIN_BIND_BATCH for s in bind_steps)

    def test_explicit_batch_size_wins(self, instance):
        plan = instance.plan(head_of_state_tweets(instance), PlannerOptions(bind_batch_size=7))
        assert any(s.mode == "bind" for s in plan.steps)
        assert all(s.batch_size == 7 for s in plan.steps if s.mode == "bind")

    def test_auto_batch_size_bounds(self):
        batch_size = DEFAULT_COST_MODEL.batch_size
        assert batch_size(1) == MAX_BIND_BATCH
        assert batch_size(10 ** 9) == MIN_BIND_BATCH
        assert MIN_BIND_BATCH <= batch_size(float("inf")) <= MAX_BIND_BATCH

    def test_per_binding_is_batch_size_one(self, instance):
        plan = instance.plan(head_of_state_tweets(instance), PER_BINDING)
        assert any(s.mode == "bind" for s in plan.steps)
        assert all(s.batch_size == 1 for s in plan.steps if s.mode == "bind")


# ---------------------------------------------------------------------------
# End-to-end equivalence: batched engine == per-binding engine
# ---------------------------------------------------------------------------

class TestBatchedExecutionEquivalence:
    def test_fulltext_atom(self, instance):
        cmq = (instance.builder("q", head=["id", "t"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .fulltext("tweets", source="solr://tweets",
                         query="user.screen_name:{id}", fields={"t": "text"})
               .build())
        batched, per_binding = assert_equivalent(instance, cmq)
        assert len(batched.trace.calls) < len(per_binding.trace.calls)
        assert batched.trace.batched_calls() >= 1

    def test_relational_atom_with_placeholder(self, instance, politics_graph):
        politics_graph.add(triple("ttn:POL1", "ttn:inDept", "75"))
        politics_graph.add(triple("ttn:POL2", "ttn:inDept", "33"))
        instance.add_glue_triples([])
        cmq = (instance.builder("q", head=["dept", "rate"])
               .graph("SELECT ?dept WHERE { ?x ttn:inDept ?dept }")
               .sql("stats", source="sql://insee",
                    sql="SELECT dept_code AS dept, rate AS rate FROM unemployment "
                        "WHERE dept_code = {dept}")
               .build())
        batched, per_binding = assert_equivalent(instance, cmq)
        assert len(batched.rows) == 3  # 75 has two years, 33 one
        assert len(batched.trace.calls) < len(per_binding.trace.calls)

    def test_rdf_atom(self, instance):
        cmq = (instance.builder("q", head=["id", "f"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .rdf("followers", source="rdf://handles",
                    sparql_text="SELECT ?id ?f WHERE { ?u ttn:handle ?id . "
                                "?u ttn:followers ?f }")
               .build())
        batched, per_binding = assert_equivalent(instance, cmq)
        assert {row["id"] for row in batched.rows} == {"fhollande", "mlepen"}

    def test_json_atom(self, instance):
        cmq = (instance.builder("q", head=["id", "t"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .json("docs", source="json://tweets",
                     pattern='{ user.screen_name: {id}, text: ?t }')
               .build())
        batched, per_binding = assert_equivalent(instance, cmq)
        assert len(batched.rows) == 3
        assert len(batched.trace.calls) < len(per_binding.trace.calls)

    def test_dynamic_source_from_binding(self, instance, politics_graph):
        politics_graph.add(triple("ttn:POL1", "ttn:statsEndpoint", "sql://insee"))
        instance.add_glue_triples([])
        cmq = (instance.builder("q", head=["rate", "src"])
               .graph("SELECT ?src WHERE { ?x ttn:position ttn:headOfState . "
                      "?x ttn:statsEndpoint ?src }")
               .sql("stats", source_variable="src",
                    sql="SELECT rate AS rate FROM unemployment WHERE year = 2015")
               .build())
        batched, _ = assert_equivalent(instance, cmq)
        assert set(batched.column("src")) == {"sql://insee"}

    def test_free_source_variable_fans_out(self, instance):
        cmq = (instance.builder("q", head=["t", "d"])
               .fulltext("anytweets", source_variable="d",
                         query="entities.hashtags:sia2016", fields={"t": "text"})
               .build())
        batched, _ = assert_equivalent(instance, cmq)
        assert batched.rows[0]["d"] == "solr://tweets"

    def test_small_batch_size_still_equivalent(self, instance):
        cmq = (instance.builder("q", head=["id", "t"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .fulltext("tweets", source="solr://tweets", query="*:*",
                         fields={"t": "text", "id": "user.screen_name"})
               .build())
        tiny = instance.execute(cmq, options=PlannerOptions(bind_batch_size=2))
        reference = instance.execute(cmq, options=PER_BINDING)
        assert sorted(map(str, tiny.rows)) == sorted(map(str, reference.rows))

    def test_float_binding_reaches_int_column(self):
        # The sources compare 5 == 5.0: a float glue binding must reach
        # the int column it equals, batched as per binding.
        database = Database("nums")
        database.create_table_from_rows("measures", [
            {"bucket": 5, "label": "five"}, {"bucket": 7, "label": "seven"}])
        graph = Graph("glue")
        graph.add(triple("ttn:A", "ttn:bucket", 5.0))
        graph.add(triple("ttn:B", "ttn:bucket", 7))
        inst = MixedInstance(graph=graph, name="nums")
        inst.register_relational("sql://nums", database)
        cmq = (inst.builder("q", head=["bucket", "label"])
               .graph("SELECT ?bucket WHERE { ?x ttn:bucket ?bucket }")
               .sql("lookup", source="sql://nums",
                    sql="SELECT bucket AS bucket, label AS label FROM measures")
               .build())
        batched, _ = assert_equivalent(inst, cmq)
        assert {row["label"] for row in batched.rows} == {"five", "seven"}


# ---------------------------------------------------------------------------
# bind_batch_size=1 is the per-binding reference, on the one dispatch path
# ---------------------------------------------------------------------------

class TestBatchSizeOneIsTheReference:
    """Default, ``bind_batch_size=1`` and ``naive_options()`` agree, and
    size 1 makes one source call per distinct binding and target source."""

    @staticmethod
    def _query(demo, name):
        from repro.datasets import qsia_json_query, qsia_query

        instance = demo.instance
        if name == "qsia":
            return qsia_query(demo)
        if name == "qsia_json":
            return qsia_json_query(demo)
        if name == "dynamic":
            # The benchmark's ``dynamic`` class: a source variable.
            return instance.parse(
                'qSIA(t, id) :- qG(id), tweetContains(t, id, "sia2016")[dSolr]')
        if name == "free_source_variable":
            # Every politician's account goes to every full-text source.
            return (instance.builder("anyPosts", head=["id", "t", "d"])
                    .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
                    .fulltext("posts", source_variable="d",
                              query="user.screen_name:{id}", fields={"t": "text"})
                    .build())
        assert name == "required_parameter"
        return (instance.builder("rates", head=["dept", "year", "rate"])
                .graph("SELECT ?dept WHERE { ?x ttn:birthDepartment ?dept }")
                .sql("unemployment", source="sql://insee",
                     sql="SELECT dept_code AS dept, year AS year, rate AS rate "
                         "FROM unemployment WHERE dept_code = {dept}")
                .build())

    @pytest.mark.parametrize("name", ["qsia", "qsia_json", "dynamic",
                                      "free_source_variable", "required_parameter"])
    def test_same_multiset_and_one_call_per_binding(self, demo, name):
        from collections import Counter

        from repro.baselines.naive import naive_options

        def multiset(result):
            return Counter(tuple(sorted((k, str(v)) for k, v in row.items()))
                           for row in result.rows)

        instance = demo.instance
        cmq = self._query(demo, name)
        answers = {}
        for label, options in (("default", None), ("one", PER_BINDING),
                               ("naive", naive_options())):
            instance.clear_caches()
            answers[label] = instance.execute(cmq, options=options)
        assert answers["default"].rows
        assert multiset(answers["one"]) == multiset(answers["default"])
        assert multiset(answers["naive"]) == multiset(answers["default"])
        trace = answers["one"].trace
        bind_calls = [c for c in trace.calls if c.batched]
        assert all(c.bindings_in == 1 for c in bind_calls)
        for step in trace.steps:
            if step.mode != "bind":
                continue
            calls = [c for c in bind_calls if c.atom_key == step.atom_key]
            targets = len({c.source_uri for c in calls})
            assert len(calls) == step.bindings * targets
        if name in ("free_source_variable", "required_parameter"):
            # These atoms cannot be materialised: the bind join is forced.
            assert len(bind_calls) > 1


# ---------------------------------------------------------------------------
# Batching cuts the source calls of a wide bind join
# ---------------------------------------------------------------------------

class TestBatchingCutsSourceCalls:
    """A bind join over 300 bindings: each batch size makes at least five
    times fewer source calls than one call per binding, for the same rows."""

    ACCOUNTS = 300

    @pytest.fixture(scope="class")
    def accounts(self):
        glue = Graph("accounts-glue")
        database = Database("accounts-db")
        store = FullTextStore("profiles", fields=[FieldConfig("text", "text"),
                                                  FieldConfig("user.screen_name", "keyword")],
                              default_field="text")
        rows = []
        for i in range(self.ACCOUNTS):
            handle = f"user{i:05d}"
            glue.add(triple(f"ttn:P{i}", "ttn:twitterAccount", handle))
            rows.append({"handle": handle, "followers": (i * 37) % 10_000})
            store.add({"id": i, "text": f"profile of {handle}",
                       "user": {"screen_name": handle}})
        database.create_table_from_rows("accounts", rows)
        inst = MixedInstance(graph=glue, name="accounts", entailment=False, cache=False)
        inst.register_relational("sql://accounts", database)
        inst.register_fulltext("solr://profiles", store)
        return inst

    @pytest.mark.parametrize("model", ["sql", "fulltext"])
    def test_five_times_fewer_calls_same_rows(self, accounts, model):
        builder = (accounts.builder("qAccounts", head=["id", "v"])
                   .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }"))
        if model == "sql":
            builder.sql("followers", source="sql://accounts",
                        sql="SELECT handle AS id, followers AS v FROM accounts "
                            "WHERE handle = {id}")
        else:
            builder.fulltext("profile", source="solr://profiles",
                             query="user.screen_name:{id}",
                             fields={"v": "text", "id": "user.screen_name"})
        cmq = builder.build()
        per_binding = accounts.execute(cmq, options=PER_BINDING)
        assert len(per_binding) == self.ACCOUNTS
        assert len(per_binding.trace.calls) > self.ACCOUNTS
        for size in (0, 64, 256):
            batched = accounts.execute(cmq, options=PlannerOptions(bind_batch_size=size))
            assert sorted(map(str, batched.rows)) == sorted(map(str, per_binding.rows))
            assert 5 * len(batched.trace.calls) <= len(per_binding.trace.calls)
