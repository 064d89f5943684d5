"""The reference plan (``cost_based=False``) and the myopic planning loop.

The oracles define a CMQ's answer as its evaluation under
:func:`repro.baselines.naive.naive_options`: body order (the first ready
atom), ``bind`` only where a required parameter or a dynamic source
forces it, one step per stage, never retired on drift.  These tests pin that
shape on the demo CMQs, check that no estimate — however wrong — moves
it, and drive CMQs wider than :data:`repro.core.planner.DP_ATOM_LIMIT`
through the one-step-at-a-time loop both plan kinds share above it.
"""

from __future__ import annotations

import pytest

from oracle import Oracle, multiset
from repro.baselines.naive import naive_options
from repro.core import MixedInstance, PlannerOptions
from repro.core.planner import DP_ATOM_LIMIT, QueryPlanner
from repro.relational.source import RelationalSource
from repro.datasets import (
    fact_checking_query,
    party_vocabulary_query,
    qsia_json_query,
    qsia_query,
)
from repro.errors import PlanningError
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json.store import JSONDocumentStore
from repro.rdf import Graph, triple
from repro.relational import Database

pytestmark = pytest.mark.optimizer

M, B = "materialize", "bind"


def shape(plan) -> tuple:
    return ([(step.atom.name, step.mode) for step in plan.steps],
            [[plan.steps[i].atom.name for i in stage] for stage in plan.stages])


def one_step_stages(steps) -> list:
    return [[name] for name, _ in steps]


class TestReferenceShape:
    @pytest.mark.parametrize("build, expected", [
        (qsia_query, [("qG", M), ("tweetContains", M)]),
        (qsia_json_query, [("qG", M), ("tweetJson", M), ("unemployment", B)]),
        (lambda demo: party_vocabulary_query(demo, "urgence"),
         [("qG", M), ("tweetMentions", M)]),
        (lambda demo: fact_checking_query(demo, "chomage"),
         [("qG", M), ("claims", M), ("datasetRegistry", M), ("statistics", B)]),
    ], ids=["qsia", "qsia_json", "party", "factcheck"])
    def test_demo_cmqs(self, demo, build, expected):
        plan = demo.instance.plan(build(demo), naive_options())
        assert shape(plan) == (expected, one_step_stages(expected))

    def test_free_source_variable_binds(self, demo):
        cmq = demo.instance.parse(
            'qTag(t, id, dTweets) :- qG(id), tweetJson(t, id, "sia2016")[dTweets]')
        plan = demo.instance.plan(cmq, naive_options())
        expected = [("qG", M), ("tweetJson", B)]
        assert shape(plan) == (expected, one_step_stages(expected))
        assert plan.steps[1].dynamic


POSTS = 2000
VIP = 12


class UnderReporting(RelationalSource):
    """Reports a thousandth of every sub-query's true size."""

    trust_wrapper_estimate = True

    def estimate(self, query, bound_variables=None):
        return POSTS / 1000


def lying_instance(lying: bool) -> MixedInstance:
    posts = Database("posts-db")
    posts.create_table_from_rows(
        "posts", [{"handle": f"u{i:04d}", "score": i % 97} for i in range(POSTS)])
    vip = Database("vip-db")
    vip.create_table_from_rows(
        "vip", [{"handle": f"u{i:04d}", "rank": i} for i in range(VIP)])
    instance = MixedInstance(name="lying", entailment=False)
    instance.register((UnderReporting if lying else RelationalSource)(
        "sql://posts", posts))
    instance.register_relational("sql://vip", vip)
    return instance


def lying_cmq(instance: MixedInstance):
    return (instance.builder("qLie", head=["handle", "rank", "score"])
            .sql("allPosts", source="sql://posts",
                 sql="SELECT handle AS handle, score AS score FROM posts")
            .sql("vipRank", source="sql://vip",
                 sql="SELECT handle AS handle, rank AS rank FROM vip")
            .build())


class TestReferenceIgnoresEstimates:
    def test_an_under_reporting_source_moves_nothing(self):
        lying, truthful = lying_instance(True), lying_instance(False)
        expected = [("allPosts", M), ("vipRank", M)]
        for instance in (lying, truthful):
            plan = instance.plan(lying_cmq(instance), naive_options())
            assert shape(plan) == (expected, one_step_stages(expected))
        result = lying.execute(lying_cmq(lying), options=naive_options())
        assert len(result) == VIP
        assert not result.trace.plan_retired
        assert lying.statistics().feedback_count() == 0

    def test_the_lie_is_told(self):
        """Control: the cost-based plan believes the source, observes
        1000x the estimate and is retired."""
        instance = lying_instance(True)
        result = instance.execute(lying_cmq(instance))
        assert len(result) == VIP
        assert result.trace.plan_retired


# ---------------------------------------------------------------------------
# Above DP_ATOM_LIMIT: the myopic loop
# ---------------------------------------------------------------------------

HANDLES = [f"u{i}" for i in range(6)]


def four_model_instance() -> MixedInstance:
    glue = Graph("glue")
    for i, handle in enumerate(HANDLES):
        glue.add(triple(f"ttn:P{i}", "ttn:twitterAccount", handle))
        glue.add(triple(f"ttn:P{i}", "ttn:memberOf", f"ttn:PARTY{i % 3}"))
        glue.add(triple(f"ttn:P{i}", "ttn:inRegion", f"R{i % 2}"))
    for k in range(3):
        glue.add(triple(f"ttn:PARTY{k}", "ttn:label", f"party {k}"))
    database = Database("profiles-db")
    database.create_table_from_rows(
        "profiles", [{"handle": handle, "followers": 100 * (i + 1)}
                     for i, handle in enumerate(HANDLES)])
    database.create_table_from_rows(
        "regions", [{"code": "R0", "label": "north"}, {"code": "R1", "label": "south"}])
    store = FullTextStore("posts", fields=[
        FieldConfig("text", "text"),
        FieldConfig("user.screen_name", "keyword"),
    ], default_field="text")
    documents = JSONDocumentStore("tweets")
    for i, handle in enumerate(HANDLES):
        for j, topic in enumerate(("politics", "sports")):
            store.add({"id": 2 * i + j, "text": f"post about {topic} by {handle}",
                       "user": {"screen_name": handle}})
        documents.add({"id": i, "author": handle, "topic": "politics",
                       "likes": (i * 7) % 40})
    instance = MixedInstance(graph=glue, name="wide", entailment=False)
    instance.register_relational("sql://profiles", database)
    instance.register_fulltext("solr://posts", store)
    instance.register_json("json://tweets", documents)
    return instance


def wide_cmq(instance: MixedInstance, extra=()):
    """Twelve atoms in a dependency-respecting body order; two posts per
    account survive the joins, so the answer has 12 rows."""
    builder = (instance.builder("qWide", head=["id", "p", "pl", "f", "rl", "t", "l"])
               .graph("SELECT ?x ?id WHERE { ?x ttn:twitterAccount ?id }",
                      name="accounts")
               .graph("SELECT ?x ?p WHERE { ?x ttn:memberOf ?p }", name="parties")
               .graph("SELECT ?x ?r WHERE { ?x ttn:inRegion ?r }", name="regionOf")
               .graph("SELECT ?p ?pl WHERE { ?p ttn:label ?pl }", name="partyLabel")
               .sql("profiles", source="sql://profiles",
                    sql="SELECT handle AS id, followers AS f FROM profiles")
               .sql("lookup", source="sql://profiles",
                    sql="SELECT handle AS id, followers AS f FROM profiles "
                        "WHERE handle = {id}")
               .sql("regionLabel", source="sql://profiles",
                    sql="SELECT code AS r, label AS rl FROM regions")
               .fulltext("posts", source="solr://posts",
                         query="user.screen_name:{id}", fields={"t": "text"})
               .fulltext("politics", source="solr://posts", query="text:politics",
                         fields={"id": "user.screen_name"})
               .json("tweetJson", source="json://tweets",
                     pattern="{ author: ?id, topic: ?topic, likes: ?l }")
               .json("likesOf", source="json://tweets",
                     pattern="{ author: {id}, likes: ?l }")
               .graph("SELECT ?y ?id WHERE { ?y ttn:twitterAccount ?id }",
                      name="accountAgain"))
    for add in extra:
        add(builder)
    return builder.build()


@pytest.fixture(scope="module")
def wide():
    instance = four_model_instance()
    return instance, Oracle(four_model_instance())


class TestMyopicLoop:
    @pytest.mark.parametrize("cost_based", [False, True])
    def test_wide_cmq_returns_the_oracle_answer(self, wide, cost_based,
                                                monkeypatch):
        instance, oracle = wide
        cmq = wide_cmq(instance)
        assert len(cmq.atoms) > DP_ATOM_LIMIT
        oracle_answer = oracle.answer(wide_cmq(oracle.twin))

        def no_dp(*args):
            raise AssertionError("a wide CMQ reached the DP enumerator")

        monkeypatch.setattr(QueryPlanner, "_dp_steps", no_dp)
        options = PlannerOptions(cost_based=cost_based)
        result = instance.execute(cmq, options=options)
        assert len(result) == 12
        assert multiset(result) == oracle_answer
        plan = instance.plan(cmq, options)
        assert sorted(step.atom.name for step in plan.steps) == sorted(
            atom.name for atom in cmq.atoms)
        if not cost_based:
            assert plan.atom_order() == [atom.name for atom in cmq.atoms]
            assert [step.mode for step in plan.steps] == [M] + [
                B if atom.required_parameters() else M for atom in cmq.atoms[1:]]
            assert all(len(stage) == 1 for stage in plan.stages)

    @pytest.mark.parametrize("cost_based", [False, True])
    def test_a_parameter_nothing_produces_names_its_atom(self, wide, cost_based):
        instance, _ = wide
        cmq = wide_cmq(instance, extra=[lambda b: b.sql(
            "orphan", source="sql://profiles",
            sql="SELECT followers AS f FROM profiles WHERE handle = {nowhere}")])
        with pytest.raises(PlanningError, match="orphan"):
            instance.plan(cmq, PlannerOptions(cost_based=cost_based))

    @pytest.mark.parametrize("cost_based", [False, True])
    def test_a_dependency_cycle_names_its_atoms(self, wide, cost_based):
        instance, _ = wide
        cmq = wide_cmq(instance, extra=[
            lambda b: b.sql("chicken", source="sql://profiles",
                            sql="SELECT handle AS egg FROM profiles "
                                "WHERE followers = {hen}"),
            lambda b: b.sql("hen", source="sql://profiles",
                            sql="SELECT followers AS hen FROM profiles "
                                "WHERE handle = {egg}")])
        with pytest.raises(PlanningError, match="cannot order") as raised:
            instance.plan(cmq, PlannerOptions(cost_based=cost_based))
        assert "chicken" in str(raised.value) and "hen" in str(raised.value)
