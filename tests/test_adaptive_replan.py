"""Adaptive re-planning: wrong estimates are corrected mid-flight.

A stub source advertises a deliberately wrong cardinality
(``trust_wrapper_estimate`` routes the lie past the digest-backed
estimators).  The executor must notice the estimate-vs-actual gap after
the step runs, record feedback into the statistics layer, invalidate
the stale plan-cache entry, and re-plan the remaining steps from the
observed intermediate cardinality.
"""

import pytest

from repro.core import MixedInstance, PlannerOptions
from repro.core.planner import REPLAN_THRESHOLD
from repro.core.sources import RelationalSource
from repro.relational import Database

pytestmark = pytest.mark.optimizer

POSTS = 400
VIP = 12


class LyingSource(RelationalSource):
    """Claims every sub-query returns ~2 rows, whatever the truth."""

    trust_wrapper_estimate = True

    def estimate(self, query, bound_variables=None):
        return 2.0


@pytest.fixture
def instance():
    posts = Database("posts-db")
    posts.create_table_from_rows(
        "posts", [{"handle": f"u{i:04d}", "score": i % 97} for i in range(POSTS)])
    vip = Database("vip-db")
    vip.create_table_from_rows(
        "vip", [{"handle": f"u{i:04d}", "rank": i} for i in range(VIP)])
    inst = MixedInstance(name="adaptive")
    inst.register(LyingSource("sql://posts", posts))
    inst.register_relational("sql://vip", vip)
    return inst


@pytest.fixture
def cmq(instance):
    return (instance.builder("qAdaptive", head=["handle", "rank", "score"])
            .sql("allPosts", source="sql://posts",
                 sql="SELECT handle AS handle, score AS score FROM posts")
            .sql("vipRank", source="sql://vip",
                 sql="SELECT handle AS handle, rank AS rank FROM vip")
            .build())


EXPECTED = {(f"u{i:04d}", i, i % 97) for i in range(VIP)}


def rows_of(result):
    return {(r["handle"], r["rank"], r["score"]) for r in result.rows}


class TestAdaptiveReplan:
    def test_replans_tail_and_records_est_vs_actual(self, instance, cmq):
        result = instance.execute(cmq)
        assert rows_of(result) == EXPECTED
        trace = result.trace
        assert trace.replanned and trace.replans >= 1
        observations = {o.atom: o for o in trace.steps}
        lied = observations["allPosts"]
        # The stub claimed 2 rows; the source really returned every post.
        assert lied.estimate == pytest.approx(2.0)
        assert lied.actual_rows == POSTS
        assert lied.replanned_after
        assert lied.q_error() > REPLAN_THRESHOLD
        assert "re-planned after allPosts" in trace.plan_text

    def test_a_served_query_replans_and_records_feedback_too(self, instance, cmq):
        """The pinned wrapper is still a ``LyingSource``: under the service
        (and under ``instance.execute``, which pins the same way) the lie
        is told, noticed and corrected."""
        from repro.service import MediatorService, ServiceConfig

        assert type(instance.source("sql://posts").pin()) is LyingSource
        stats = instance.statistics()
        before = stats.revision
        with MediatorService(instance, ServiceConfig(workers=1)) as service:
            result = service.execute(cmq, timeout=30.0)
        assert rows_of(result) == EXPECTED
        assert result.trace.replanned and result.trace.replans >= 1
        lied = {o.atom: o for o in result.trace.steps}["allPosts"]
        assert lied.estimate == pytest.approx(2.0) and lied.actual_rows == POSTS
        assert stats.revision > before and stats.feedback_count() >= 1
        assert stats.estimate(instance.source("sql://posts"),
                              cmq.atoms[0].query) == pytest.approx(float(POSTS))

    def test_feedback_lands_in_the_statistics_layer(self, instance, cmq):
        stats = instance.statistics()
        before = stats.revision
        instance.execute(cmq)
        assert stats.revision > before
        assert stats.feedback_count() >= 1
        # The corrected cardinality now overrides the lying wrapper.
        lying = instance.source("sql://posts")
        corrected = stats.estimate(lying, cmq.atoms[0].query)
        assert corrected == pytest.approx(float(POSTS))

    def test_stale_plan_cache_entry_is_invalidated(self, instance, cmq):
        # Plan twice: the second plan must come from the plan cache.
        first = instance.plan(cmq)
        assert not first.cached
        assert instance.plan(cmq).cached
        # Executing replans mid-flight; the feedback bumps the statistics
        # revision, so the stale entry can never be served again.
        result = instance.execute(cmq)
        assert result.trace.replanned
        replanned = instance.plan(cmq)
        assert not replanned.cached
        # The fresh plan is built from corrected statistics: materialising
        # the lying atom is now known to ship every post, so the small VIP
        # table runs first instead.
        assert replanned.atom_order()[0] == "vipRank"
        unbound = instance.statistics().estimate(
            instance.source("sql://posts"), cmq.atoms[0].query)
        assert unbound == pytest.approx(float(POSTS))

    def test_disabled_adaptivity_keeps_the_misplan(self, instance, cmq):
        result = instance.execute(cmq, options=PlannerOptions(adaptive=False))
        assert rows_of(result) == EXPECTED
        assert not result.trace.replanned
        assert instance.statistics().feedback_count() == 0

    def test_cached_plan_rebind_remaps_bound_variables(self, instance):
        def query(var):
            # Identical sub-query texts, different CMQ-level variable
            # names: renaming-equivalent, so the second plan is a hit.
            return (instance.builder(f"q_{var}", head=[var])
                    .sql("vipAll", source="sql://vip",
                         sql="SELECT handle AS h FROM vip",
                         renames={"h": var})
                    .sql("vipLookup", source="sql://vip",
                         sql="SELECT handle AS h, rank AS r "
                             "FROM vip WHERE handle = {h}",
                         renames={"h": var, "r": f"r_{var}"})
                    .build())

        assert not instance.plan(query("h")).cached
        hit = instance.plan(query("x"))
        assert hit.cached
        # Feedback from this plan keys on the *requesting* query's names.
        assert hit.steps[0].bound_variables == frozenset()
        assert hit.steps[1].bound_variables == frozenset({"x"})

    def test_replanned_result_equals_naive_reference(self, instance, cmq):
        naive = instance.execute(cmq, options=PlannerOptions(cost_based=False))
        adaptive = instance.execute(cmq)
        assert rows_of(adaptive) == rows_of(naive) == EXPECTED


class TestFreeSourceVariableObservation:
    def test_fanned_out_bindings_are_counted_once(self):
        """Six bindings shipped to two full-text sources are six bindings.

        The planner's per-binding estimate of a free-source-variable step
        is the *sum* over its candidate sources, so the observation must
        normalise by distinct bindings — counting each binding once per
        source halved ``actual_per_binding`` (0.67 for 1.33) and inflated
        the q-error two-fold, enough to trigger a spurious replan.
        """
        from repro.fulltext.store import tweet_store
        from repro.rdf import Graph, triple

        handles = [f"u{i}" for i in range(6)]
        glue = Graph("glue")
        for i, handle in enumerate(handles):
            glue.add(triple(f"ttn:P{i}", "ttn:twitterAccount", handle))
        inst = MixedInstance(graph=glue, name="fanout", entailment=False)
        for uri, authors in (("solr://a", handles[:4]), ("solr://b", handles[2:])):
            store = tweet_store(uri.rsplit("/", 1)[-1])
            store.add_all({"id": f"{uri}/{i}", "text": f"post by {handle}",
                           "user": {"screen_name": handle}}
                          for i, handle in enumerate(authors))
            inst.register_fulltext(uri, store)
        cmq = (inst.builder("q", head=["id", "t", "d"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .fulltext("posts", source_variable="d",
                         query="user.screen_name:{id}", fields={"t": "text"})
               .build())
        result = inst.execute(cmq)
        assert len(result.rows) == 8
        step = next(s for s in result.trace.steps if s.atom == "posts")
        calls = [c for c in result.trace.calls if c.atom == "posts"]
        assert {c.source_uri for c in calls} == {"solr://a", "solr://b"}
        assert sum(c.bindings_in for c in calls) == 12
        assert (step.mode, step.bindings, step.actual_rows) == ("bind", 6, 8)
        assert step.actual_per_binding() == pytest.approx(8 / 6)
