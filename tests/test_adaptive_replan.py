"""Plan retirement: a plan whose estimate drifted is dropped at the end.

A stub source advertises a deliberately wrong cardinality
(its ``derive_estimate`` hook hands the lie to the statistics catalog in
place of the digest-backed estimate).  The first asking runs the misplan to the end; because a
step of a non-final stage is off by more than ``REPLAN_THRESHOLD``, the
executor then drops the cached plan and records the stage's feedback
into the statistics layer.  The next asking replans from the corrected
statistics.  Drift in the final stage retires nothing.
"""

import pytest

from repro.baselines.naive import naive_options
from repro.core import MixedInstance, PlannerOptions
from repro.core.planner import REPLAN_THRESHOLD
from repro.relational.source import RelationalSource
from repro.obs.metrics import reset_registry
from repro.relational import Database

pytestmark = pytest.mark.optimizer

POSTS = 400
VIP = 12


class LyingSource(RelationalSource):
    """Claims every sub-query returns ~2 rows, whatever the truth."""

    def derive_estimate(self, query, bound, values):
        return self.estimate(query, bound)

    def estimate(self, query, bound_variables=None):
        return 2.0


def build(lying: bool = True) -> MixedInstance:
    posts = Database("posts-db")
    posts.create_table_from_rows(
        "posts", [{"handle": f"u{i:04d}", "score": i % 97} for i in range(POSTS)])
    vip = Database("vip-db")
    vip.create_table_from_rows(
        "vip", [{"handle": f"u{i:04d}", "rank": i} for i in range(VIP)])
    inst = MixedInstance(name="drift")
    inst.register((LyingSource if lying else RelationalSource)("sql://posts", posts))
    inst.register_relational("sql://vip", vip)
    return inst


@pytest.fixture
def instance():
    return build()


def two_atoms(instance):
    return (instance.builder("qAdaptive", head=["handle", "rank", "score"])
            .sql("allPosts", source="sql://posts",
                 sql="SELECT handle AS handle, score AS score FROM posts")
            .sql("vipRank", source="sql://vip",
                 sql="SELECT handle AS handle, rank AS rank FROM vip")
            .build())


@pytest.fixture
def cmq(instance):
    return two_atoms(instance)


EXPECTED = {(f"u{i:04d}", i, i % 97) for i in range(VIP)}


def rows_of(result):
    return {(r["handle"], r["rank"], r["score"]) for r in result.rows}


def shape(plan):
    return [(step.atom.name, step.mode) for step in plan.steps], plan.stages


class TestDriftRetiresThePlan:
    def test_first_asking_misplans_and_answers_the_reference(self, instance, cmq):
        misplan = instance.plan(cmq)
        # The lie puts the 400-row table first, in a stage of its own.
        assert shape(misplan) == ([("allPosts", "materialize"), ("vipRank", "bind")],
                                  [[0], [1]])
        result = instance.execute(cmq)
        reference = instance.execute(cmq, options=naive_options())
        assert rows_of(result) == rows_of(reference) == EXPECTED
        assert result.trace.plan_cached and result.trace.plan_retired
        lied, bound = result.trace.steps
        # The stub claimed 2 rows; the source really returned every post.
        assert (lied.atom, lied.estimate, lied.actual_rows) == ("allPosts", 2.0, POSTS)
        assert lied.q_error() > REPLAN_THRESHOLD and lied.drifted
        assert bound.atom == "vipRank" and not bound.drifted

    def test_first_asking_retires_the_cached_plan(self, instance, cmq):
        assert not instance.plan(cmq).cached
        assert instance.plan(cmq).cached
        instance.execute(cmq)
        assert not instance.plan(cmq).cached

    def test_first_asking_records_feedback(self, instance, cmq):
        stats = instance.statistics()
        before = stats.revision
        instance.execute(cmq)
        assert stats.revision > before and stats.feedback_count() >= 1
        # The corrected cardinality now overrides the lying wrapper.
        corrected = stats.estimate(instance.source("sql://posts"), cmq.atoms[0].query)
        assert corrected == pytest.approx(float(POSTS))

    def test_second_asking_replans_and_runs_the_oracle_plan(self, instance, cmq):
        truthful = build(lying=False)
        oracle = truthful.plan(two_atoms(truthful))
        instance.execute(cmq)
        second = instance.execute(cmq)
        assert rows_of(second) == EXPECTED
        assert not second.trace.plan_cached and not second.trace.plan_retired
        assert second.trace.atom_order == oracle.atom_order() == ["vipRank", "allPosts"]
        assert shape(instance.plan(cmq)) == shape(oracle)
        assert not any(step.drifted for step in second.trace.steps)
        assert second.trace.total_rows_fetched() < POSTS

    def test_drift_in_the_final_stage_retires_nothing(self, instance):
        alone = (instance.builder("qAlone", head=["handle", "score"])
                 .sql("allPosts", source="sql://posts",
                      sql="SELECT handle AS handle, score AS score FROM posts")
                 .build())
        stats = instance.statistics()
        instance.plan(alone)
        result = instance.execute(alone)
        (step,) = result.trace.steps
        assert step.q_error() > REPLAN_THRESHOLD and not step.drifted
        assert not result.trace.plan_retired
        assert stats.feedback_count() == 0
        assert instance.plan(alone).cached

    def test_explain_analyze_marks_the_drifted_step(self, instance, cmq):
        report = instance.explain_analyze(cmq)
        lied, bound = report.step("allPosts"), report.step("vipRank")
        assert (lied.estimated_rows, lied.actual_rows) == (2.0, POSTS)
        assert lied.q_error > REPLAN_THRESHOLD and lied.drifted
        assert not bound.drifted and report.plan_retired
        text = report.render()
        assert "[drifted]" in text and "plan built, retired" in text
        # The next asking's plan fits: nothing drifts, nothing retires.
        again = instance.explain_analyze(cmq)
        assert not again.plan_retired and not any(s.drifted for s in again.steps)
        assert all(s.q_error <= REPLAN_THRESHOLD for s in again.steps)

    def test_retirement_is_counted(self, instance, cmq):
        registry = reset_registry()
        try:
            instance.execute(cmq)
            instance.execute(cmq)
            assert registry.value("executor_plans_retired_total") == 1.0
        finally:
            reset_registry()

    def test_a_served_query_retires_and_records_feedback_too(self, instance, cmq):
        """The pinned wrapper is still a ``LyingSource``: under the service
        (and under ``instance.execute``, which pins the same way) the lie
        is told, noticed and the plan retired."""
        from repro.service import MediatorService, ServiceConfig

        assert type(instance.source("sql://posts").pin()) is LyingSource
        stats = instance.statistics()
        before = stats.revision
        with MediatorService(instance, ServiceConfig(workers=1)) as service:
            result = service.execute(cmq, timeout=30.0)
        assert rows_of(result) == EXPECTED
        assert result.trace.plan_retired
        lied = {o.atom: o for o in result.trace.steps}["allPosts"]
        assert lied.estimate == pytest.approx(2.0) and lied.actual_rows == POSTS
        assert stats.revision > before and stats.feedback_count() >= 1

    def test_the_reference_plan_is_never_retired(self, instance, cmq):
        result = instance.execute(cmq, options=PlannerOptions(cost_based=False))
        assert rows_of(result) == EXPECTED
        assert not result.trace.plan_retired
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


class TestFreeSourceVariableObservation:
    def test_fanned_out_bindings_are_counted_once(self):
        """Six bindings shipped to two full-text sources are six bindings.

        The planner's per-binding estimate of a free-source-variable step
        is the *sum* over its candidate sources, so the observation must
        normalise by distinct bindings — counting each binding once per
        source halved ``actual_per_binding`` (0.67 for 1.33) and inflated
        the q-error two-fold, enough to retire a plan spuriously.
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
