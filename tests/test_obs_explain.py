"""EXPLAIN ANALYZE: plan-vs-reality reports and span reconciliation."""

from __future__ import annotations

import pytest

from repro.core import CMQBuilder, MixedInstance
from repro.obs import spans
from repro.obs.explain import ExplainReport, explain_analyze
from repro.rdf import Graph, triple
from repro.relational import Database

pytestmark = pytest.mark.obs

HANDLES = [f"u{i}" for i in range(8)]


@pytest.fixture
def instance() -> MixedInstance:
    glue = Graph("glue")
    for i, handle in enumerate(HANDLES):
        glue.add(triple(f"ttn:P{i}", "ttn:twitterAccount", handle))
    database = Database("profiles-db")
    database.create_table_from_rows(
        "profiles", [{"handle": handle, "followers": 100 * (i + 1)}
                     for i, handle in enumerate(HANDLES)])
    inst = MixedInstance(graph=glue, name="explain", entailment=False)
    inst.register_relational("sql://profiles", database)
    return inst


def profile_query(instance: MixedInstance):
    builder = instance.builder("profiles", head=["id", "f"])
    builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
    builder.sql("prof", source="sql://profiles",
                sql="SELECT handle AS id, followers AS f FROM profiles "
                    "WHERE handle = {id}")
    return builder.build()


class TestExplainAnalyze:
    def test_instance_explain_analyze_merges_plan_and_actuals(self, instance):
        report = instance.explain_analyze(profile_query(instance))
        assert isinstance(report, ExplainReport)
        assert report.query == "profiles"
        assert report.rows == len(HANDLES)
        assert [step.mode for step in report.steps] == ["materialize", "bind"]
        glue_step = report.step("qG")
        assert glue_step is not None and glue_step.actual_rows == len(HANDLES)
        bind_step = report.step("prof")
        assert bind_step.bindings == len(HANDLES)
        assert bind_step.calls >= 1
        assert bind_step.batched_calls >= 1
        assert bind_step.rows_fetched == len(HANDLES)
        assert bind_step.seconds > 0.0
        assert bind_step.q_error >= 1.0
        assert report.total_seconds > 0.0

    def test_render_contains_the_table_and_timings(self, instance):
        report = instance.explain_analyze(profile_query(instance))
        text = report.render()
        assert "EXPLAIN ANALYZE" in text
        assert "prof" in text and "[batched]" in text
        assert "plan" in text and "execute" in text
        assert "trace total" in text
        assert "plan for profiles" in text  # plan text included by default
        assert "plan for profiles" not in report.render(include_plan=False)
        spanful = report.render(include_plan=False, include_spans=True)
        assert "stage:materialize" in spanful
        assert str(report) == report.render()

    def test_span_phases_populated_when_tracing(self, instance):
        report = instance.explain_analyze(profile_query(instance))
        assert report.plan_seconds is not None and report.plan_seconds > 0.0
        assert report.execute_seconds is not None
        assert report.queue_seconds is None  # no service queue involved
        assert report.span_tree is not None

    def test_span_phases_absent_outside_a_trace(self, instance):
        result = instance.execute(profile_query(instance))
        assert result.trace.spans is None
        report = explain_analyze(result)
        assert report.plan_seconds is None
        assert report.execute_seconds is None
        assert "trace total" in report.render()

    def test_spans_reconcile_with_trace_total(self, instance):
        """The execute span and `ExecutionTrace.total_seconds` time the
        same region with the same clock: within 5% (plus a small
        absolute slack for sub-millisecond queries)."""
        with spans.trace("t") as root:
            result = instance.execute(profile_query(instance))
        trace = result.trace
        execute_spans = trace.spans.find("execute")
        assert len(execute_spans) == 1
        span_seconds = execute_spans[0].seconds
        assert span_seconds == pytest.approx(
            trace.total_seconds, rel=0.05, abs=0.002)
        # Children never outlive the execute span.
        for child in trace.spans.spans:
            if child is not root:
                assert child.seconds <= span_seconds + 1e-6

    def test_explain_analyze_requires_a_trace(self):
        class Resultless:
            trace = None
            rows = []

        with pytest.raises(ValueError):
            explain_analyze(Resultless())

    def test_self_join_steps_attribute_calls_by_atom_identity(self, instance):
        """Two atoms sharing a relation (and a display name via the same
        SQL) must not pool each other's calls in the report."""
        builder = instance.builder("selfjoin", head=["id", "f"])
        builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
        builder.sql("prof", source="sql://profiles",
                    sql="SELECT handle AS id, followers AS f FROM profiles "
                        "WHERE handle = {id}")
        builder.sql("prof", source="sql://profiles",
                    sql="SELECT handle AS id, followers AS f FROM profiles "
                        "WHERE handle = {id}")
        report = instance.explain_analyze(builder.build())
        prof_steps = [s for s in report.steps if s.atom == "prof"]
        assert len(prof_steps) == 2
        for step in prof_steps:
            assert step.calls >= 1
            assert step.rows_fetched == step.actual_rows
