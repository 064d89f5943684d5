"""Span tracer: nesting, no-op mode, cross-thread propagation, clocks."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.datasets import DemoConfig, build_demo_instance, qsia_json_query
from repro.engine.parallel import run_calls
from repro.obs.spans import (
    SpanTracer,
    attach,
    current_span,
    detach,
    span,
    span_under,
    trace,
)
from repro.service import MediatorService, ServiceConfig

pytestmark = pytest.mark.obs


class TestSpanBasics:
    def test_trace_opens_root_and_restores_context(self):
        assert current_span() is None
        with trace("unit", kind="test") as root:
            assert current_span() is root
            assert root.parent_id is None
            assert root.attributes == {"kind": "test"}
        assert current_span() is None
        assert root.ended_at is not None

    def test_span_nests_under_current(self):
        with trace("root") as root:
            with span("child") as child:
                assert child.parent_id == root.span_id
                with span("grandchild") as grandchild:
                    assert grandchild.parent_id == child.span_id
            assert current_span() is root
        tracer = root.tracer
        assert [s.name for s in tracer.spans] == ["root", "child", "grandchild"]

    def test_span_is_noop_outside_any_trace(self):
        with span("orphan") as sp:
            assert sp is None
        assert current_span() is None

    def test_span_under_explicit_parent_and_none(self):
        with trace("root") as root:
            pass
        with span_under(root, "late-child") as sp:
            assert sp.parent_id == root.span_id
        with span_under(None, "nothing") as sp:
            assert sp is None

    def test_end_is_idempotent(self):
        tracer = SpanTracer("t")
        sp = tracer.start("s")
        sp.end()
        first = sp.ended_at
        time.sleep(0.002)
        sp.end()
        assert sp.ended_at == first

    def test_set_and_end_attributes(self):
        tracer = SpanTracer("t")
        sp = tracer.start("s", a=1)
        sp.set(b=2)
        sp.end(c=3)
        assert sp.attributes == {"a": 1, "b": 2, "c": 3}

    def test_exports(self):
        with trace("root") as root:
            with span("child", rows=3):
                time.sleep(0.001)
        tracer = root.tracer
        assert len(tracer) == 2
        assert tracer.root() is root
        assert len(tracer.find("child")) == 1
        assert tracer.total_seconds() >= 0.001
        dicts = tracer.to_dicts()
        assert dicts[0]["parent"] is None
        assert dicts[1]["parent"] == root.span_id
        assert dicts[1]["attributes"] == {"rows": 3}
        payload = json.loads(tracer.to_json())
        assert payload["trace"] == "root"
        assert len(payload["spans"]) == 2
        rendered = tracer.render()
        assert "root" in rendered and "child" in rendered
        assert "ms" in rendered and "%" in rendered

    def test_attach_detach_roundtrip(self):
        tracer = SpanTracer("t")
        root = tracer.start("root")
        token = attach(root)
        assert current_span() is root
        detach(token)
        assert current_span() is None


class TestCrossThreadPropagation:
    def test_pooled_calls_carry_the_current_span(self):
        with trace("root") as root:
            def work(i):
                parent = current_span()
                with span(f"task-{i}") as sp:
                    return parent.span_id, sp.parent_id, threading.get_ident()

            outcomes = run_calls([(lambda i=i: work(i), True) for i in range(6)])
        parents = {parent for parent, _, _ in outcomes}
        assert parents == {root.span_id}
        assert all(parent == span_parent for parent, span_parent, _ in outcomes)
        # The pooled spans all landed in the root's tracer.
        names = {s.name for s in root.tracer.spans}
        assert {f"task-{i}" for i in range(6)} <= names

    def test_run_calls_keeps_parentage_of_the_stage_span(self):
        """The executor opens a stage span on the query's thread and
        submits the stage's source calls as one flat ``run_calls`` batch;
        the call spans, pooled under a deadline, must chain to the stage
        span."""
        with trace("root") as root:
            with span("stage") as stage_span:
                def call(j):
                    with span(f"call-{j}") as call_span:
                        return call_span.parent_id

                parents = run_calls([(lambda j=j: call(j), False) for j in range(6)],
                                    timeout=30.0)
        assert parents == [stage_span.span_id] * 6
        assert len(root.tracer) == 1 + 1 + 6

    def test_inline_calls_propagate_too(self):
        with trace("root") as root:
            outcomes = run_calls(
                [(lambda: current_span().span_id, False)] * 3)
        assert outcomes == [root.span_id] * 3


class TestSpansFollowTheCaller:
    """The executor traces like every other span helper: inside an open
    trace, and nowhere else."""

    @pytest.fixture(scope="class")
    def demo(self):
        return build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42))

    def test_a_query_outside_a_trace_builds_no_spans(self, demo):
        assert current_span() is None
        result = demo.instance.execute(qsia_json_query(demo))
        assert result.rows and result.trace.spans is None

    def test_a_service_without_tracing_builds_no_spans(self, demo):
        with MediatorService(demo.instance, ServiceConfig(workers=1, tracing=False)) as service:
            ticket = service.submit(qsia_json_query(demo))
            result = ticket.result(timeout=30)
        assert result.rows and result.trace.spans is None
        assert ticket.span_tree is None

    def test_a_query_inside_a_trace_nests_under_it(self, demo):
        with trace("t") as root:
            result = demo.instance.execute(qsia_json_query(demo))
        tracer = result.trace.spans
        assert tracer is root.tracer
        (execute,) = tracer.find("execute")
        assert execute.parent_id == root.span_id
        parents = {s.span_id: s.parent_id for s in tracer.spans}

        def under_execute(s) -> bool:
            parent = s.parent_id
            while parent is not None and parent != execute.span_id:
                parent = parents[parent]
            return parent == execute.span_id

        names = {s.name.split(":")[0] for s in tracer.spans if under_execute(s)}
        assert {"plan", "stage", "call"} <= names
        calls = [s for s in tracer.find("call") if under_execute(s)]
        assert len(calls) == len(result.trace.calls)

    def test_explain_analyze_opens_its_own_trace(self, demo):
        assert current_span() is None
        report = demo.instance.explain_analyze(qsia_json_query(demo))
        assert report.plan_seconds is not None and report.plan_seconds > 0.0
        assert report.execute_seconds is not None and report.execute_seconds > 0.0
        assert current_span() is None


class TestMonotonicClocks:
    def test_span_durations_survive_wall_clock_freeze(self, monkeypatch):
        """Spans must time with perf_counter, not the wall clock."""
        import repro.obs.spans as spans_mod

        monkeypatch.setattr(time, "time", lambda: 0.0)
        with trace("root") as root:
            time.sleep(0.005)
        assert root.seconds >= 0.004

    def test_no_wall_clock_timing_in_library_sources(self):
        """`time.time()` must not be used for durations anywhere in src.

        Every duration stamp (`SubQueryCall.seconds`,
        `ExecutionTrace.total_seconds`, span timings, lock waits) uses
        the monotonic `time.perf_counter()`.
        """
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if "time.time()" in line.split("#")[0]:
                    offenders.append(f"{path.name}:{number}")
        assert offenders == []
