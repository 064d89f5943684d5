"""Service observability: stats(), span trees, warnings, stress series."""

from __future__ import annotations

import logging
import os
import threading

import pytest

from repro.core import CMQBuilder, MixedInstance
from repro.errors import AdmissionError
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json.store import JSONDocumentStore
from repro.obs.metrics import MetricsRegistry, get_registry, reset_registry
from repro.rdf import Graph, triple
from repro.relational import Database
from repro.service import MediatorService, ServiceConfig

pytestmark = pytest.mark.obs

HANDLES = [f"u{i}" for i in range(8)]
TOPICS = ["politics", "sports", "culture"]

QUERIES = int(os.environ.get("REPRO_STRESS_QUERIES", "5"))


def build_instance(cache: bool = True) -> MixedInstance:
    glue = Graph("glue")
    for i, handle in enumerate(HANDLES):
        glue.add(triple(f"ttn:P{i}", "ttn:twitterAccount", handle))
        glue.add(triple(f"ttn:P{i}", "ttn:memberOf", f"ttn:PARTY{i % 3}"))
    database = Database("profiles-db")
    database.create_table_from_rows(
        "profiles", [{"handle": handle, "followers": 100 * (i + 1)}
                     for i, handle in enumerate(HANDLES)])
    store = FullTextStore("posts", fields=[
        FieldConfig("text", "text"),
        FieldConfig("user.screen_name", "keyword"),
    ], default_field="text")
    documents = JSONDocumentStore("tweets")
    for i in range(24):
        handle = HANDLES[i % len(HANDLES)]
        topic = TOPICS[i % len(TOPICS)]
        store.add({"id": i, "text": f"post about {topic} by {handle}",
                   "user": {"screen_name": handle}})
        documents.add({"id": i, "author": handle, "topic": topic,
                       "likes": (i * 7) % 40})
    instance = MixedInstance(graph=glue, name="obs-service",
                             entailment=False, cache=cache)
    instance.register_relational("sql://profiles", database)
    instance.register_fulltext("solr://posts", store)
    instance.register_json("json://tweets", documents)
    return instance


def profile_query(instance: MixedInstance):
    builder = instance.builder("profiles", head=["id", "f"])
    builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
    builder.sql("prof", source="sql://profiles",
                sql="SELECT handle AS id, followers AS f FROM profiles "
                    "WHERE handle = {id}")
    return builder.build()


def wide_query(instance: MixedInstance, topic: str = "politics"):
    """A three-model join: glue graph, profiles table, JSON documents.

    One party's three accounts of eight, so the profiles step binds: over
    every account it would cover the table and be materialised."""
    builder = instance.builder(f"wide_{topic}", head=["id", "f", "l"])
    builder.graph("SELECT ?id WHERE { ?x ttn:memberOf ttn:PARTY0 . "
                  "?x ttn:twitterAccount ?id }")
    builder.sql("prof", source="sql://profiles",
                sql="SELECT handle AS id, followers AS f FROM profiles")
    builder.json("tweets", source="json://tweets",
                 pattern=f'{{ author: ?id, topic: "{topic}", likes: ?l }}')
    return builder.build()


class TestServiceStats:
    def test_stats_counts_and_latency_summary(self):
        instance = build_instance()
        with MediatorService(instance, metrics=MetricsRegistry()) as service:
            for _ in range(3):
                service.execute(profile_query(instance), timeout=10)
            stats = service.stats()
        assert stats["submitted"] == 3
        assert stats["completed"] == 3
        assert stats["failed"] == 0
        assert stats["rejected"] == 0
        assert stats["deadline_misses"] == 0
        assert stats["latency_seconds"]["count"] == 3
        assert stats["latency_seconds"]["p95"] >= stats["latency_seconds"]["p50"]
        assert stats["queue_wait_seconds"]["count"] == 3

    def test_dedicated_registry_is_used(self):
        instance = build_instance()
        registry = MetricsRegistry()
        with MediatorService(instance, metrics=registry) as service:
            service.execute(profile_query(instance), timeout=10)
        assert registry.value("service_completed_total") == 1.0
        assert registry.value("executor_queries_total") == 1.0
        # Cache callbacks registered against the service's registry.
        assert registry.value("cache_entries", cache="results") is not None


class TestServiceSpans:
    def test_ticket_span_tree_covers_every_phase(self):
        instance = build_instance()
        with MediatorService(instance, metrics=MetricsRegistry()) as service:
            ticket = service.submit(profile_query(instance))
            ticket.result(timeout=10)
        tracer = ticket.span_tree
        assert tracer is not None
        names = [span.name for span in tracer.spans]
        assert names[0] == "query:profiles"
        for expected in ("queue", "execute", "plan", "stage:materialize",
                         "call", "bind:prof"):
            assert expected in names, f"missing span {expected!r}"
        root = tracer.root()
        assert root.attributes["status"] == "done"
        # Every span is closed and parented inside the tree.
        ids = {span.span_id for span in tracer.spans}
        for span in tracer.spans:
            assert span.ended_at is not None
            assert span.parent_id is None or span.parent_id in ids
        # The executor's trace shares the ticket's tracer.
        assert ticket.result().trace.spans is tracer

    def test_ticket_explain_analyze_includes_queue_wait(self):
        instance = build_instance()
        with MediatorService(instance, metrics=MetricsRegistry()) as service:
            ticket = service.submit(profile_query(instance))
            report = ticket.explain_analyze(timeout=10)
        assert report.query == "profiles"
        assert report.queue_seconds is not None and report.queue_seconds >= 0.0
        assert report.execute_seconds is not None
        assert "queue" in report.render()

    def test_tracing_off_leaves_no_tree(self):
        instance = build_instance()
        config = ServiceConfig(tracing=False)
        with MediatorService(instance, config,
                             metrics=MetricsRegistry()) as service:
            ticket = service.submit(profile_query(instance))
            ticket.result(timeout=10)
        assert ticket.span_tree is None
        assert ticket.root_span is None


class TestServiceWarnings:
    def test_admission_rejection_warns(self, caplog):
        instance = build_instance()
        config = ServiceConfig(max_queue_depth=0, max_in_flight=0)
        with MediatorService(instance, config,
                             metrics=MetricsRegistry()) as service:
            with caplog.at_level(logging.WARNING, logger="repro.service"):
                with pytest.raises(AdmissionError):
                    service.submit(profile_query(instance))
        assert any("admission refused" in record.message
                   for record in caplog.records)
        assert service.stats()["rejected"] == 1

    def test_deadline_miss_warns_and_counts(self, caplog):
        instance = build_instance()
        registry = MetricsRegistry()
        with MediatorService(instance, metrics=registry) as service:
            with caplog.at_level(logging.WARNING, logger="repro.service"):
                ticket = service.submit(profile_query(instance), deadline=0.0)
                ticket.wait(timeout=10)
        assert ticket.status == "timed_out"
        assert any("missed its deadline" in record.message
                   for record in caplog.records)
        assert registry.value("service_deadline_misses_total") == 1.0
        assert service.stats()["deadline_misses"] == 1.0


@pytest.mark.stress
class TestMetricsUnderLoad:
    def test_snapshot_reports_every_subsystem(self):
        """After a loaded run the global registry must have non-zero
        queue, cache, executor, pool and per-source series."""
        registry = reset_registry()
        try:
            instance = build_instance()
            queries = [wide_query(instance, topic) for topic in TOPICS]
            # A deadline bounds the wait on every dispatch, so each call
            # of those tickets runs on the service's shared work pool.
            with MediatorService(instance, ServiceConfig(workers=4)) as service:
                tickets = [service.submit(queries[i % len(queries)],
                                          deadline=30.0 if i % 2 else None)
                           for i in range(max(4, QUERIES * 2))]
                for ticket in tickets:
                    ticket.result(timeout=30)

            snapshot = get_registry().snapshot()
            assert snapshot["service_submitted_total"] >= 4
            assert snapshot["service_completed_total"] >= 4
            assert snapshot["service_latency_seconds"]["count"] >= 4
            assert snapshot["service_queue_wait_seconds"]["count"] >= 4
            assert snapshot["executor_queries_total"] >= 4
            # Per-source series for every registered source.
            for uri in ("#glue", "sql://profiles", "json://tweets"):
                assert snapshot[f"source_calls_total{{source={uri}}}"] > 0
                assert snapshot[f"source_rows_total{{source={uri}}}"] > 0
                assert snapshot[
                    f"source_call_seconds{{source={uri}}}"]["count"] > 0
            # Cache callbacks (the service registered the instance cache).
            assert snapshot["cache_misses{cache=results}"] > 0
            assert snapshot["cache_entries{cache=results}"] > 0
            # Batched bind joins shipped bindings.
            assert snapshot["executor_shipped_bindings_total"] > 0
            # The deadline-bounded dispatches exercised a pool.
            pools = get_registry().series("pool_tasks_total")
            assert sum(pools.values()) > 0
            text = get_registry().render_prometheus()
            assert "service_latency_seconds_bucket" in text
        finally:
            reset_registry()

    def test_rwlock_contention_is_recorded(self):
        registry = reset_registry()
        try:
            from repro.locks import RWLock

            lock = RWLock()
            entered = threading.Event()
            release = threading.Event()

            def writer():
                with lock.write_locked():
                    entered.set()
                    release.wait(5)

            thread = threading.Thread(target=writer)
            thread.start()
            entered.wait(5)
            waited = threading.Event()

            def reader():
                with lock.read_locked():
                    waited.set()

            reader_thread = threading.Thread(target=reader)
            reader_thread.start()
            # Let the reader actually block on the held write lock.
            import time as _time

            _time.sleep(0.05)
            release.set()
            thread.join(5)
            reader_thread.join(5)
            assert waited.is_set()
            summary = registry.value("rwlock_wait_seconds", side="read")
            assert summary is not None and summary["count"] >= 1
            assert summary["max"] >= 0.04
        finally:
            reset_registry()
