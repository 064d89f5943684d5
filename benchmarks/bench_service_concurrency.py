"""Concurrent serving: throughput and latency vs worker count.

The mediator's sources are remote systems in the paper's deployment —
every sub-query is a network round trip.  This bench wraps each source
in a :class:`LatencySource` simulating that round-trip delay, then
drives a **mixed read/write workload** through the
:class:`~repro.service.MediatorService`: reader clients submit CMQs
spanning all four models while a writer keeps mutating every store
(forcing fresh snapshot pins along the way).  Measured per worker
count: query throughput and p50/p95 end-to-end latency.

Run as a script (``python bench_service_concurrency.py [--smoke]``) it
writes ``BENCH_service.json`` to the repo root; the full run asserts
the ≥3x throughput target at 8 workers vs 1.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from pathlib import Path

from repro.core import MixedInstance
from repro.core.sources import DataSource
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json.store import JSONDocumentStore
from repro.rdf import Graph, triple
from repro.relational import Database
from repro.service import MediatorService, ServiceConfig

try:  # pytest import path (benchmarks/conftest.py) vs script execution
    from conftest import report
except ImportError:  # pragma: no cover - script mode
    def report(title, rows, columns=None):
        print(f"\n[{title}]")
        for row in rows:
            print("  " + " | ".join(f"{k}={v}" for k, v in row.items()))

HANDLES = [f"u{i}" for i in range(8)]
TOPICS = ["politics", "sports", "culture"]

#: Simulated source round-trip (seconds); one per mediator call, so a
#: batched bind join pays it once per batch, like the real wrappers.
LATENCY = 0.008


class LatencySource(DataSource):
    """Delegating wrapper adding a per-call network round-trip delay."""

    def __init__(self, inner: DataSource, delay: float = LATENCY):
        super().__init__(inner.uri, name=inner.name, description=inner.description)
        self.inner = inner
        self.delay = delay
        self.model = inner.model

    def execute(self, query, bindings=None):
        time.sleep(self.delay)
        return self.inner.execute(query, bindings)

    def execute_batch(self, query, bindings_batch):
        time.sleep(self.delay)
        return self.inner.execute_batch(query, bindings_batch)

    def estimate(self, query, bound_variables=None):
        return self.inner.estimate(query, bound_variables)

    def version(self):
        return self.inner.version()

    def size(self):
        return self.inner.size()

    def pin(self):
        if self.pinned_at is not None:
            return self
        pinned_inner = self.inner.pin()
        version = pinned_inner.version()
        return self._memoized_pin(
            version, lambda: LatencySource(pinned_inner, self.delay))


def build_instance() -> MixedInstance:
    glue = Graph("bench-glue")
    for i, handle in enumerate(HANDLES):
        glue.add(triple(f"ttn:P{i}", "ttn:twitterAccount", handle))
        glue.add(triple(f"ttn:P{i}", "ttn:memberOf", f"ttn:PARTY{i % 3}"))
    database = Database("bench-db")
    database.create_table_from_rows(
        "profiles", [{"handle": handle, "followers": 100 * (i + 1)}
                     for i, handle in enumerate(HANDLES)])
    store = FullTextStore("bench-posts", fields=[
        FieldConfig("text", "text"),
        FieldConfig("user.screen_name", "keyword"),
    ], default_field="text")
    documents = JSONDocumentStore("bench-tweets")
    for i in range(48):
        handle = HANDLES[i % len(HANDLES)]
        topic = TOPICS[i % len(TOPICS)]
        store.add({"id": i, "text": f"post about {topic} by {handle}",
                   "user": {"screen_name": handle}})
        documents.add({"id": i, "author": handle, "topic": topic,
                       "likes": (i * 7) % 40})
    # cache=False: the bench measures dispatch concurrency, not the
    # result cache (bench_caching covers that axis).
    instance = MixedInstance(graph=glue, name="bench-service",
                             entailment=False, cache=False)
    instance.register(LatencySource(
        instance.register_relational("sql://profiles", database)))
    instance.register(LatencySource(
        instance.register_fulltext("solr://posts", store)))
    instance.register(LatencySource(
        instance.register_json("json://tweets", documents)))
    return instance


def workload(instance: MixedInstance) -> list:
    """Mixed CMQs: every query joins the glue graph with a remote source."""
    queries = []
    for topic in TOPICS:
        builder = instance.builder(f"w_sql_{topic}")
        builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
        builder.sql("prof", source="sql://profiles",
                    sql="SELECT handle AS id, followers AS f FROM profiles "
                        "WHERE handle = {id}")
        queries.append(builder.build())
        builder = instance.builder(f"w_json_{topic}")
        builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
        builder.json("tweets", source="json://tweets",
                     pattern=f'{{ author: ?id, topic: "{topic}", likes: ?l }}')
        queries.append(builder.build())
    builder = instance.builder("w_posts")
    builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
    builder.fulltext("posts", source="solr://posts",
                     query="user.screen_name:{id}",
                     fields={"t": "text", "id": "user.screen_name"})
    queries.append(builder.build())
    return queries


class Writer:
    """Mutates all four stores for the duration of one measurement."""

    def __init__(self, instance: MixedInstance, period: float = 0.005):
        self.instance = instance
        self.period = period
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.mutations = 0

    def _run(self) -> None:
        graph = self.instance.glue_source
        table = self.instance.source("sql://profiles").inner.database.table("profiles")
        posts = self.instance.source("solr://posts").inner.store
        tweets = self.instance.source("json://tweets").inner.store
        tick = 0
        while not self.stop.is_set():
            tick += 1
            handle = f"w{tick}"
            kind = tick % 4
            if kind == 0:
                graph.add_triples(
                    [triple(f"ttn:W{tick}", "ttn:twitterAccount", handle)])
            elif kind == 1:
                table.insert({"handle": handle, "followers": tick})
            elif kind == 2:
                posts.add({"id": f"w{tick}", "text": "delta post about politics",
                           "user": {"screen_name": handle}})
            else:
                tweets.add({"id": f"w{tick}", "author": handle,
                            "topic": "politics", "likes": tick % 40})
            self.mutations += 1
            time.sleep(self.period)

    def __enter__(self) -> "Writer":
        self.thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop.set()
        self.thread.join(timeout=10)


def measure(workers: int, total_queries: int) -> dict[str, object]:
    """One mixed read/write measurement at a given worker count."""
    instance = build_instance()
    queries = workload(instance)
    config = ServiceConfig(workers=workers, max_queue_depth=total_queries + 8,
                           max_in_flight=total_queries + 16)
    with MediatorService(instance, config) as service, Writer(instance):
        start = time.perf_counter()
        tickets = [service.submit(queries[i % len(queries)])
                   for i in range(total_queries)]
        for ticket in tickets:
            ticket.result(timeout=300)
        wall = time.perf_counter() - start
    latencies = sorted(t.latency for t in tickets)
    p50 = statistics.median(latencies)
    p95 = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))]
    return {
        "workers": workers,
        "queries": total_queries,
        "wall_seconds": round(wall, 4),
        "throughput_qps": round(total_queries / wall, 2),
        "p50_ms": round(p50 * 1000, 2),
        "p95_ms": round(p95 * 1000, 2),
    }


def run(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    total_queries = 24 if smoke else 80
    worker_counts = [1, 8] if smoke else [1, 2, 4, 8]

    series = [measure(workers, total_queries) for workers in worker_counts]
    report("service concurrency (mixed read/write workload)", series)

    by_workers = {row["workers"]: row for row in series}
    speedup = (by_workers[8]["throughput_qps"] / by_workers[1]["throughput_qps"]
               if 8 in by_workers and 1 in by_workers else None)
    payload = {
        "benchmark": "service_concurrency",
        "smoke": smoke,
        "latency_per_call_seconds": LATENCY,
        "series": series,
        "speedup_8_vs_1": round(speedup, 2) if speedup is not None else None,
    }
    print(f"\nthroughput speedup at 8 workers vs 1: {payload['speedup_8_vs_1']}x")
    if not smoke and speedup is not None:
        assert speedup >= 3.0, (
            f"expected >= 3x throughput at 8 workers vs 1, got {speedup:.2f}x")

    out_path = Path(__file__).resolve().parents[1] / "BENCH_service.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# pytest entry point (smoke-sized)
# ---------------------------------------------------------------------------

def test_service_scales_with_workers():
    """More workers → more throughput on the latency-bound mixed workload."""
    one = measure(1, 16)
    eight = measure(8, 16)
    assert eight["throughput_qps"] > one["throughput_qps"] * 1.5


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
