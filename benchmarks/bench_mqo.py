"""Multi-query optimization: shared sub-plans vs the per-query path.

The paper's mediator serves many journalists asking near-identical
questions about the same live stores.  This bench models that load: a
**capacity-constrained remote source** (one request at a time, a fixed
round-trip delay — rate limits and connection pools make real wrappers
behave this way) under an **80%-overlapping workload** — four out of
five submissions are the same hot CMQ, the rest rotate through distinct
shapes — while a writer keeps mutating every store so the cross-version
result cache cannot hide the source calls.

Measured: throughput with MQO on (group admission + single-flight
shared sub-plans) vs ``ServiceConfig(mqo=False)`` (the per-query
reference path), plus a thundering-herd burst of identical queries
asserting the shared sub-plan hits the source **exactly once** (via
source call counters).

Run as a script (``python bench_mqo.py [--smoke]``) it writes
``BENCH_mqo.json`` to the repo root; the full run asserts the >= 3x
throughput target.
"""

from __future__ import annotations

import json
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

#: Simulated source round-trip (seconds per call).
LATENCY = 0.04
#: Fraction of submissions that are the hot query.
HOT_FRACTION = 0.8


class CallCounters:
    def __init__(self):
        self.lock = threading.Lock()
        self.calls: dict[str, int] = {}

    def total(self) -> int:
        with self.lock:
            return sum(self.calls.values())


class ConstrainedSource(DataSource):
    """Delegating wrapper: counted calls, fixed delay, capacity one.

    The per-source gate is the point of the bench — a saved source call
    is saved *capacity*, not just saved latency, so redundant probes
    from overlapping queries queue up behind each other exactly like
    they would against a rate-limited remote API.
    """

    def __init__(self, inner: DataSource, counters: CallCounters,
                 delay: float = LATENCY, gate: threading.Lock | None = None):
        super().__init__(inner.uri, name=inner.name,
                         description=inner.description)
        self.inner = inner
        self.counters = counters
        self.delay = delay
        self.gate = gate if gate is not None else threading.Lock()
        self.model = inner.model

    def _call(self):
        with self.counters.lock:
            self.counters.calls[self.uri] = self.counters.calls.get(self.uri, 0) + 1

    def execute(self, query, bindings=None):
        with self.gate:
            self._call()
            time.sleep(self.delay)
            return self.inner.execute(query, bindings)

    def execute_batch(self, query, bindings_batch):
        with self.gate:
            self._call()
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
        # Share the gate and the counters: pinning a snapshot does not
        # conjure up extra capacity at the remote system.
        return self._memoized_pin(
            pinned_inner.version(),
            lambda: ConstrainedSource(pinned_inner, self.counters,
                                      self.delay, self.gate))


def build_instance(counters: CallCounters,
                   delay: float = LATENCY) -> MixedInstance:
    glue = Graph("mqo-glue")
    for i, handle in enumerate(HANDLES):
        glue.add(triple(f"ttn:P{i}", "ttn:twitterAccount", handle))
    database = Database("mqo-db")
    database.create_table_from_rows(
        "profiles", [{"handle": handle, "followers": 100 * (i + 1)}
                     for i, handle in enumerate(HANDLES)])
    store = FullTextStore("mqo-posts", fields=[
        FieldConfig("text", "text"),
        FieldConfig("user.screen_name", "keyword"),
    ], default_field="text")
    documents = JSONDocumentStore("mqo-tweets")
    for i in range(48):
        handle = HANDLES[i % len(HANDLES)]
        topic = TOPICS[i % len(TOPICS)]
        store.add({"id": i, "text": f"post about {topic} by {handle}",
                   "user": {"screen_name": handle}})
        documents.add({"id": i, "author": handle, "topic": topic,
                       "likes": (i * 7) % 40})
    instance = MixedInstance(graph=glue, name="bench-mqo", entailment=False)
    instance.register(ConstrainedSource(
        instance.register_relational("sql://profiles", database),
        counters, delay))
    instance.register(ConstrainedSource(
        instance.register_fulltext("solr://posts", store),
        counters, delay))
    instance.register(ConstrainedSource(
        instance.register_json("json://tweets", documents),
        counters, delay))
    return instance


def hot_query(instance: MixedInstance):
    builder = instance.builder("hot_profiles")
    builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
    builder.sql("prof", source="sql://profiles",
                sql="SELECT handle AS id, followers AS f FROM profiles "
                    "WHERE handle = {id}")
    return builder.build()


def cold_queries(instance: MixedInstance) -> list:
    queries = []
    for topic in TOPICS:
        builder = instance.builder(f"cold_json_{topic}")
        builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
        builder.json("tweets", source="json://tweets",
                     pattern=f'{{ author: ?id, topic: "{topic}", likes: ?l }}')
        queries.append(builder.build())
    builder = instance.builder("cold_posts")
    builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
    builder.fulltext("posts", source="solr://posts",
                     query="user.screen_name:{id}",
                     fields={"t": "text", "id": "user.screen_name"})
    queries.append(builder.build())
    return queries


def schedule(instance: MixedInstance, total: int) -> list:
    """Deterministic 80%-overlapping submission order."""
    hot = hot_query(instance)
    cold = cold_queries(instance)
    period = max(2, round(1.0 / (1.0 - HOT_FRACTION)))
    out, cold_cursor = [], 0
    for i in range(total):
        if i % period == period - 1:
            out.append(cold[cold_cursor % len(cold)])
            cold_cursor += 1
        else:
            out.append(hot)
    return out


class Writer:
    """Mutates the stores so pinned versions keep advancing."""

    def __init__(self, instance: MixedInstance, period: float = 0.004):
        self.instance = instance
        self.period = period
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        table = self.instance.source("sql://profiles").inner.database.table("profiles")
        posts = self.instance.source("solr://posts").inner.store
        tweets = self.instance.source("json://tweets").inner.store
        tick = 0
        while not self.stop.is_set():
            tick += 1
            handle = f"w{tick}"
            kind = tick % 3
            if kind == 0:
                table.insert({"handle": handle, "followers": tick})
            elif kind == 1:
                posts.add({"id": f"w{tick}", "text": "delta post",
                           "user": {"screen_name": handle}})
            else:
                tweets.add({"id": f"w{tick}", "author": handle,
                            "topic": "politics", "likes": tick % 40})
            time.sleep(self.period)

    def __enter__(self) -> "Writer":
        self.thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop.set()
        self.thread.join(timeout=10)


def measure(mqo: bool, total_queries: int,
            delay: float = LATENCY) -> dict[str, object]:
    """One overlapping-workload measurement, MQO on or off."""
    counters = CallCounters()
    instance = build_instance(counters, delay)
    queries = schedule(instance, total_queries)
    config = ServiceConfig(workers=8, mqo=mqo, mqo_group_size=16,
                           max_queue_depth=total_queries + 8,
                           max_in_flight=total_queries + 16,
                           task_workers=4)
    with MediatorService(instance, config) as service, Writer(instance):
        start = time.perf_counter()
        tickets = [service.submit(query) for query in queries]
        for ticket in tickets:
            ticket.result(timeout=300)
        wall = time.perf_counter() - start
        stats = service.stats()
    row = {
        "mode": "mqo" if mqo else "per-query",
        "queries": total_queries,
        "wall_seconds": round(wall, 4),
        "throughput_qps": round(total_queries / wall, 2),
        "source_calls": counters.total(),
    }
    if mqo:
        row["shared_subqueries"] = stats["mqo"]["shared_subqueries"]
        row["groups"] = stats["mqo"]["groups"]
    return row


def thundering_herd(mqo: bool, burst: int = 8,
                    delay: float = 0.15) -> dict[str, object]:
    """Burst of identical queries; count how often the source is hit."""
    counters = CallCounters()
    instance = build_instance(counters, delay)
    query = hot_query(instance)
    config = ServiceConfig(workers=burst, mqo=mqo)
    with MediatorService(instance, config) as service:
        start = time.perf_counter()
        tickets = [service.submit(query) for _ in range(burst)]
        rows = [len(ticket.result(timeout=300).rows) for ticket in tickets]
        wall = time.perf_counter() - start
    assert len(set(rows)) == 1, "identical queries must agree on the answer"
    return {
        "mode": "mqo" if mqo else "per-query",
        "burst": burst,
        "source_calls": counters.total(),
        "wall_seconds": round(wall, 4),
    }


def run(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    total_queries = 16 if smoke else 64

    series = [measure(False, total_queries), measure(True, total_queries)]
    report(f"80%-overlapping workload ({total_queries} queries, "
           f"capacity-one sources)", series)
    herd = [thundering_herd(False), thundering_herd(True)]
    report("thundering herd (identical burst)", herd)

    off, on = series
    speedup = round(on["throughput_qps"] / off["throughput_qps"], 2)
    print(f"\nMQO throughput speedup on the overlapping workload: {speedup}x "
          f"({off['source_calls']} -> {on['source_calls']} source calls)")
    herd_on = next(row for row in herd if row["mode"] == "mqo")
    herd_off = next(row for row in herd if row["mode"] == "per-query")
    # The headline exactly-once guarantee: the whole burst shares one
    # evaluation of the shared sub-plan.
    assert herd_on["source_calls"] == 1, (
        f"expected the herd's shared sub-plan to hit the source exactly "
        f"once, saw {herd_on['source_calls']} calls")
    assert on["source_calls"] < off["source_calls"]
    if not smoke:
        assert speedup >= 3.0, (
            f"expected >= 3x throughput with MQO on the overlapping "
            f"workload, got {speedup:.2f}x")

    payload = {
        "benchmark": "mqo",
        "smoke": smoke,
        "latency_per_call_seconds": LATENCY,
        "hot_fraction": HOT_FRACTION,
        "series": series,
        "thundering_herd": herd,
        "speedup_mqo_vs_per_query": speedup,
        "herd_calls_per_query_path": herd_off["source_calls"],
    }
    out_path = Path(__file__).resolve().parents[1] / "BENCH_mqo.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# pytest entry point (smoke-sized)
# ---------------------------------------------------------------------------

def test_mqo_shares_the_herd_and_beats_per_query():
    """A burst of identical queries hits the source once under MQO, and
    the overlapping workload runs faster than the per-query path."""
    herd = thundering_herd(True, burst=6, delay=0.1)
    assert herd["source_calls"] == 1
    off = measure(False, 12, delay=0.02)
    on = measure(True, 12, delay=0.02)
    assert on["source_calls"] < off["source_calls"]
    assert on["throughput_qps"] > off["throughput_qps"]


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
