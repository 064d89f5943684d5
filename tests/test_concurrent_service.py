"""Concurrent mediator service: stress/equivalence + thread-safety seams.

The stress harness races N writer threads (mutating all four store
kinds) against M reader threads submitting mixed CMQs through the
:class:`~repro.service.MediatorService`.  Every completed ticket is then
re-evaluated **serially** against the snapshot catalog it pinned — the
two result sets must be identical, proving snapshot isolation: a query
never observes a torn or half-applied delta, only the exact versions it
pinned.

The second half regression-tests the thread-safety seams the service
leans on: the LRU cache, the statistics catalog's feedback revisions,
the sub-query result cache's per-binding probes, and the service's
scheduler semantics (priorities, admission, deadlines, cancellation).
"""

from __future__ import annotations

import os
import random
import threading
import time

import pytest

from repro.cache.lru import LRUCache
from repro.cache.results import CachedSource, SubQueryResultCache
from repro.core import CMQBuilder, MixedInstance, PlannerOptions
from repro.core.sources import DataSource
from repro.relational.source import SQLQuery
from repro.engine.batch import dict_rows
from repro.errors import AdmissionError, QueryCancelledError, QueryTimeoutError
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json.store import JSONDocumentStore
from repro.rdf import Graph, triple
from repro.relational import Database
from repro.service import MediatorService, ServiceConfig
from repro.stats.catalog import StatisticsCatalog

#: Reduced-budget knobs for CI (`REPRO_STRESS_READERS=4 ... pytest -m stress`).
READERS = int(os.environ.get("REPRO_STRESS_READERS", "8"))
WRITERS = int(os.environ.get("REPRO_STRESS_WRITERS", "2"))
QUERIES_PER_READER = int(os.environ.get("REPRO_STRESS_QUERIES", "5"))

HANDLES = [f"u{i}" for i in range(8)]
TOPICS = ["politics", "sports", "culture"]


def build_instance() -> MixedInstance:
    """A four-model instance: glue RDF + relational + full-text + JSON."""
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
    instance = MixedInstance(graph=glue, name="stress", entailment=False)
    instance.register_relational("sql://profiles", database)
    instance.register_fulltext("solr://posts", store)
    instance.register_json("json://tweets", documents)
    return instance


def mixed_queries(instance: MixedInstance) -> list:
    """CMQs spanning every model, bind joins included."""
    queries = []
    for topic in TOPICS:
        builder = instance.builder(f"q_{topic}")
        builder.graph("SELECT ?id ?p WHERE { ?x ttn:twitterAccount ?id . "
                      "?x ttn:memberOf ?p }")
        builder.sql("prof", source="sql://profiles",
                    sql="SELECT handle AS id, followers AS f FROM profiles "
                        "WHERE handle = {id}")
        builder.json("tweets", source="json://tweets",
                     pattern=f'{{ author: ?id, topic: "{topic}", likes: ?l }}')
        queries.append(builder.build())
    builder = instance.builder("q_posts")
    builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
    builder.fulltext("posts", source="solr://posts",
                     query="user.screen_name:{id}",
                     fields={"t": "text", "id": "user.screen_name"})
    queries.append(builder.build())
    return queries


def result_set(result):
    return sorted(tuple(sorted((k, str(v)) for k, v in row.items()))
                  for row in result.rows)


class Writers:
    """Background mutators hitting all four stores until stopped."""

    def __init__(self, instance: MixedInstance, count: int):
        self.instance = instance
        self.stop = threading.Event()
        self.errors: list[BaseException] = []
        self.threads = [threading.Thread(target=self._run, args=(i,), daemon=True)
                        for i in range(count)]

    def _run(self, seed: int) -> None:
        rng = random.Random(seed)
        graph = self.instance.glue_source
        table = self.instance.source("sql://profiles").database.table("profiles")
        posts = self.instance.source("solr://posts").store
        tweets = self.instance.source("json://tweets").store
        try:
            tick = 0
            while not self.stop.is_set():
                tick += 1
                handle = f"w{seed}_{tick}"
                kind = rng.randrange(4)
                if kind == 0:
                    graph.add_triples([
                        triple(f"ttn:W{seed}_{tick}", "ttn:twitterAccount", handle),
                        triple(f"ttn:W{seed}_{tick}", "ttn:memberOf", "ttn:PARTY0"),
                    ])
                elif kind == 1:
                    table.insert({"handle": handle, "followers": tick})
                elif kind == 2:
                    posts.add({"id": f"{seed}_{tick}",
                               "text": f"post about {rng.choice(TOPICS)} by {handle}",
                               "user": {"screen_name": handle}})
                else:
                    tweets.add({"id": f"{seed}_{tick}", "author": handle,
                                "topic": rng.choice(TOPICS), "likes": tick % 40})
                time.sleep(0.0005)
        except BaseException as exc:  # noqa: BLE001 - surfaced by the test
            self.errors.append(exc)

    def __enter__(self) -> "Writers":
        for thread in self.threads:
            thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=10)
        assert not self.errors, f"writer crashed: {self.errors[0]!r}"


# ---------------------------------------------------------------------------
# Stress / equivalence harness
# ---------------------------------------------------------------------------

@pytest.mark.stress
class TestStressEquivalence:
    def test_readers_vs_writers_snapshot_equivalence(self):
        """M readers × N writers over all four models: zero violations."""
        instance = build_instance()
        queries = mixed_queries(instance)
        violations: list[str] = []
        reader_errors: list[BaseException] = []
        tickets: list = []
        tickets_lock = threading.Lock()

        config = ServiceConfig(workers=max(4, READERS), max_queue_depth=256,
                               max_in_flight=512)
        with MediatorService(instance, config) as service, \
                Writers(instance, WRITERS):
            def read(seed: int) -> None:
                rng = random.Random(1000 + seed)
                try:
                    for _ in range(QUERIES_PER_READER):
                        ticket = service.submit(rng.choice(queries))
                        ticket.result(timeout=60)
                        with tickets_lock:
                            tickets.append(ticket)
                except BaseException as exc:  # noqa: BLE001
                    reader_errors.append(exc)

            readers = [threading.Thread(target=read, args=(i,), daemon=True)
                       for i in range(READERS)]
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=120)
            assert not reader_errors, f"reader crashed: {reader_errors[0]!r}"

            # Serial verification: each ticket's result must equal a
            # fresh, serial, cache-free run against the snapshot vector
            # the query pinned (the pinned stores are immutable, so this
            # is exact no matter what the writers did since).
            for ticket in tickets:
                serial = ticket.pinned.execute(
                    instance, ticket.query,
                    options=PlannerOptions(result_cache=False, plan_cache=False))
                if result_set(ticket.result()) != result_set(serial):
                    violations.append(ticket.query.name)

        assert tickets, "no queries completed"
        assert len(tickets) == READERS * QUERIES_PER_READER
        assert not violations, f"snapshot equivalence violated: {violations}"

    def test_pinned_vector_is_a_store_prefix(self):
        """Pinned versions never exceed live ones and stay internally
        consistent: the pinned wrapper's version matches its vector entry."""
        instance = build_instance()
        with Writers(instance, WRITERS):
            for _ in range(20):
                pinned = instance.pin()
                for uri, source in pinned.sources.items():
                    assert source.version() == pinned.versions[uri]
                    live = instance.source(uri)
                    assert pinned.versions[uri] <= live.version()
                assert pinned.glue.version() == pinned.versions["#glue"]
                time.sleep(0.002)


# ---------------------------------------------------------------------------
# Scheduler semantics
# ---------------------------------------------------------------------------

class TestScheduler:
    @pytest.fixture
    def instance(self):
        return build_instance()

    @pytest.fixture
    def query(self, instance):
        return mixed_queries(instance)[0]

    def test_priority_orders_the_queue(self, instance, query):
        """With one worker, lower priority values run first (FIFO ties)."""
        order: list[str] = []
        gate = threading.Event()

        class GatedSource(DataSource):
            model = "relational"

            def __init__(self, inner):
                super().__init__(inner.uri, name=inner.name)
                self.inner = inner

            def execute(self, q, bindings=None):
                gate.wait(10)
                return self.inner.execute(q, bindings)

            def execute_batch(self, q, batch):
                gate.wait(10)
                return self.inner.execute_batch(q, batch)

            def estimate(self, q, bound_variables=None):
                return self.inner.estimate(q, bound_variables)

            def version(self):
                return self.inner.version()

            def size(self):
                return self.inner.size()

        instance.register(GatedSource(instance.source("sql://profiles")))
        service = MediatorService(instance, ServiceConfig(workers=1))
        try:
            blocker = service.submit(query)  # occupies the single worker
            deadline = time.monotonic() + 10
            while blocker.status != "running" and time.monotonic() < deadline:
                time.sleep(0.001)
            low = service.submit(query, priority=50)
            high = service.submit(query, priority=1)
            mid = service.submit(query, priority=10)
            for ticket, label in ((low, "low"), (high, "high"), (mid, "mid")):
                ticket._original_finish = ticket._finish

                def finish(status, result=None, error=None, t=ticket, label=label):
                    order.append(label)
                    t._original_finish(status, result=result, error=error)

                ticket._finish = finish
            gate.set()
            for ticket in (blocker, low, high, mid):
                ticket.wait(timeout=30)
            assert order == ["high", "mid", "low"]
        finally:
            gate.set()
            service.shutdown()

    def test_admission_control_rejects_past_queue_depth(self, instance, query):
        gate = threading.Event()

        class SlowGlue(DataSource):
            model = "rdf"

            def __init__(self, inner):
                super().__init__(inner.uri, name=inner.name)
                self.inner = inner

            def execute(self, q, bindings=None):
                gate.wait(10)
                return self.inner.execute(q, bindings)

            def execute_batch(self, q, batch):
                gate.wait(10)
                return self.inner.execute_batch(q, batch)

            def estimate(self, q, bound_variables=None):
                return self.inner.estimate(q, bound_variables)

            def version(self):
                return self.inner.version()

            def size(self):
                return self.inner.size()

        instance._glue_source = SlowGlue(instance.glue_source)
        service = MediatorService(instance, ServiceConfig(
            workers=1, max_queue_depth=2, max_in_flight=8))
        try:
            tickets = [service.submit(query)]  # running
            deadline = time.monotonic() + 10
            while tickets[0].status != "running" and time.monotonic() < deadline:
                time.sleep(0.001)  # wait until it left the queue
            assert tickets[0].status == "running"
            tickets.append(service.submit(query))  # queued 1
            tickets.append(service.submit(query))  # queued 2
            with pytest.raises(AdmissionError):
                service.submit(query)
            assert service.statistics()["rejected"] == 1
            gate.set()
            for ticket in tickets:
                ticket.result(timeout=30)
        finally:
            gate.set()
            service.shutdown()

    def test_deadline_times_out_queued_query(self, instance, query):
        gate = threading.Event()

        class Stall(DataSource):
            model = "rdf"

            def __init__(self, inner):
                super().__init__(inner.uri, name=inner.name)
                self.inner = inner

            def execute(self, q, bindings=None):
                gate.wait(10)
                return self.inner.execute(q, bindings)

            def execute_batch(self, q, batch):
                gate.wait(10)
                return self.inner.execute_batch(q, batch)

            def estimate(self, q, bound_variables=None):
                return self.inner.estimate(q, bound_variables)

            def version(self):
                return self.inner.version()

            def size(self):
                return self.inner.size()

        instance._glue_source = Stall(instance.glue_source)
        service = MediatorService(instance, ServiceConfig(workers=1))
        try:
            service.submit(query)  # occupies the worker behind the gate
            doomed = service.submit(query, deadline=0.05)
            time.sleep(0.2)
            gate.set()
            with pytest.raises(QueryTimeoutError):
                doomed.result(timeout=30)
            assert doomed.status == "timed_out"
            assert service.statistics()["timed_out"] >= 1
        finally:
            gate.set()
            service.shutdown()

    def test_cancel_queued_query(self, instance, query):
        gate = threading.Event()

        class Stall(DataSource):
            model = "rdf"

            def __init__(self, inner):
                super().__init__(inner.uri, name=inner.name)
                self.inner = inner

            def execute(self, q, bindings=None):
                gate.wait(10)
                return self.inner.execute(q, bindings)

            def execute_batch(self, q, batch):
                gate.wait(10)
                return self.inner.execute_batch(q, batch)

            def estimate(self, q, bound_variables=None):
                return self.inner.estimate(q, bound_variables)

            def version(self):
                return self.inner.version()

            def size(self):
                return self.inner.size()

        instance._glue_source = Stall(instance.glue_source)
        service = MediatorService(instance, ServiceConfig(workers=1))
        try:
            service.submit(query)
            doomed = service.submit(query)
            assert doomed.cancel()
            gate.set()
            with pytest.raises(QueryCancelledError):
                doomed.result(timeout=30)
            assert doomed.status == "cancelled"
        finally:
            gate.set()
            service.shutdown()

    def test_results_match_direct_execution(self, instance, query):
        expected = result_set(instance.execute(query))
        with MediatorService(instance, ServiceConfig(workers=2)) as service:
            assert result_set(service.execute(query)) == expected

    def test_shutdown_rejects_new_work(self, instance, query):
        service = MediatorService(instance, ServiceConfig(workers=1))
        service.shutdown()
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            service.submit(query)

    def test_a_failing_pin_fails_its_ticket_and_the_worker_lives(
            self, instance, query, monkeypatch):
        source = instance.source("sql://profiles")
        pin, pins = source.pin, []

        def first_pin_raises():
            pins.append(1)
            if len(pins) == 1:
                raise RuntimeError("pin failed")
            return pin()

        monkeypatch.setattr(source, "pin", first_pin_raises)
        with MediatorService(instance, ServiceConfig(workers=1)) as service:
            doomed = service.submit(query)
            with pytest.raises(RuntimeError, match="pin failed"):
                doomed.result(timeout=10)
            assert doomed.status == "failed"
            # The only worker survived and serves the next ticket.
            assert service.execute(query, timeout=10).rows
            assert service.statistics()["failed"] == 1

    def test_a_repeated_query_after_a_burst_is_served_from_the_cache(
            self, instance, query):
        """Concurrent tickets of one query each answer like direct
        execution; once they finish, the cache serves the next ticket's
        SQL probes without a source call."""
        calls: list[int] = []

        class CountingSource(DataSource):
            model = "relational"

            def __init__(self, inner):
                super().__init__(inner.uri, name=inner.name)
                self.inner = inner

            def execute(self, q, bindings=None):
                calls.append(1)
                return self.inner.execute(q, bindings)

            def execute_batch(self, q, batch):
                calls.append(1)
                return self.inner.execute_batch(q, batch)

            def estimate(self, q, bound_variables=None):
                return self.inner.estimate(q, bound_variables)

            def version(self):
                return self.inner.version()

            def size(self):
                return self.inner.size()

            def pin(self):
                if self.pinned_at is not None:
                    return self
                pinned_inner = self.inner.pin()
                return self._memoized_pin(pinned_inner.version(),
                                          lambda: CountingSource(pinned_inner))

        expected = result_set(instance.execute(query))
        instance.register(CountingSource(instance.source("sql://profiles")))
        with MediatorService(instance, ServiceConfig(workers=4)) as service:
            burst = [service.submit(query) for _ in range(4)]
            assert [result_set(t.result(timeout=30)) for t in burst] == [expected] * 4
            assert calls
            shipped = len(calls)
            assert result_set(service.execute(query, timeout=30)) == expected
            assert len(calls) == shipped

    def test_stats_carry_the_keys_the_benchmark_reads(self, instance):
        with MediatorService(instance, ServiceConfig(workers=1)) as service:
            assert service.stats()["mqo"] == {
                "shared_subqueries": 0, "fused_probes": 0, "groups": 0}

    def test_shutdown_leaves_no_service_thread_and_no_ticket(self, instance):
        before = set(threading.enumerate())
        service = MediatorService(instance, ServiceConfig(workers=2))
        tickets = [service.submit(q) for q in mixed_queries(instance)]
        for ticket in tickets:
            ticket.result(timeout=30)
        service.register_standing(mixed_queries(instance)[0], lambda delta: None)
        service.shutdown(wait=True)

        prefixes = ("mediator-worker-", "mediator-standing")
        leaked = [thread.name for thread in threading.enumerate()
                  if thread not in before and thread.name.startswith(prefixes)]
        assert leaked == []
        statistics = service.statistics()
        assert statistics["queued"] == 0
        assert statistics["in_flight"] == 0


# ---------------------------------------------------------------------------
# Pinned entailment: seeded saturation, no per-version full fixpoint
# ---------------------------------------------------------------------------

class TestPinnedEntailment:
    def _source(self):
        from repro.rdf.source import RDFSource

        graph = Graph("ent")
        graph.add(triple("ttn:politician", "rdfs:subClassOf", "ttn:person"))
        graph.add(triple("ttn:X", "rdf:type", "ttn:politician"))
        return RDFSource("rdf://ent", graph, entailment=True)

    def _people(self, source):
        from repro.rdf.source import RDFQuery

        query = RDFQuery.from_text(
            "SELECT ?s WHERE { ?s rdf:type ttn:person }")
        return sorted(str(row["s"]).rsplit("#", 1)[-1]
                      for row in source.execute(query))

    def test_pinned_entailment_matches_live(self):
        source = self._source()
        assert self._people(source.pin()) == ["X"]
        source.add_triples([triple("ttn:Y", "rdf:type", "ttn:politician")])
        assert self._people(source.pin()) == ["X", "Y"]
        # The live wrapper agrees with its pins at every step.
        assert self._people(source) == ["X", "Y"]

    def test_pin_seeds_saturation_without_full_fixpoint(self, monkeypatch):
        import repro.rdf.source as rdf_source

        source = self._source()
        assert self._people(source) == ["X"]  # live saturation in sync

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("pin() ran a full from-scratch saturation")

        monkeypatch.setattr(rdf_source, "saturate", forbidden)
        # Seeded from the in-sync live saturation: no fixpoint.
        assert self._people(source.pin()) == ["X"]
        # Deltas through add_triples keep the live saturation in sync,
        # so the next pin seeds again instead of recomputing.
        source.add_triples([triple("ttn:Y", "rdf:type", "ttn:politician")])
        assert self._people(source.pin()) == ["X", "Y"]


# ---------------------------------------------------------------------------
# Thread-safety regression seams (PR 3 / PR 4 structures)
# ---------------------------------------------------------------------------

class TestLRUCacheConcurrency:
    def test_concurrent_put_get_remove_keeps_stats_consistent(self):
        cache = LRUCache(max_entries=64)
        errors: list[BaseException] = []

        def hammer(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for i in range(400):
                    key = ("k", rng.randrange(128))
                    op = rng.randrange(3)
                    if op == 0:
                        cache.put(key, (seed, i))
                    elif op == 1:
                        value = cache.get(key)
                        # Values are only whole tuples — never torn.
                        assert value is None or (isinstance(value, tuple)
                                                 and len(value) == 2)
                    else:
                        cache.remove(key)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[0]
        stats = cache.stats
        assert len(cache) <= 64
        assert stats.probes == stats.hits + stats.misses
        # Every entry still present was inserted and neither evicted nor
        # invalidated; the counters must balance exactly.
        assert stats.insertions - stats.evictions - stats.invalidations == len(cache)

    def test_eviction_under_concurrent_insertion(self):
        cache = LRUCache(max_entries=16)

        def fill(base: int) -> None:
            for i in range(200):
                cache.put((base, i), i)

        threads = [threading.Thread(target=fill, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(cache) == 16
        assert cache.stats.insertions == 800
        assert cache.stats.evictions == 800 - 16


class TestStatisticsCatalogConcurrency:
    def _source(self):
        database = Database("stats-db")
        database.create_table_from_rows(
            "t", [{"a": i, "b": i % 3} for i in range(10)])
        instance = MixedInstance(name="stats", entailment=False)
        return instance.register_relational("sql://stats", database)

    def test_concurrent_feedback_revision_bumps(self):
        catalog = StatisticsCatalog()
        source = self._source()
        threads = 8
        keys_per_thread = 25

        def record(seed: int) -> None:
            for i in range(keys_per_thread):
                # Distinct WHERE constants keep the canonical keys apart
                # (aliases alone could be canonicalised away).
                query = SQLQuery(
                    sql=f"SELECT a AS x FROM t WHERE a = {seed * 1000 + i}")
                catalog.record(source, query, set(), float(i))

        workers = [threading.Thread(target=record, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        # Every (thread, i) records a structurally distinct query with a
        # fresh value: all are effective, each bumps the revision once.
        assert catalog.feedback_count() == threads * keys_per_thread
        assert catalog.revision == threads * keys_per_thread

    def test_identical_feedback_bumps_once(self):
        catalog = StatisticsCatalog()
        source = self._source()
        query = SQLQuery(sql="SELECT a AS x FROM t")
        barrier = threading.Barrier(8)

        def record() -> None:
            barrier.wait(10)
            catalog.record(source, query, set(), 7.0)

        workers = [threading.Thread(target=record) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert catalog.feedback_count() == 1
        # Only the first effective change may bump (same value afterwards).
        assert catalog.revision == 1


class TestResultCacheConcurrency:
    def test_parallel_probes_return_whole_rows(self):
        """Concurrent CachedSource probes: never torn, always correct."""
        database = Database("cc-db")
        database.create_table_from_rows(
            "t", [{"k": f"k{i}", "v": i} for i in range(16)])
        instance = MixedInstance(name="cc", entailment=False)
        source = instance.register_relational("sql://cc", database)
        cache = SubQueryResultCache(max_entries=256)
        proxy = CachedSource(source, cache)
        query = SQLQuery(sql="SELECT k AS k, v AS v FROM t WHERE k = {k}")
        errors: list[BaseException] = []

        def probe(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(200):
                    i = rng.randrange(16)
                    rows = proxy.execute(query, {"k": f"k{i}"})
                    assert rows == [{"k": f"k{i}", "v": i}], rows
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=probe, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[0]
        stats = cache.stats
        assert stats.probes == 8 * 200
        # At most one miss per distinct binding is *required*; duplicated
        # fills under races are allowed but must stay rare and harmless.
        assert stats.hits >= stats.probes - 8 * 16

    def test_parallel_batch_probes_ship_only_misses(self):
        database = Database("cc2-db")
        database.create_table_from_rows(
            "t", [{"k": f"k{i}", "v": i} for i in range(8)])
        instance = MixedInstance(name="cc2", entailment=False)
        source = instance.register_relational("sql://cc2", database)
        cache = SubQueryResultCache(max_entries=256)
        proxy = CachedSource(source, cache)
        query = SQLQuery(sql="SELECT k AS k, v AS v FROM t WHERE k = {k}")
        batch = [{"k": f"k{i}"} for i in range(8)]
        expected = [[{"k": f"k{i}", "v": i}] for i in range(8)]
        results: dict[int, list] = {}

        def run(seed: int) -> None:
            results[seed] = list(map(dict_rows, proxy.execute_batch(query, batch)))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        for seed in range(6):
            assert results[seed] == expected
