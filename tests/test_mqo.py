"""Multi-query optimization: single-flight, group admission, equivalence.

Covers the three layers of the MQO subsystem:

* :class:`~repro.service.mqo.MQOCoordinator` — identical in-flight
  probes are evaluated once and read under each caller's own variable
  names, a failed or stalled carrier never poisons its riders, and no
  in-flight entry outlives its call;
* the served path — a burst of overlapping queries through
  :class:`MediatorService` evaluates each shared sub-plan exactly once
  (asserted via source call counters) and reports the sharing in
  ``stats()["mqo"]``, the trace and EXPLAIN ANALYZE;
* correctness — a hypothesis property that group-planned results equal
  per-query results over random overlapping CMQ batches across all
  four data models, and a stress test that single-flight fan-out under
  concurrent tickets and writers never mixes pinned snapshot versions.

Also the satellite regressions: :class:`CachedSource` delegation of
``cost_kind`` / ``trust_wrapper_estimate`` / ``pin()``, per-entry stale
pointer eviction and the bounded canonical memo.
"""

from __future__ import annotations

import os
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache.results import CachedSource, SubQueryResultCache
from repro.core import MixedInstance, PlannerOptions
from repro.core.sources import DataSource, FullTextQuery, SQLQuery
from repro.engine.batch import dict_rows
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json.store import JSONDocumentStore
from repro.rdf import Graph, triple
from repro.relational import Database
from repro.remote import LocalTransport, RemoteSource, RemoteSourceHandler
from repro.service import MediatorService, ServiceConfig
from repro.service import mqo as mqo_module
from repro.service.mqo import MQOCoordinator

pytestmark = pytest.mark.mqo

HANDLES = [f"u{i}" for i in range(6)]
TOPICS = ["politics", "sports"]

#: Cache-free evaluation for independent reference runs (serial with
#: ``max_workers=1``).
SERIAL = PlannerOptions(result_cache=False, plan_cache=False)

STRESS_QUERIES = int(os.environ.get("REPRO_STRESS_QUERIES", "24"))


class CountingSource(DataSource):
    """Delegating wrapper counting real source calls, with a delay.

    The delay models a network round trip: it keeps a source call in
    flight long enough for concurrently-admitted tickets to ride it,
    which is what makes the exactly-once assertions deterministic.
    """

    def __init__(self, inner: DataSource, counters: "CallCounters",
                 delay: float = 0.0):
        super().__init__(inner.uri, name=inner.name,
                         description=inner.description)
        self.inner = inner
        self.counters = counters
        self.delay = delay
        self.model = inner.model

    def _count(self) -> None:
        with self.counters.lock:
            self.counters.calls[self.uri] = self.counters.calls.get(self.uri, 0) + 1

    def execute(self, query, bindings=None):
        self._count()
        if self.delay:
            time.sleep(self.delay)
        return self.inner.execute(query, bindings)

    def execute_batch(self, query, bindings_batch):
        self._count()
        if self.delay:
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
        return self._memoized_pin(
            pinned_inner.version(),
            lambda: CountingSource(pinned_inner, self.counters, self.delay))


class CallCounters:
    def __init__(self):
        self.lock = threading.Lock()
        self.calls: dict[str, int] = {}


def build_instance(delay: float = 0.0,
                   counters: CallCounters | None = None) -> MixedInstance:
    """A four-model instance: glue + SQL + full-text + JSON + RDF."""
    glue = Graph("glue")
    for i, handle in enumerate(HANDLES):
        glue.add(triple(f"ttn:P{i}", "ttn:twitterAccount", handle))
    database = Database("db")
    database.create_table_from_rows(
        "profiles", [{"handle": handle, "followers": 100 * (i + 1)}
                     for i, handle in enumerate(HANDLES)])
    store = FullTextStore("posts", fields=[
        FieldConfig("text", "text"),
        FieldConfig("user.screen_name", "keyword"),
    ], default_field="text")
    documents = JSONDocumentStore("tweets")
    for i in range(12):
        handle = HANDLES[i % len(HANDLES)]
        topic = TOPICS[i % len(TOPICS)]
        store.add({"id": i, "text": f"post about {topic} by {handle}",
                   "user": {"screen_name": handle}})
        documents.add({"id": i, "author": handle, "topic": topic, "likes": i})
    rdf_graph = Graph("handles")
    for i, handle in enumerate(HANDLES):
        rdf_graph.add(triple(f"ttn:A{i}", "ttn:handle", handle))
        rdf_graph.add(triple(f"ttn:A{i}", "ttn:followers", 1000 * (i + 1)))
    instance = MixedInstance(graph=glue, name="mqo-test", entailment=False)
    registered = [
        instance.register_relational("sql://profiles", database),
        instance.register_fulltext("solr://posts", store),
        instance.register_json("json://tweets", documents),
        instance.register_rdf("rdf://handles", rdf_graph),
    ]
    if counters is not None or delay:
        for wrapper in registered:
            instance.register(CountingSource(wrapper, counters or CallCounters(),
                                             delay))
    return instance


def make_query(instance: MixedInstance, shape: int, param: int):
    """One of four overlapping CMQ shapes, each hitting a different model."""
    topic = TOPICS[param % len(TOPICS)]
    builder = instance.builder(f"mqo_{shape}_{param}")
    builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
    if shape == 0:
        builder.sql("prof", source="sql://profiles",
                    sql="SELECT handle AS id, followers AS f FROM profiles "
                        "WHERE handle = {id}")
    elif shape == 1:
        builder.json("tweets", source="json://tweets",
                     pattern=f'{{ author: ?id, topic: "{topic}", likes: ?l }}')
    elif shape == 2:
        builder.fulltext("posts", source="solr://posts",
                         query="user.screen_name:{id}",
                         fields={"t": "text", "id": "user.screen_name"})
    else:
        builder.rdf("acc", "SELECT ?id ?f WHERE { ?a ttn:handle ?id . "
                           "?a ttn:followers ?f }", source="rdf://handles")
    return builder.build()


def result_set(result):
    return sorted(tuple(sorted((k, str(v)) for k, v in row.items()))
                  for row in result.rows)


# ---------------------------------------------------------------------------
# The single-flight contract
# ---------------------------------------------------------------------------

def posts_by(variable: str) -> FullTextQuery:
    """The posts of one account, spelled with the caller's own names."""
    return FullTextQuery.create(
        f"user.screen_name:{{{variable}}}",
        {f"text_{variable}": "text", variable: "user.screen_name"})


class GatedSource(DataSource):
    """The posts store behind a gate: a call announces itself, then
    blocks until released — so a test decides who is in flight when.
    ``fail_first`` makes the first call raise once released."""

    def __init__(self, fail_first: bool = False):
        self.inner = build_instance().source("solr://posts")
        super().__init__(self.inner.uri)
        self.model = self.inner.model
        self.fail_first = fail_first
        self.calls: list[list[dict]] = []
        self.entered, self.gate = threading.Event(), threading.Event()

    def version(self):
        return 1

    def execute(self, query, bindings=None):
        return self.execute_batch(query, [bindings or {}])[0]

    def execute_batch(self, query, bindings_batch):
        self.calls.append([dict(b) for b in bindings_batch])
        first = len(self.calls) == 1
        self.entered.set()
        assert self.gate.wait(5.0)
        if first and self.fail_first:
            raise RuntimeError("the carrier's source call died")
        return self.inner.execute_batch(query, bindings_batch)

    def expected(self, variable: str, handle: str) -> list[dict]:
        return self.inner.execute(posts_by(variable), {variable: handle})


def in_thread(outcome: dict, name: str, call) -> threading.Thread:
    def run():
        try:
            outcome[name] = call()
        except RuntimeError as exc:
            outcome[name] = exc

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def wait_for(condition, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert condition()


def ride(source: GatedSource, bus: MQOCoordinator, release) -> dict:
    """A carrier asks for u1's posts as ``{id}``; while its call is in
    flight a rider with its own proxy asks for the same rows as ``{h}``.
    ``release()`` runs once the rider waits on the carrier's key."""
    cache = SubQueryResultCache()
    carrier = CachedSource(source, cache, mqo=bus)
    rider = CachedSource(source, cache, mqo=bus)
    outcome: dict[str, object] = {}
    threads = [in_thread(outcome, "carrier", lambda: carrier.execute_batch(
        posts_by("id"), [{"id": "u1"}]))]
    assert source.entered.wait(5.0)
    threads.append(in_thread(outcome, "rider", lambda: rider.execute(
        posts_by("h"), {"h": "u1"})))
    # The rider has missed too; give it the instant from there to the
    # in-flight map before anyone is released.
    wait_for(lambda: cache.stats.misses == 2)
    time.sleep(0.05)
    release()
    for thread in threads:
        thread.join(10.0)
        assert not thread.is_alive()
    assert bus._in_flight == {}
    return outcome


def test_single_flight_evaluates_once_and_renames_per_caller():
    source, bus = GatedSource(), MQOCoordinator()
    outcome = ride(source, bus, source.gate.set)
    assert source.calls == [[{"id": "u1"}]]  # the shared probe ran once
    assert outcome["carrier"] == [source.expected("id", "u1")]
    assert outcome["rider"] == source.expected("h", "u1") != []
    stats = bus.stats()
    assert stats["shared_subqueries"] == 1
    assert stats["source_calls_saved"] == 1


def test_failed_carrier_fails_alone_and_the_rider_re_evaluates():
    source, bus = GatedSource(fail_first=True), MQOCoordinator()
    outcome = ride(source, bus, source.gate.set)
    assert isinstance(outcome["carrier"], RuntimeError)
    assert outcome["rider"] == source.expected("h", "u1")
    assert source.calls == [[{"id": "u1"}], [{"h": "u1"}]]
    # The rider did the work itself: it is not charged any sharing.
    assert bus.stats()["shared_subqueries"] == 0


def test_rider_falls_back_when_the_carrier_outlives_the_timeout(monkeypatch):
    monkeypatch.setattr(mqo_module, "RIDER_TIMEOUT", 0.05)
    source, bus = GatedSource(), MQOCoordinator()

    def release():
        # Nobody releases the carrier until the rider, done waiting,
        # has shipped a call of its own.
        wait_for(lambda: len(source.calls) == 2)
        source.gate.set()

    outcome = ride(source, bus, release)
    assert source.calls == [[{"id": "u1"}], [{"h": "u1"}]]
    assert outcome["rider"] == source.expected("h", "u1")
    assert outcome["carrier"] == [source.expected("id", "u1")]
    assert bus.stats()["shared_subqueries"] == 0


def test_key_duplicated_inside_one_call_is_evaluated_once():
    source, bus = GatedSource(), MQOCoordinator()
    source.gate.set()
    proxy = CachedSource(source, SubQueryResultCache(), mqo=bus)
    rows = proxy.execute_batch(posts_by("id"),
                               [{"id": "u1"}, {"id": "u2"}, {"id": "u1"}])
    assert source.calls == [[{"id": "u1"}, {"id": "u2"}]]
    assert rows == [source.expected("id", handle) for handle in ("u1", "u2", "u1")]
    assert bus._in_flight == {}
    assert bus.stats()["shared_subqueries"] == 0


def test_service_stats_carry_the_keys_the_benchmark_reads():
    with MediatorService(build_instance(), ServiceConfig(workers=1)) as service:
        assert {"shared_subqueries", "fused_probes", "groups"} <= set(
            service.stats()["mqo"])


# ---------------------------------------------------------------------------
# Satellite regressions in the cache layer
# ---------------------------------------------------------------------------

def test_cached_source_delegates_cost_kind_trust_and_pin():
    """A remote source seen through the cache proxy keeps remote pricing."""
    database = Database("db")
    database.create_table_from_rows(
        "profiles", [{"handle": "u0", "followers": 100}])
    inner = MixedInstance(graph=Graph("g"), name="inner", entailment=False)
    wrapper = inner.register_relational("sql://profiles", database)
    remote = RemoteSource(LocalTransport(RemoteSourceHandler(wrapper).handle))
    proxy = CachedSource(remote, SubQueryResultCache())

    assert proxy.cost_kind == "remote"
    assert proxy.trust_wrapper_estimate is remote.trust_wrapper_estimate
    pinned = proxy.pin()
    assert isinstance(pinned, CachedSource)
    # A remote clone pins with its first use, not at ``pin()``.
    assert pinned.pinned_at is None
    assert pinned.version() == wrapper.version()
    assert pinned.pinned_at == pinned.inner.pinned_at == wrapper.version()
    assert pinned.cost_kind == "remote"
    assert pinned.cache is proxy.cache


def sql_probe_key(cache, wrapper, version, value):
    query = SQLQuery(sql="SELECT handle AS id, followers AS f FROM profiles "
                         "WHERE handle = {id}")
    canon = cache.canonicalize(query)
    (key,) = cache.keys(wrapper, version, canon, [canon.key_of({"id": value})])
    assert key is not None
    return key, canon


def test_stale_pointers_are_evicted_per_entry():
    """LRU evictions drop exactly their own stale pointer, nothing else."""
    database = Database("db")
    database.create_table_from_rows(
        "profiles", [{"handle": h, "followers": 1} for h in HANDLES])
    inner = MixedInstance(graph=Graph("g"), name="inner", entailment=False)
    wrapper = inner.register_relational("sql://profiles", database)
    cache = SubQueryResultCache(max_entries=2)

    keys = [sql_probe_key(cache, wrapper, 1, f"u{i}") for i in range(3)]
    for (key, canon), i in zip(keys, range(3)):
        cache.insert(key, canon, [{"id": f"u{i}", "f": i}])

    # Entry 0 was evicted (capacity 2): its stale pointer is gone, the
    # survivors' pointers still answer — no wholesale flush.
    query = SQLQuery(sql="SELECT handle AS id, followers AS f FROM profiles "
                         "WHERE handle = {id}")
    assert cache.fetch_stale(wrapper, query, {"id": "u0"}) is None
    assert dict_rows(cache.fetch_stale(wrapper, query, {"id": "u1"})) == [{"id": "u1", "f": 1}]
    assert dict_rows(cache.fetch_stale(wrapper, query, {"id": "u2"})) == [{"id": "u2", "f": 2}]
    # The index can never outgrow the entries map again.
    assert len(cache._stale) == len(cache.entries) == 2


def test_stale_pointer_redirected_to_newer_version_survives_old_eviction():
    database = Database("db")
    database.create_table_from_rows(
        "profiles", [{"handle": h, "followers": 1} for h in HANDLES])
    inner = MixedInstance(graph=Graph("g"), name="inner", entailment=False)
    wrapper = inner.register_relational("sql://profiles", database)
    cache = SubQueryResultCache(max_entries=2)

    old_key, canon = sql_probe_key(cache, wrapper, 1, "u0")
    new_key, _ = sql_probe_key(cache, wrapper, 2, "u0")
    cache.insert(old_key, canon, [{"id": "u0", "f": 1}])
    cache.insert(new_key, canon, [{"id": "u0", "f": 2}])  # pointer -> v2
    filler, filler_canon = sql_probe_key(cache, wrapper, 1, "u1")
    cache.insert(filler, filler_canon, [{"id": "u1", "f": 1}])  # evicts v1 entry

    # Evicting the *old* version's entry must not drop the pointer that
    # already targets the newer entry.
    query = SQLQuery(sql="SELECT handle AS id, followers AS f FROM profiles "
                         "WHERE handle = {id}")
    assert dict_rows(cache.fetch_stale(wrapper, query, {"id": "u0"})) == [{"id": "u0", "f": 2}]


def test_canonical_memo_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(SubQueryResultCache, "MAX_CANONICAL_MEMO", 4)
    cache = SubQueryResultCache()
    hot = SQLQuery(sql="SELECT a FROM hot WHERE a = {p}")
    assert cache.canonicalize(hot) is not None
    for i in range(8):
        cold = SQLQuery(sql=f"SELECT a FROM t{i} WHERE a = {{p}}")
        assert cache.canonicalize(cold) is not None
        # Keep the hot query recent: it must never be flushed by cold
        # forms aging through the memo.
        assert cache.canonicalize(hot) is not None
    assert len(cache._canonical) <= 4
    assert hot in cache._canonical


# ---------------------------------------------------------------------------
# The served path: exactly-once sharing across tickets
# ---------------------------------------------------------------------------

def test_burst_of_overlapping_queries_shares_the_subplan():
    counters = CallCounters()
    instance = build_instance(delay=0.4, counters=counters)
    query = make_query(instance, 0, 0)
    reference = result_set(instance.pin().execute(
        instance, query, options=SERIAL, cache=False, max_workers=1))
    baseline = counters.calls.get("sql://profiles", 0)
    config = ServiceConfig(workers=4)
    with MediatorService(instance, config) as service:
        tickets = [service.submit(query) for _ in range(4)]
        served = [result_set(ticket.result(timeout=60)) for ticket in tickets]
        stats = service.stats()

    assert all(rows == reference for rows in served)
    # The shared sub-plan (the SQL probes of all four tickets) hit the
    # source exactly once: one leader shipped, everyone else rode.
    assert counters.calls["sql://profiles"] - baseline == 1
    mqo = stats["mqo"]
    assert mqo["shared_subqueries"] > 0
    traces = [ticket.result().trace for ticket in tickets]
    assert sum(t.shared_subqueries for t in traces) > 0
    sharing = next(t for t in tickets if t.result().trace.shared_subqueries)
    assert "mqo:" in sharing.explain_analyze().render()
    assert "mqo:" in sharing.result().trace.summary()


# ---------------------------------------------------------------------------
# Correctness properties
# ---------------------------------------------------------------------------

batches = st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                             st.integers(min_value=0, max_value=1)),
                   min_size=2, max_size=6)


@given(batch=batches)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_group_planned_results_equal_per_query_results(batch):
    """MQO-served answers == independent per-query evaluation, across
    random overlapping batches over all four data models."""
    instance = build_instance()
    queries = [make_query(instance, shape, param) for shape, param in batch]
    pinned = instance.pin()
    reference = [result_set(pinned.execute(instance, q, options=SERIAL,
                                           cache=False, max_workers=1))
                 for q in queries]
    config = ServiceConfig(workers=4, mqo_group_size=8)
    with MediatorService(instance, config) as service:
        tickets = [service.submit(q) for q in queries]
        served = [result_set(t.result(timeout=60)) for t in tickets]
    assert served == reference


@pytest.mark.stress
def test_single_flight_never_mixes_pinned_snapshot_versions():
    """Concurrent tickets sharing work under racing writers each answer
    exactly what their own pinned snapshot answers."""
    instance = build_instance(delay=0.005, counters=CallCounters())
    query = make_query(instance, 0, 0)
    database = instance.source("sql://profiles").inner.database
    stop = threading.Event()

    def writer():
        i = 0
        while not stop.is_set():
            database.table("profiles").insert(
                {"handle": f"w{i}", "followers": i})
            i += 1
            time.sleep(0.002)

    writer_thread = threading.Thread(target=writer)
    config = ServiceConfig(workers=8, mqo_group_size=4)
    with MediatorService(instance, config) as service:
        writer_thread.start()
        try:
            tickets = []
            for _ in range(STRESS_QUERIES):
                tickets.append(service.submit(query))
                time.sleep(0.004)
            for ticket in tickets:
                ticket.result(timeout=60)
        finally:
            stop.set()
            writer_thread.join(5.0)

    by_version: dict[tuple, list] = {}
    for ticket in tickets:
        version_vector = tuple(sorted(ticket.versions.items()))
        rows = result_set(ticket.result())
        # Same pinned vector => same rows, regardless of who evaluated
        # which shared sub-plan.
        assert by_version.setdefault(version_vector, rows) == rows
        # And the rows are exactly what this ticket's own (immutable)
        # snapshot answers when evaluated independently.
        independent = result_set(ticket.pinned.execute(
            instance, query, options=SERIAL, cache=False, max_workers=1))
        assert rows == independent
