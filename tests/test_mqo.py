"""Multi-query optimization: fusion bus, group admission, equivalence.

Covers the three layers of the MQO subsystem:

* :class:`~repro.service.mqo.MQOCoordinator` in isolation — identical
  in-flight probes single-flight onto one evaluation, compatible
  distinct probes fuse into one call, a failed carrier never poisons
  its riders;
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
from repro.core.sources import DataSource, SQLQuery
from repro.engine.batch import dict_rows
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json.store import JSONDocumentStore
from repro.rdf import Graph, triple
from repro.relational import Database
from repro.remote import LocalTransport, RemoteSource, RemoteSourceHandler
from repro.service import MediatorService, ServiceConfig
from repro.service.mqo import MQOCoordinator

pytestmark = pytest.mark.mqo

HANDLES = [f"u{i}" for i in range(6)]
TOPICS = ["politics", "sports"]

#: Serial, cache-free evaluation for independent reference runs.
SERIAL = PlannerOptions(parallel_stages=False, result_cache=False,
                        plan_cache=False)

STRESS_QUERIES = int(os.environ.get("REPRO_STRESS_QUERIES", "24"))


class CountingSource(DataSource):
    """Delegating wrapper counting real source calls, with a delay.

    The delay models a network round trip: it keeps a fused call in
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
# MQOCoordinator in isolation
# ---------------------------------------------------------------------------

KEY = ("sql://s", 1, 7, ("sql", "q"), ("?0",))


def probe_for(value: str):
    return ((("sql://s", 1, 7, ("sql", "q"), (("?0", ("str", value)),)),
             {"?0": value}))


def must_not_run(probes):  # pragma: no cover - failure path
    raise AssertionError("a rider's runner must never be invoked")


def test_single_flight_evaluates_once():
    bus = MQOCoordinator(window=0.05)
    bus.ticket_started()
    bus.ticket_started()
    calls: list[list] = []
    started, gate = threading.Event(), threading.Event()

    def slow_runner(probes):
        calls.append([key for key, _ in probes])
        started.set()
        assert gate.wait(5.0)
        return [[{"?0": "a", "rows": 1}] for _ in probes]

    outcome: dict[str, tuple] = {}

    def leader():
        outcome["leader"] = bus.fuse(KEY, [probe_for("a")], slow_runner)

    def rider():
        outcome["rider"] = bus.fuse(KEY, [probe_for("a")], must_not_run)

    leader_thread = threading.Thread(target=leader)
    leader_thread.start()
    assert started.wait(5.0)
    rider_thread = threading.Thread(target=rider)
    rider_thread.start()
    time.sleep(0.1)  # let the rider register on the in-flight slot
    gate.set()
    leader_thread.join(5.0)
    rider_thread.join(5.0)

    assert len(calls) == 1  # the shared sub-plan ran exactly once
    lead_rows, lead_shared, lead_fused = outcome["leader"]
    ride_rows, ride_shared, ride_fused = outcome["rider"]
    assert lead_rows == ride_rows
    assert (lead_shared, lead_fused) == (0, 0)
    assert (ride_shared, ride_fused) == (1, 0)
    stats = bus.stats()
    assert stats["shared_subqueries"] == 1
    assert stats["source_calls_saved"] == 1


def test_probe_fusion_merges_distinct_probes_into_one_call():
    bus = MQOCoordinator(window=0.5)
    bus.ticket_started()
    bus.ticket_started()
    calls: list[list] = []

    def leader_runner(probes):
        calls.append(sorted(binding["?0"] for _, binding in probes))
        return [[{"?0": binding["?0"]}] for _, binding in probes]

    outcome: dict[str, tuple] = {}

    def leader():
        outcome["leader"] = bus.fuse(KEY, [probe_for("a")], leader_runner,
                                     batched=True)

    leader_thread = threading.Thread(target=leader)
    leader_thread.start()
    time.sleep(0.1)  # inside the leader's fusion window
    outcome["rider"] = bus.fuse(KEY, [probe_for("b")], must_not_run,
                                batched=True)
    leader_thread.join(5.0)

    assert calls == [["a", "b"]]  # one fused call carried both probes
    assert outcome["rider"][0] == [[{"?0": "b"}]]
    assert outcome["rider"][1:] == (0, 1)
    assert outcome["leader"][0] == [[{"?0": "a"}]]
    stats = bus.stats()
    assert stats["fused_probes"] == 1
    assert stats["fused_calls"] == 1


def test_rider_falls_back_when_the_carrier_fails():
    bus = MQOCoordinator(window=0.05)
    bus.ticket_started()
    bus.ticket_started()
    started, gate = threading.Event(), threading.Event()

    def failing_runner(probes):
        started.set()
        assert gate.wait(5.0)
        raise RuntimeError("the leader's source call died")

    recovered: list[list] = []

    def recovery_runner(probes):
        recovered.append([binding["?0"] for _, binding in probes])
        return [[{"?0": binding["?0"]}] for _, binding in probes]

    outcome: dict[str, object] = {}

    def leader():
        try:
            bus.fuse(KEY, [probe_for("a")], failing_runner)
        except RuntimeError as exc:
            outcome["leader_error"] = exc

    def rider():
        outcome["rider"] = bus.fuse(KEY, [probe_for("a")], recovery_runner)

    leader_thread = threading.Thread(target=leader)
    leader_thread.start()
    assert started.wait(5.0)
    rider_thread = threading.Thread(target=rider)
    rider_thread.start()
    time.sleep(0.1)
    gate.set()
    leader_thread.join(5.0)
    rider_thread.join(5.0)

    # The leader sees its own failure; the rider re-evaluates on its
    # own and is not charged any sharing.
    assert isinstance(outcome["leader_error"], RuntimeError)
    rows, shared, fused = outcome["rider"]
    assert rows == [[{"?0": "a"}]]
    assert (shared, fused) == (0, 0)
    assert recovered == [["a"]]


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
    keyed = cache.key_for(wrapper, version, query, {"id": value})
    assert keyed is not None
    return keyed


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
    reference = result_set(instance.pin().execute(instance, query,
                                                  options=SERIAL, cache=False))
    baseline = counters.calls.get("sql://profiles", 0)
    config = ServiceConfig(workers=4, mqo_fusion_window=0.05)
    with MediatorService(instance, config) as service:
        tickets = [service.submit(query) for _ in range(4)]
        served = [result_set(ticket.result(timeout=60)) for ticket in tickets]
        stats = service.stats()

    assert all(rows == reference for rows in served)
    # The shared sub-plan (the SQL probes of all four tickets) hit the
    # source exactly once: one leader shipped, everyone else rode.
    assert counters.calls["sql://profiles"] - baseline == 1
    mqo = stats["mqo"]
    assert mqo["shared_subqueries"] + mqo["fused_probes"] > 0
    traces = [ticket.result().trace for ticket in tickets]
    assert sum(t.shared_subqueries + t.fused_probes for t in traces) > 0
    sharing = next(t for t in tickets
                   if t.result().trace.shared_subqueries
                   or t.result().trace.fused_probes)
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
                                           cache=False))
                 for q in queries]
    config = ServiceConfig(workers=4, mqo_group_size=8,
                           mqo_fusion_window=0.005)
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
    config = ServiceConfig(workers=8, mqo_group_size=4,
                           mqo_fusion_window=0.01)
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
            instance, query, options=SERIAL, cache=False))
        assert rows == independent
