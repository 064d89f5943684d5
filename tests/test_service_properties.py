"""Snapshot-isolation property: random delta/query interleavings.

Hypothesis drives random sequences of deltas (triple adds/removes, row
inserts, document adds/removes across all four store kinds) split at a
random cut point, plus a random mixed CMQ.  The property: a catalog
pinned after the prefix observes *exactly* the prefix state —

* its version vector equals the live vector at pin time, per source
  (never a mix of pre- and post-delta versions);
* query results against the pin are identical before and after the
  suffix deltas land, and equal a reference run over an instance built
  from the prefix alone;
* re-pinning an unchanged source returns the *same* frozen wrapper
  (copy-on-write memoisation), while any effective delta moves the
  version strictly forward.

A second property serves random overlapping batches of CMQs over all
four data models as concurrent tickets: each answer equals the query's
own independent evaluation.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import MixedInstance, PlannerOptions
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json.store import JSONDocumentStore
from repro.rdf import Graph, triple
from repro.relational import Database
from repro.service import MediatorService, ServiceConfig

pytestmark = pytest.mark.stress

HANDLES = [f"u{i}" for i in range(6)]
TOPICS = ["politics", "sports"]

#: Cache-free evaluation so every run is independent.
SERIAL = PlannerOptions(result_cache=False, plan_cache=False)


def build_instance(cache: bool = False) -> MixedInstance:
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
    for i in range(10):
        handle = HANDLES[i % len(HANDLES)]
        topic = TOPICS[i % len(TOPICS)]
        store.add({"id": i, "text": f"post about {topic} by {handle}",
                   "user": {"screen_name": handle}})
        documents.add({"id": i, "author": handle, "topic": topic,
                       "likes": i})
    rdf_graph = Graph("handles")
    for i, handle in enumerate(HANDLES):
        rdf_graph.add(triple(f"ttn:A{i}", "ttn:handle", handle))
        rdf_graph.add(triple(f"ttn:A{i}", "ttn:followers", 1000 * (i + 1)))
    instance = MixedInstance(graph=glue, name="prop", entailment=False,
                             cache=cache)
    instance.register_relational("sql://profiles", database)
    instance.register_fulltext("solr://posts", store)
    instance.register_json("json://tweets", documents)
    instance.register_rdf("rdf://handles", rdf_graph)
    return instance


def apply_delta(instance: MixedInstance, delta: tuple) -> None:
    kind, payload = delta
    if kind == "rdf_add":
        instance.glue_source.add_triples(
            [triple(f"ttn:D{payload}", "ttn:twitterAccount", f"d{payload}")])
    elif kind == "rdf_remove":
        instance.graph.remove(
            triple(f"ttn:P{payload % len(HANDLES)}", "ttn:twitterAccount",
                   HANDLES[payload % len(HANDLES)]))
    elif kind == "sql_insert":
        instance.source("sql://profiles").database.table("profiles").insert(
            {"handle": f"d{payload}", "followers": payload})
    elif kind == "ft_add":
        instance.source("solr://posts").store.add(
            {"id": f"d{payload}", "text": f"delta post about {TOPICS[payload % 2]}",
             "user": {"screen_name": f"d{payload}"}})
    elif kind == "json_add":
        instance.source("json://tweets").store.add(
            {"id": f"d{payload}", "author": f"d{payload}",
             "topic": TOPICS[payload % 2], "likes": payload})
    elif kind == "json_remove":
        instance.source("json://tweets").store.remove(str(payload % 10))


deltas = st.lists(
    st.tuples(st.sampled_from(["rdf_add", "rdf_remove", "sql_insert",
                               "ft_add", "json_add", "json_remove"]),
              st.integers(min_value=0, max_value=999)),
    min_size=0, max_size=8)


def make_query(instance: MixedInstance, shape: int, topic: str):
    """One of four CMQ shapes, each hitting a different model."""
    builder = instance.builder(f"prop_{shape}_{topic}")
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


@given(prefix=deltas, suffix=deltas,
       shape=st.integers(min_value=0, max_value=2),
       topic=st.sampled_from(TOPICS))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_snapshot_isolation_under_random_interleavings(prefix, suffix, shape, topic):
    instance = build_instance()
    query = make_query(instance, shape, topic)
    for delta in prefix:
        apply_delta(instance, delta)

    # Reference: what the prefix state answers, computed *before* any
    # suffix delta exists anywhere.
    live_versions = {uri: instance.source(uri).version()
                     for uri in instance.source_uris()}
    live_versions["#glue"] = instance.glue_source.version()
    pinned = instance.pin()

    # The pinned vector is exactly the live vector at pin time — never a
    # mix of pre- and post-delta versions.
    assert pinned.versions == live_versions

    before = result_set(pinned.execute(instance, query, options=SERIAL,
                                       cache=False))

    for delta in suffix:
        apply_delta(instance, delta)

    # The pin is immune to the suffix: identical rows, identical vector.
    after = result_set(pinned.execute(instance, query, options=SERIAL,
                                      cache=False))
    assert after == before
    assert pinned.versions == live_versions

    # Re-pinning now reflects the suffix; an unchanged source hands back
    # the same frozen wrapper (memoised copy-on-write), a changed one
    # moves strictly forward.
    repinned = instance.pin()
    for uri in live_versions:
        source = (instance.glue_source if uri == "#glue"
                  else instance.source(uri))
        assert repinned.versions[uri] == source.version()
        assert repinned.versions[uri] >= live_versions[uri]
        if repinned.versions[uri] == live_versions[uri]:
            old = pinned.glue if uri == "#glue" else pinned.sources[uri]
            new = repinned.glue if uri == "#glue" else repinned.sources[uri]
            assert new is old


@given(ops=deltas)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_versions_move_strictly_forward(ops):
    """Every effective delta bumps its store's version; no-ops do not
    roll anything back (monotonicity the cache keys depend on)."""
    instance = build_instance()
    uris = list(instance.source_uris()) + ["#glue"]

    def vector():
        out = {}
        for uri in uris:
            source = (instance.glue_source if uri == "#glue"
                      else instance.source(uri))
            out[uri] = source.version()
        return out

    previous = vector()
    for delta in ops:
        apply_delta(instance, delta)
        current = vector()
        for uri in uris:
            assert current[uri] >= previous[uri]
        previous = current


batches = st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                             st.sampled_from(TOPICS)),
                   min_size=2, max_size=6)


@given(batch=batches)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_concurrent_tickets_answer_like_per_query_evaluation(batch):
    """Answers served by concurrent tickets == independent per-query
    evaluation, across random overlapping batches over all four data
    models."""
    instance = build_instance(cache=True)
    queries = [make_query(instance, shape, topic) for shape, topic in batch]
    pinned = instance.pin()
    reference = [result_set(pinned.execute(instance, q, options=SERIAL,
                                           cache=False))
                 for q in queries]
    with MediatorService(instance, ServiceConfig(workers=4)) as service:
        tickets = [service.submit(q) for q in queries]
        served = [result_set(t.result(timeout=60)) for t in tickets]
    assert served == reference
