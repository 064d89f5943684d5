"""Plan-equivalence property: every planner configuration, same answers.

Hypothesis generates random CMQs over a four-model instance (glue RDF,
relational, full-text, JSON) — random atom subsets, orders, constants
and head projections — and every combination of
``cost_based x caches`` must return exactly
the result set of the reference plan (everything materialised that can
be, body order, one call per binding, no caches).  This is the harness
future optimizer PRs regress against: a planner change that loses or
invents rows fails here before it ships.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.naive import naive_options
from repro.core import MediatorCache, MixedInstance, PlannerOptions
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json.store import JSONDocumentStore
from repro.rdf import Graph, triple
from repro.relational import Database

pytestmark = pytest.mark.optimizer

HANDLES = [f"u{i}" for i in range(8)]
TOPICS = ["politics", "sports", "culture"]


def build_instance() -> MixedInstance:
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
    instance = MixedInstance(graph=glue, name="equiv", entailment=False,
                             cache=MediatorCache())
    instance.register_relational("sql://profiles", database)
    instance.register_fulltext("solr://posts", store)
    instance.register_json("json://tweets", documents)
    return instance


INSTANCE = build_instance()

#: The oracles' reference plan (no reordering, no bind joins beyond the
#: forced ones — required parameters, dynamic sources), those one call
#: per binding, no caches.
REFERENCE = replace(naive_options(), bind_batch_size=1,
                    result_cache=False, plan_cache=False)

#: The 4 combinations of the two optimizer-relevant dimensions.
ALL_OPTION_COMBINATIONS = [
    PlannerOptions(cost_based=cost_based, result_cache=caches, plan_cache=caches)
    for cost_based in (False, True)
    for caches in (False, True)
]


def atom_pool(builder, topic, threshold, handle):
    """Candidate atoms; each entry: (adds, produces_id, needs_id)."""
    return [
        (lambda b: b.graph("SELECT ?id ?p WHERE { ?x ttn:twitterAccount ?id . "
                           "?x ttn:memberOf ?p }"),
         True, False),
        (lambda b: b.sql("profiles", source="sql://profiles",
                         sql="SELECT handle AS id, followers AS f FROM profiles "
                             f"WHERE followers >= {threshold}"),
         True, False),
        (lambda b: b.sql("lookup", source="sql://profiles",
                         sql="SELECT handle AS id, followers AS f2 "
                             "FROM profiles WHERE handle = {id}"),
         False, True),
        (lambda b: b.fulltext("posts", source="solr://posts",
                              query=f"text:{topic} user.screen_name:{{id}}",
                              fields={"t": "text", "id": "user.screen_name"}),
         False, True),
        (lambda b: b.fulltext("search", source="solr://posts",
                              query=f"text:{topic}",
                              fields={"t2": "text", "id": "user.screen_name"}),
         True, False),
        (lambda b: b.json("tweetJson", source="json://tweets",
                          pattern=f'{{ author: ?id, topic: "{topic}", likes: ?l }}'),
         True, False),
        (lambda b: b.json("likesOf", source="json://tweets",
                          pattern='{ author: {id}, likes: ?l2 }'),
         False, True),
        (lambda b: b.graph(f'SELECT ?id WHERE {{ ?x ttn:twitterAccount "{handle}" . '
                           "?x ttn:twitterAccount ?id }"),
         True, False),
    ]


@st.composite
def cmq_strategy(draw):
    topic = draw(st.sampled_from(TOPICS))
    threshold = draw(st.sampled_from([0, 250, 550]))
    handle = draw(st.sampled_from(HANDLES))
    pool = atom_pool(None, topic, threshold, handle)
    indices = draw(st.lists(st.sampled_from(range(len(pool))), min_size=1,
                            max_size=4, unique=True))
    # Atoms with required parameters need some producer of ?id.
    if not any(pool[i][1] for i in indices):
        indices.append(draw(st.sampled_from(
            [i for i, entry in enumerate(pool) if entry[1]])))
    indices = draw(st.permutations(indices))
    builder = INSTANCE.builder(f"q_{topic}_{threshold}")
    for index in indices:
        pool[index][0](builder)
    return builder.build()


def result_set(result):
    return sorted(tuple(sorted((k, str(v)) for k, v in row.items()))
                  for row in result.rows)


@given(cmq=cmq_strategy())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_option_combination_returns_identical_results(cmq):
    reference = result_set(INSTANCE.execute(cmq, options=REFERENCE))
    for options in ALL_OPTION_COMBINATIONS:
        outcome = INSTANCE.execute(cmq, options=options)
        assert result_set(outcome) == reference, (
            f"{options} diverged from the naive reference on {cmq.name}")


def test_reference_options_really_are_naive():
    plan = INSTANCE.plan(
        (INSTANCE.builder("q", head=["id", "f"])
         .sql("profiles", source="sql://profiles",
              sql="SELECT handle AS id, followers AS f FROM profiles")
         .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
         .build()),
        REFERENCE)
    assert plan.atom_order() == ["profiles", "qG"]
    assert all(step.mode == "materialize" for step in plan.steps)
