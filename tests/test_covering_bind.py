"""A bind join whose bindings cover its atom is planned as a materialise step.

A bind step that is not forced (no required parameter, not a dynamic
source) is *covering* when its distinct shipped bindings times its
per-binding estimate reach the atom's whole estimate: it would fetch
every row materialising fetches, plus one pushed binding each, so the
planner materialises it and hash-joins.  Shipped bindings are distinct
ones (the batched bind join dedups), a covering step that ships a single
binding keeps its bind, and a forced step binds whatever it covers.
"""

from __future__ import annotations

import pytest

from oracle import multiset
from repro.baselines.naive import naive_options
from repro.datasets import (
    DemoConfig,
    build_demo_instance,
    party_vocabulary_query,
    qsia_json_query,
)
from repro.datasets.loader import TWEETS_URI

pytestmark = pytest.mark.optimizer

#: The benchmark's instance (120 politicians) and its smoke instance.
FULL = DemoConfig(politicians=120, weeks=8, tweets_per_politician_per_week=4.0, seed=2016)
SMOKE = DemoConfig(politicians=24, weeks=3, tweets_per_politician_per_week=2.0, seed=2016)


def one_group_vocabulary_query(demo, group: str, word: str):
    """The party-vocabulary CMQ over one political group's accounts: a
    few of the accounts, so its full-text step is a selective bind join."""
    return (demo.instance.builder("groupVocabulary", head=["t", "rt", "id", "week"])
            .graph('SELECT ?id WHERE { ?x ttn:politicalGroup "%s" . '
                   "?x ttn:twitterAccount ?id }" % group)
            .fulltext("tweetMentions", source=TWEETS_URI, query=f"text:{word}",
                      fields={"t": "text", "id": "user.screen_name",
                              "rt": "retweet_count", "week": "week"})
            .build())


def modes(plan) -> dict[str, str]:
    return {step.atom.name: step.mode for step in plan.steps}


@pytest.fixture(scope="module")
def full():
    return build_demo_instance(FULL)


@pytest.fixture(scope="module")
def smoke():
    return build_demo_instance(SMOKE)


def test_a_covering_step_materialises(full):
    plan = full.instance.plan(party_vocabulary_query(full, "urgence"))
    glue = plan.steps[0]
    assert (glue.atom.name, glue.estimate) == ("qG", 120)  # 120 accounts to ship
    assert modes(plan) == {"qG": "materialize", "tweetMentions": "materialize"}
    assert plan.stages == [[0, 1]]  # one dispatch stage, then a hash join


def test_a_selective_step_still_binds(full):
    # One head-of-state binding reaches a few dozen of the atom's tweets.
    plan = full.instance.plan(full.instance.parse(
        'qSIA(t, id) :- qG(id), tweetContains(t, id, "etatdurgence")'))
    assert modes(plan) == {"qG": "materialize", "tweetContains": "bind"}


def test_a_few_accounts_still_bind(full):
    plan = full.instance.plan(one_group_vocabulary_query(full, "ecologists", "urgence"))
    assert modes(plan) == {"qG": "materialize", "tweetMentions": "bind"}


def test_a_forced_step_binds_though_it_covers(full):
    instance = full.instance
    static = 'q(g, t, id) :- politicianAccount(n, g, id), tweetMentions(t, id, rt, "urgence")'
    assert modes(instance.plan(instance.parse(static)))["tweetMentions"] == "materialize"
    # The same atom on a dynamic source ...
    dynamic = instance.parse(static + "[dSolr]")
    assert modes(instance.plan(dynamic))["tweetMentions"] == "bind"
    # ... and with a required parameter.
    required = (instance.builder("q", head=["group", "t", "id"])
                .graph("SELECT ?group ?id WHERE { ?x ttn:politicalGroup ?group . "
                       "?x ttn:twitterAccount ?id }")
                .fulltext("tweetMentions", source=TWEETS_URI,
                          query="text:urgence AND user.screen_name:{id}",
                          fields={"t": "text"})
                .build())
    assert modes(instance.plan(required))["tweetMentions"] == "bind"


def test_shipped_bindings_are_distinct_values_not_rows(smoke):
    # One head of state: the unemployment join multiplies the rows, not
    # the accounts shipped, so the JSON step is no covering one (counted
    # in rows, it would be materialised and fetch 44 rows instead of 11).
    result = smoke.instance.execute(qsia_json_query(smoke, "chomage"))
    assert modes(result.trace.plan)["tweetJson"] == "bind"
    assert result.trace.total_rows_fetched() == 11


def test_a_covering_step_shipping_one_binding_keeps_its_bind(smoke):
    query = qsia_json_query(smoke, "sia2016")
    bind = next(s for s in smoke.instance.plan(query).steps if s.atom.name == "tweetJson")
    whole = next(s for s in smoke.instance.plan(query, naive_options()).steps
                 if s.atom.name == "tweetJson")
    assert bind.mode == "bind" and whole.mode == "materialize"
    assert bind.estimate >= whole.estimate  # its one binding covers the atom


def test_a_flipped_party_cmq_answers_like_the_reference_plan(full):
    instance = full.instance
    cmq = party_vocabulary_query(full, "urgence")
    instance.clear_caches()
    fast = instance.execute(cmq)
    reference = instance.execute(cmq, options=naive_options())
    assert multiset(fast) == multiset(reference)
    # What the bind join over all 120 accounts fetches too: one call
    # each, every account and every matching tweet (120 + 1,307 rows).
    assert len(fast.trace.calls) == len(reference.trace.calls) == 2
    assert fast.trace.total_rows_fetched() == reference.trace.total_rows_fetched() == 1427
