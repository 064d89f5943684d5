"""E5 (§2.2): keyword querying — digest construction and query generation.

Measures the two phases of the keyword pipeline separately: building the
digest catalog (offline, amortised) and answering a keyword query (online:
lookup + shortest join paths + CMQ generation + evaluation), and checks the
generated query finds the same tweet as the hand-written qSIA.
"""

from __future__ import annotations

from conftest import report

from repro.datasets import TWEETS_URI, qsia_query
from repro.digest import ValueSetSummary, build_catalog
from repro.digest.keyword import KeywordQueryEngine


def test_digest_construction(benchmark, demo_small):
    """Offline cost: one digest per source plus cross-source join probing
    (a catalog of its own, so each round derives every digest afresh; the
    instance's kept catalog refreshes only what moved)."""
    catalog = benchmark(lambda: build_catalog(demo_small.instance, summarize=ValueSetSummary))
    rows = [{"source": uri, "positions": len(d.nodes),
             "KiB": round(d.size_in_bytes() / 1024, 1)}
            for uri, d in sorted(catalog.digests.items())]
    rows.append({"source": "(join candidates)", "positions": len(catalog.join_edges),
                 "KiB": round(catalog.total_size_in_bytes() / 1024, 1)})
    report("E5: digest catalog", rows)
    assert len(catalog) == 8  # glue + seven sources (incl. the JSON store)


def test_keyword_query_head_of_state_sia2016(benchmark, demo_small, catalog_small):
    """Online cost of the paper's example keyword query."""
    engine = KeywordQueryEngine(demo_small.instance, catalog=catalog_small)
    outcome = benchmark(lambda: engine.search(["head of state", "SIA2016"]))
    assert outcome.result is not None and len(outcome.result) >= 1

    qsia_answers = set(demo_small.instance.execute(qsia_query(demo_small)).column("t"))
    keyword_strings = {v for row in outcome.result.rows for v in row.values()
                       if isinstance(v, str)}
    report("E5: keyword query vs hand-written qSIA", [
        {"metric": "candidate CMQs generated", "value": len(outcome.candidates)},
        {"metric": "best path length", "value": len(outcome.best.path)},
        {"metric": "answers", "value": len(outcome.result)},
        {"metric": "recovers qSIA answer", "value": bool(qsia_answers & keyword_strings)},
        {"metric": "bridges glue + tweets", "value":
            {a.source for a in outcome.best.query.atoms} >= {"#glue", TWEETS_URI}},
    ])
    assert qsia_answers & keyword_strings


def test_keyword_query_cross_model(benchmark, demo_small, catalog_small):
    """A keyword pair whose join path crosses the relational and RDF sources."""
    engine = KeywordQueryEngine(demo_small.instance, catalog=catalog_small)
    outcome = benchmark(lambda: engine.search(["Gironde", "unemployment"]))
    assert outcome.candidates
    report("E5: cross-model keyword query", [
        {"metric": "candidates", "value": len(outcome.candidates)},
        {"metric": "best cost", "value": round(outcome.best.cost, 3)},
        {"metric": "answers", "value": len(outcome.result) if outcome.result else 0},
    ])
