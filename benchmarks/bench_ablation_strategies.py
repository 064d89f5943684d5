"""E8 (§2.3): evaluation-strategy ablation and warehouse comparison.

Compares, on the same CMQ workload:

* the full TATOOINE strategy (cost-based order and bind joins,
  independent sub-queries dispatched as one stage),
* the reference plan the oracles evaluate (body order, every sub-query
  materialised unless a parameter forces a bind join, one per stage),
* the warehouse baseline (export everything to one RDF graph, then query).

Expected shape: the full strategy ships the fewest rows from the sources;
the warehouse answers individual queries quickly *after* paying an export
cost larger than any single mediated query — which is exactly the paper's
argument for lightweight integration under short news cycles.
"""

from __future__ import annotations

import time

import pytest
from conftest import report

from repro.baselines import RDFWarehouse, naive_options
from repro.core import PlannerOptions
from repro.datasets import qsia_query

#: Name -> options of the two plans compared.
PLANS = {"tatooine": PlannerOptions(), "reference": naive_options()}


def _workload(demo):
    instance = demo.instance
    qsia = qsia_query(demo)
    # A selective glue restriction (one politician) joined with an unselective
    # full-text sub-query: exactly the case where pushing bindings to the
    # source (bind join) avoids shipping the whole matching tweet set.
    head_emergency = (instance.builder("headEmergency", head=["t", "id"])
                      .graph("SELECT ?id WHERE { ?x ttn:position ttn:headOfState . "
                             "?x ttn:twitterAccount ?id }")
                      .fulltext("tweets", source="solr://tweets", query="text:urgence",
                                fields={"t": "text", "id": "user.screen_name"})
                      .build())
    return {"qSIA": qsia, "headEmergency": head_emergency}


@pytest.mark.parametrize("strategy", list(PLANS))
def test_strategy(benchmark, demo_small, strategy):
    """Per-strategy latency; the printed table adds rows-fetched and calls."""
    options = PLANS[strategy]
    workload = _workload(demo_small)

    def run():
        return [demo_small.instance.execute(query, options=options)
                for query in workload.values()]

    results = benchmark(run)
    rows = []
    for name, result in zip(workload, results):
        rows.append({"strategy": strategy, "query": name, "answers": len(result),
                     "rows fetched": result.trace.total_rows_fetched(),
                     "source calls": len(result.trace.calls)})
    report(f"E8: strategy {strategy}", rows)
    assert all(len(r) >= 1 for r in results)


def test_strategies_fetch_comparison(benchmark, demo_small):
    """The headline E8 series: rows shipped from sources per strategy."""
    workload = _workload(demo_small)

    def sweep():
        rows = []
        reference_answers = None
        for strategy, options in PLANS.items():
            fetched = 0
            answers = []
            for query in workload.values():
                result = demo_small.instance.execute(query, options=options)
                fetched += result.trace.total_rows_fetched()
                answers.append({tuple(sorted(r.items())) for r in result.rows})
            if reference_answers is None:
                reference_answers = answers
            assert answers == reference_answers, f"{strategy} changed the answers"
            rows.append({"strategy": strategy, "total rows fetched": fetched})
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows.sort(key=lambda r: r["total rows fetched"])
    report("E8: rows shipped from sources (lower is better)", rows)
    by_name = {r["strategy"]: r["total rows fetched"] for r in rows}
    assert by_name["tatooine"] <= by_name["reference"]


def test_warehouse_baseline(benchmark, demo_small):
    """Warehouse: per-query latency after a full export, plus the export cost."""
    warehouse = RDFWarehouse(demo_small.instance)
    export_start = time.perf_counter()
    stats = warehouse.export()
    export_seconds = time.perf_counter() - export_start

    workload = _workload(demo_small)

    def run():
        return [warehouse.execute(query) for query in workload.values()]

    results = benchmark(run)
    mediator_results = [demo_small.instance.execute(q) for q in workload.values()]
    report("E8: warehouse baseline", [
        {"metric": "exported triples", "value": stats.exported_triples},
        {"metric": "export time (s)", "value": round(export_seconds, 3)},
        {"metric": "answers identical to mediator", "value":
            all({tuple(sorted(r.items())) for r in w.rows} ==
                {tuple(sorted(r.items())) for r in m.rows}
                for w, m in zip(results, mediator_results))},
    ])
    assert stats.exported_triples > len(demo_small.instance.graph)
