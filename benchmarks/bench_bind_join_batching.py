"""E12: batched bind joins — source calls and wall time vs batch size.

The classic mediator bottleneck: a bind join with a large intermediate
result re-issues one sub-query per distinct binding.  This benchmark
builds a bind-join-heavy CMQ with >= 1k intermediate bindings and
measures, per strategy (per-binding, batched at several batch sizes):

* the number of ``SubQueryCall``s shipped to the sources,
* wall-clock time,
* result-set equality against the per-binding reference.

Run as a script (``python bench_bind_join_batching.py [--smoke]``) it
also writes ``BENCH_executor.json`` to the repo root for trajectory
tracking; under pytest the same scenarios run as assertions.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core import MixedInstance, PlannerOptions
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.rdf import Graph, triple
from repro.relational import Database

try:  # pytest import path (benchmarks/conftest.py) vs script execution
    from conftest import report
except ImportError:  # pragma: no cover - script mode
    def report(title, rows, columns=None):
        print(f"\n[{title}]")
        for row in rows:
            print("  " + " | ".join(f"{k}={v}" for k, v in row.items()))

def build_bench_instance(accounts: int = 1200) -> MixedInstance:
    """A mixed instance whose qG produces ``accounts`` distinct bindings.

    * glue graph: one politician per account with a twitter handle;
    * relational source: an ``accounts`` table keyed by handle;
    * full-text source: one profile document per handle.
    """
    glue = Graph("bench-glue")
    database = Database("bench-accounts")
    rows = []
    documents = []
    for i in range(accounts):
        handle = f"user{i:05d}"
        glue.add(triple(f"ttn:P{i}", "ttn:twitterAccount", handle))
        rows.append({"handle": handle, "followers": (i * 37) % 10_000})
        documents.append({"id": i, "text": f"profile of {handle}",
                          "user": {"screen_name": handle}})
    database.create_table_from_rows("accounts", rows)
    store = FullTextStore("bench-profiles", fields=[
        FieldConfig("text", "text"),
        FieldConfig("user.screen_name", "keyword"),
    ], default_field="text")
    store.add_all(documents)

    # Caching off: this benchmark measures *batching*, and the default
    # cross-query result cache would serve every strategy after the first
    # from warm entries (see bench_caching.py for the caching numbers).
    instance = MixedInstance(graph=glue, name="bench-batching", entailment=False,
                             cache=False)
    instance.register_relational("sql://accounts", database)
    instance.register_fulltext("solr://profiles", store)
    return instance


def sql_query(instance: MixedInstance):
    """qG (all accounts) |> SQL bind atom with an IN-rewritable placeholder."""
    return (instance.builder("qAccounts", head=["id", "f"])
            .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
            .sql("followers", source="sql://accounts",
                 sql="SELECT handle AS id, followers AS f FROM accounts "
                     "WHERE handle = {id}")
            .build())


def fulltext_query(instance: MixedInstance):
    """qG |> full-text bind atom answered by one disjunctive search per batch."""
    return (instance.builder("qProfiles", head=["id", "t"])
            .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
            .fulltext("profile", source="solr://profiles",
                      query="user.screen_name:{id}",
                      fields={"t": "text", "id": "user.screen_name"})
            .build())


def run_strategies(instance, cmq, batch_sizes=(64, 256, 1024)):
    """Evaluate one CMQ under every strategy; return comparable measurements."""
    measurements = []

    def run(label, options):
        start = time.perf_counter()
        result = instance.execute(cmq, options=options)
        elapsed = time.perf_counter() - start
        measurements.append({
            "strategy": label,
            "source calls": len(result.trace.calls),
            "rows fetched": result.trace.total_rows_fetched(),
            "seconds": elapsed,
            "answers": len(result),
            "_rows": sorted(map(str, result.rows)),
        })

    run("per-binding", PlannerOptions(bind_batch_size=1))
    for size in batch_sizes:
        run(f"batched({size})", PlannerOptions(bind_batch_size=size))

    reference = measurements[0]["_rows"]
    for measurement in measurements[1:]:
        assert measurement["_rows"] == reference, \
            f"{measurement['strategy']} diverged from the per-binding engine"
    for measurement in measurements:
        del measurement["_rows"]
    return measurements


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

def test_sql_bind_join_batching():
    instance = build_bench_instance(accounts=1200)
    cmq = sql_query(instance)
    measurements = run_strategies(instance, cmq)
    report("E12: SQL bind join, 1200 bindings", measurements)
    per_binding = measurements[0]
    assert per_binding["source calls"] >= 1200
    for measurement in measurements[1:]:
        assert measurement["source calls"] * 5 <= per_binding["source calls"]


def test_fulltext_bind_join_batching():
    instance = build_bench_instance(accounts=1000)
    cmq = fulltext_query(instance)
    measurements = run_strategies(instance, cmq, batch_sizes=(256,))
    report("E12: full-text bind join, 1000 bindings", measurements)
    assert measurements[1]["source calls"] * 5 <= measurements[0]["source calls"]


# ---------------------------------------------------------------------------
# Script mode: the trajectory runner
# ---------------------------------------------------------------------------

def main(argv: list[str]) -> None:
    smoke = "--smoke" in argv
    accounts = 300 if smoke else 1500
    instance = build_bench_instance(accounts=accounts)

    payload = {"benchmark": "bind_join_batching", "accounts": accounts,
               "smoke": smoke, "scenarios": {}}
    for name, cmq, extra in [
        ("sql", sql_query(instance), {}),
        ("fulltext", fulltext_query(instance), {"batch_sizes": (256,)}),
    ]:
        measurements = run_strategies(instance, cmq, **extra)
        report(f"bind join batching [{name}]", measurements)
        payload["scenarios"][name] = measurements
        per_binding = measurements[0]
        best = min(measurements[1:], key=lambda m: m["source calls"])
        payload["scenarios"][name + "_summary"] = {
            "call_reduction": per_binding["source calls"] / max(1, best["source calls"]),
            "speedup": per_binding["seconds"] / max(1e-9, best["seconds"]),
        }

    out_path = Path(__file__).resolve().parents[1] / "BENCH_executor.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main(sys.argv[1:])
