"""E9: JSON tree patterns — index pruning, structural joins, mixed plans.

Measures (a) index-assisted tree-pattern matching against the naive
document scan it must agree with, (b) the pruning factor the path indexes
achieve, (c) the canonical three-model mixed query (RDF glue + JSON
tree pattern + SQL) in both bind-join and materialize modes, and
(d) the XPath-accelerator: deep (4+-level) tree patterns evaluated as
columnar structural range joins against the tree-walking reference
matcher, over a 100k-document corpus.

Run as a script (``python bench_json_tree_patterns.py [--smoke]``) the
accelerator scenario writes ``BENCH_json.json`` to the repo root for
trajectory tracking; under pytest a smoke-sized version runs as
assertions.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

try:  # pytest import path (benchmarks/conftest.py) vs script execution
    from conftest import report
except ImportError:  # pragma: no cover - script mode
    def report(title, rows, columns=None):
        print(f"\n[{title}]")
        for row in rows:
            print("  " + " | ".join(f"{k}={v}" for k, v in row.items()))

from repro.baselines import naive_options
from repro.core import PlannerOptions
from repro.datasets import TWEETS_JSON_URI, qsia_json_query
from repro.json import (JSONDocumentStore, TreePatternMatcher, match_document,
                        parse_pattern)
from repro.json.accel import structural_row_estimate

PATTERN = '{ user.screen_name: ?id, entities.hashtags: "sia2016", text: ?t }'


def test_index_vs_naive_matching(benchmark, demo_medium):
    """Index-pruned matching vs a full scan with the reference matcher."""
    store = demo_medium.instance.source(TWEETS_JSON_URI).store
    pattern = parse_pattern(PATTERN)
    matcher = TreePatternMatcher(store)

    indexed = benchmark(lambda: matcher.match(pattern))

    start = time.perf_counter()
    naive = [row for doc in store.documents() for row in match_document(pattern, doc)]
    naive_seconds = time.perf_counter() - start
    assert sorted(map(str, indexed)) == sorted(map(str, naive))

    candidates = matcher.candidates(pattern)
    report("E9: path-index pruning", [
        {"metric": "documents", "value": len(store)},
        {"metric": "candidates after pruning", "value": len(candidates)},
        {"metric": "pruning factor", "value": len(store) / max(1, len(candidates))},
        {"metric": "answers", "value": len(indexed)},
        {"metric": "naive scan seconds", "value": naive_seconds},
    ])


def test_three_model_mixed_query(benchmark, demo_medium):
    """The qSIAJson query: RDF glue + JSON tree pattern + SQL statistics."""
    query = qsia_json_query(demo_medium)
    result = benchmark(lambda: demo_medium.instance.execute(query))
    assert len(result) >= 1
    report("E9: qSIAJson evaluation", [
        {"metric": "answers", "value": len(result)},
        {"metric": "sub-queries", "value": len(result.trace.atom_order)},
        {"metric": "source calls", "value": len(result.trace.calls)},
        {"metric": "rows fetched", "value": result.trace.total_rows_fetched()},
    ])


def test_bind_vs_materialize_json_atom(demo_medium):
    """Bind joins push bindings into the path indexes; materialize does not."""
    query = qsia_json_query(demo_medium)
    instance = demo_medium.instance
    timings = []
    reference = None
    for label, options in [
        ("bind (tatooine)", PlannerOptions()),
        ("materialize (naive)", naive_options()),
    ]:
        start = time.perf_counter()
        result = instance.execute(query, options=options)
        elapsed = time.perf_counter() - start
        rows = sorted(map(str, result.rows))
        if reference is None:
            reference = rows
        assert rows == reference
        timings.append({"strategy": label, "seconds": elapsed,
                        "rows fetched": result.trace.total_rows_fetched(),
                        "answers": len(result)})
    report("E9: JSON atom bind vs materialize", timings)


# ---------------------------------------------------------------------------
# XPath-accelerator: deep patterns as columnar structural range joins
# ---------------------------------------------------------------------------

def build_accel_corpus(documents: int) -> JSONDocumentStore:
    """Deep, broad tweet-thread documents (~60 nodes, 5 levels each)."""
    store = JSONDocumentStore("accel-corpus")
    for i in range(documents):
        posts = []
        for j in range(5):
            v = (i * 7 + j * 13) % 100
            posts.append({
                "body": {"text": f"post {i}-{j}",
                         "lang": "fr" if (i * 5 + j) % 97 == 0 else "en"},
                "stats": {"likes": v, "shares": (v * 3) % 50},
                "tags": [f"t{v % 11}", f"t{(v + 5) % 11}"],
            })
        store.add({
            "id": i,
            "user": {"name": f"u{i % 997}",
                     "geo": {"lat": 48.0 + (i % 10) * 0.1, "lon": 2.0}},
            "thread": {"posts": posts},
            "meta": {"window": {"day": {"bucket": {"score": i % 1000}}}},
        })
    return store


# Every pattern reaches at least four levels down; the wildcard ones are
# the accelerator showcase (the reference walker must explore whole
# subtrees, the encoding answers with a few bisect probes per document).
ACCEL_PATTERNS = [
    ("child-4-range", "{ thread.posts.stats.likes: ?l >= 95, user.name: ?u }"),
    ("desc-4-constant", '{ thread.**.lang: "fr", thread.posts.body.text: ?t }'),
    ("desc-5-range", "{ meta.**.score: ?s >= 990 }"),
]


def run_accel_vs_reference(documents: int, repeats: int = 3) -> dict:
    store = build_accel_corpus(documents)

    start = time.perf_counter()
    view = store.encoding_view()  # cold columnar build
    build_seconds = time.perf_counter() - start
    nodes = view.encoding.node_count

    accelerated = TreePatternMatcher(store)
    reference = TreePatternMatcher(store, accel=False)
    workloads = []
    for name, text in ACCEL_PATTERNS:
        pattern = parse_pattern(text)

        start = time.perf_counter()
        expected = reference.match(pattern)
        reference_seconds = time.perf_counter() - start

        samples = []
        rows = None
        for _ in range(repeats):
            start = time.perf_counter()
            rows = accelerated.match(pattern)
            samples.append(time.perf_counter() - start)
        accel_seconds = statistics.median(samples)

        assert sorted(map(str, rows)) == sorted(map(str, expected)), \
            f"accelerated rows diverged from the reference on {name}"
        estimate = structural_row_estimate(store.encoding_view(), pattern)
        workloads.append({
            "pattern": name, "text": text, "rows": len(rows),
            "reference_seconds": reference_seconds,
            "accel_seconds": accel_seconds,
            "speedup": reference_seconds / max(1e-9, accel_seconds),
            "docs_per_second": documents / max(1e-9, accel_seconds),
            "structural_estimate": estimate,
        })

    report(f"E9: accelerator vs reference, {documents} documents", [
        {"pattern": w["pattern"], "rows": w["rows"],
         "reference s": round(w["reference_seconds"], 3),
         "accel s": round(w["accel_seconds"], 3),
         "speedup": round(w["speedup"], 1)}
        for w in workloads])
    return {"documents": documents, "nodes": nodes,
            "build_seconds": build_seconds,
            "build_nodes_per_second": nodes / max(1e-9, build_seconds),
            "workloads": workloads,
            "best_speedup": max(w["speedup"] for w in workloads)}


def test_accelerator_matches_reference_on_deep_patterns():
    outcome = run_accel_vs_reference(documents=4000, repeats=3)
    assert all(w["rows"] > 0 for w in outcome["workloads"])
    assert outcome["best_speedup"] >= 2.0  # conservative under pytest noise


# ---------------------------------------------------------------------------
# Script mode: the trajectory runner
# ---------------------------------------------------------------------------

def main(argv: list[str]) -> None:
    smoke = "--smoke" in argv
    documents = 8_000 if smoke else 100_000
    target = 3.0 if smoke else 10.0

    payload = {"benchmark": "json_accel", "smoke": smoke}
    payload["accelerator"] = run_accel_vs_reference(documents)

    best = payload["accelerator"]["best_speedup"]
    deep_wildcards = [w["speedup"] for w in payload["accelerator"]["workloads"]
                      if w["pattern"].startswith("desc-")]
    print(f"\ndeep-pattern speedup: {best:6.1f}x (target >= {target:.0f}x)")
    assert max(deep_wildcards) >= target, \
        f"deep-pattern speedup {max(deep_wildcards):.1f}x below the " \
        f"{target:.0f}x acceptance bar"

    out_path = Path(__file__).resolve().parents[1] / "BENCH_json.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main(sys.argv[1:])
