"""Keyword-based querying over the mixed instance (paper §2.2).

Shows the full digest pipeline:

1. build the digest of every source (schema graphs / dataguides / RDF
   summaries + Bloom-filter & histogram value sets),
2. probe value sets across sources to discover join-candidate edges,
3. look keywords up in the digests, connect the hits with shortest join
   paths, generate candidate CMQs, and evaluate the best one.

Run with:  python examples/keyword_search.py
"""

from __future__ import annotations

from repro.datasets import DemoConfig, build_demo_instance
from repro.digest.keyword import KeywordQueryEngine


def main() -> None:
    demo = build_demo_instance(DemoConfig(politicians=40, weeks=4))
    instance = demo.instance

    catalog = instance.build_digests()
    print("digest catalog:")
    for uri, digest in sorted(catalog.digests.items()):
        print(f"  {uri:<18} {len(digest.nodes):>3} positions, "
              f"{len(digest.edges):>4} intra-source edges, "
              f"{digest.size_in_bytes() / 1024:.1f} KiB of value summaries")
    print(f"  cross-source join candidates discovered: {len(catalog.join_edges)}")
    print()

    engine = KeywordQueryEngine(instance)
    for keywords in (["head of state", "SIA2016"],
                     ["Gironde", "unemployment"],
                     ["ecologists", "urgence"]):
        print(f"== keywords: {keywords}")
        outcome = engine.search(keywords, max_queries=3)
        for candidate in outcome.candidates:
            print("  candidate:", candidate.describe())
        if outcome.best is not None and outcome.result is not None:
            print(f"  -> best candidate returns {len(outcome.result)} answer(s)")
            print("     " + outcome.result.to_table(max_rows=3).replace("\n", "\n     "))
        print()


if __name__ == "__main__":
    main()
