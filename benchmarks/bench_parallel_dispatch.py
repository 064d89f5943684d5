"""E11 (§2.3): parallel vs sequential dispatch of independent sub-queries.

In the real system each sub-query is a network round trip to a remote
source; here sources are in-process, so a wrapper adds a fixed per-call
latency (20 ms) to model that round trip, and the bench compares wall-clock
time with four dispatch workers and with one (``max_workers=1``, serial
dispatch).  Expected shape: with N
independent sub-queries, the parallel strategy approaches max(latency)
instead of sum(latency).
"""

from __future__ import annotations

import time

from conftest import report

from repro.core import MixedQueryExecutor
from repro.core.sources import DataSource

_LATENCY_SECONDS = 0.02


class _DelayedSource(DataSource):
    """Decorates a wrapped source with a fixed per-call network latency."""

    def __init__(self, inner: DataSource, latency: float = _LATENCY_SECONDS):
        super().__init__(inner.uri, inner.name, inner.description)
        self._inner = inner
        self._latency = latency
        self.model = inner.model

    def execute(self, query, bindings=None):
        time.sleep(self._latency)
        return self._inner.execute(query, bindings)

    def estimate(self, query, bound_variables=None):
        return self._inner.estimate(query, bound_variables)

    def accepts(self, query):
        return self._inner.accepts(query)

    def size(self):
        return self._inner.size()


def _delayed_executor(demo, max_workers):
    instance = demo.instance
    sources = {uri: _DelayedSource(instance.source(uri)) for uri in instance.source_uris()}
    return MixedQueryExecutor(sources, instance.glue_source, max_workers=max_workers)


def _independent_query(demo):
    """Three sub-queries on three different sources, none depending on another."""
    return (demo.instance.builder("panorama", head=["name", "t", "rate"])
            .graph("SELECT ?name WHERE { ?x ttn:position ttn:headOfState . "
                   "?x foaf:name ?name }")
            .fulltext("tweets", source="solr://tweets", query="entities.hashtags:sia2016",
                      fields={"t": "text"})
            .sql("stats", source="sql://insee",
                 sql="SELECT AVG(rate) AS rate FROM unemployment WHERE year = 2015")
            .build())


def test_parallel_dispatch(benchmark, demo_small):
    """Wall-clock with parallel stages (independent sub-queries overlap)."""
    executor = _delayed_executor(demo_small, max_workers=4)
    query = _independent_query(demo_small)
    result = benchmark(lambda: executor.execute(query))
    assert len(result) >= 1


def test_sequential_dispatch(benchmark, demo_small):
    """Wall-clock with sequential dispatch (sub-query latencies add up)."""
    executor = _delayed_executor(demo_small, max_workers=1)
    query = _independent_query(demo_small)
    result = benchmark(lambda: executor.execute(query))
    assert len(result) >= 1


def test_parallel_speedup_summary(benchmark, demo_small):
    """The headline E11 series: measured wall-clock for both strategies."""
    query = _independent_query(demo_small)

    def sweep():
        timings = {}
        answers = {}
        for label, max_workers in (("parallel", 4), ("sequential", 1)):
            executor = _delayed_executor(demo_small, max_workers)
            start = time.perf_counter()
            result = executor.execute(query)
            timings[label] = time.perf_counter() - start
            answers[label] = {tuple(sorted(r.items())) for r in result.rows}
        return timings, answers

    timings, answers = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("E11: parallel vs sequential dispatch (3 independent sub-queries, "
           f"{int(_LATENCY_SECONDS * 1000)} ms simulated latency each)", [
        {"strategy": label, "wall-clock (ms)": round(seconds * 1000, 1)}
        for label, seconds in timings.items()
    ])
    assert answers["parallel"] == answers["sequential"]
    assert timings["parallel"] < timings["sequential"]
