"""One change log per store: the record chain snapshots read back through
is the one repair replays, kept within the repair gate's item budget.

Covers a tweet stream of 600 one-document batches past a held cache
entry, the log budget being the repair gate's bound in the gate's
measure, listeners that raise, and a hypothesis differential of
snapshots and ``deltas_since`` against deep copies over up to 700
batches.
"""

from __future__ import annotations

import copy
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cache.repair import RepairEngine
from repro.cache.results import CachedSource, SubQueryResultCache
from repro.core import deltas
from repro.core.deltas import MAX_DELTA_ITEMS
from repro.engine.batch import dict_rows
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json.source import JSONQuery, JSONSource
from repro.json.store import JSONDocumentStore
from repro.rdf import Graph, triple
from repro.rdf.source import RDFQuery, RDFSource
from repro.relational import Database

pytestmark = pytest.mark.streaming


def _held(source, query, keys):
    """A cached proxy of ``source`` holding ``query``'s entries for ``keys``."""
    cache = SubQueryResultCache()
    engine = RepairEngine(cache)
    proxy = CachedSource(source, cache, repair=engine)
    proxy.execute_batch(query, keys)
    return proxy, engine


def _rows(batches) -> Counter:
    return Counter(tuple(sorted(row.items())) for row in dict_rows(batches))


class TestTheTweetStreamRepairs:
    """600 one-item batches are 600 items, far below the gate's bound:
    each held entry is repaired, none falls back."""

    def test_600_one_document_batches_past_a_held_json_entry(self):
        store = JSONDocumentStore("tweets")
        store.add_all({"id": str(i), "k": i % 3, "v": i} for i in range(30))
        source = JSONSource("json://tweets", store)
        query, keys = JSONQuery.from_text('{"k": ?k, "v": ?v}'), [{"k": 1}, {}]
        proxy, engine = _held(source, query, keys)
        for i in range(30, 630):
            store.add({"id": str(i), "k": i % 3, "v": i})
        warm = proxy.execute_batch(query, keys)
        assert engine.stats.fallbacks == {}
        assert engine.stats.repaired == len(keys)
        for key, batches in zip(keys, warm):
            assert _rows(batches) == _rows(source.execute_batch(query, [key])[0])

    def test_600_one_triple_batches_past_a_held_graph_entry(self):
        graph = Graph("glue")
        graph.add_all(triple(f"ttn:S{i}", "ttn:score", i) for i in range(30))
        source = RDFSource("rdf://glue", graph)
        query = RDFQuery.from_text("SELECT ?s ?o WHERE { ?s ttn:score ?o }")
        keys = [{}, {"o": 3}]
        proxy, engine = _held(source, query, keys)
        for i in range(30, 630):
            graph.add(triple(f"ttn:S{i}", "ttn:score", i % 40))
        warm = proxy.execute_batch(query, keys)
        assert engine.stats.fallbacks == {}
        assert engine.stats.repaired == len(keys)
        for key, batches in zip(keys, warm):
            assert _rows(batches) == _rows(source.execute_batch(query, [key])[0])


class TestTheLogBudgetIsTheRepairGate:
    def test_a_span_the_log_drops_is_one_the_gate_refuses(self):
        assert RepairEngine.MAX_DELTA_ITEMS is deltas.MAX_DELTA_ITEMS
        store = JSONDocumentStore("docs")
        source = JSONSource("json://docs", store)
        written = []
        store.journal.subscribe(written.append)
        # Inserts and upserts: a record weighs its items and the copies
        # it replaced, as the gate counts them.
        for i in range(1500):
            store.add_all([{"id": str(i), "v": i}, {"id": str(i // 2), "v": -i}])
        assert sum(record.size for record in written) > MAX_DELTA_ITEMS
        oldest = store.journal.oldest
        kept = store.deltas_since(oldest)
        assert kept == written[len(written) - len(kept):]
        assert sum(record.size for record in kept) <= MAX_DELTA_ITEMS
        assert store.deltas_since(oldest - 1) is None
        dropped = written[len(written) - len(kept) - 1:]
        assert dropped[0].pre_version == oldest - 1
        query = JSONQuery.from_text('{"v": ?v}')
        engine = RepairEngine(SubQueryResultCache())
        assert engine._apply(source, query, query.canonical, [{}], [[]],
                             dropped) == "delta_too_large"

    def test_an_unrecorded_bump_breaks_every_chain_across_it(self):
        journal = deltas.DeltaJournal()
        for version in (0, 1):
            journal.record(version, deltas.INSERT, (version,))
        assert len(journal.since(0, 2)) == 2
        for version in (5, 6):  # versions 2 to 5 were never recorded
            journal.record(version, deltas.INSERT, (version,))
        assert journal.since(0, 2) is None and journal.since(1, 6) is None
        assert [r.items for r in journal.since(5, 7)] == [(5,), (6,)]
        assert journal.oldest == 5

    def test_a_span_of_exactly_the_budget_is_kept(self):
        graph = Graph("g")
        for i in range(MAX_DELTA_ITEMS):
            graph.add(triple(f"ttn:S{i}", "ttn:p", i))
        assert len(graph.deltas_since(0)) == MAX_DELTA_ITEMS
        graph.add(triple("ttn:T", "ttn:p", 1))
        assert graph.deltas_since(0) is None
        assert len(graph.deltas_since(1)) == MAX_DELTA_ITEMS

    def test_a_batch_larger_than_the_budget_leaves_an_empty_window(self):
        graph = Graph("g")
        graph.add_all(triple(f"ttn:S{i}", "ttn:p", i) for i in range(MAX_DELTA_ITEMS + 1))
        assert len(graph.journal) == 0 and graph.journal.oldest == graph.version
        assert graph.deltas_since(graph.version - 1) is None
        assert graph.deltas_since(graph.version) == []
        graph.add(triple("ttn:T", "ttn:p", 1))
        assert [r.items for r in graph.deltas_since(graph.version - 1)] == \
            [(triple("ttn:T", "ttn:p", 1),)]


class TestListenersNeverBreakWrites:
    @staticmethod
    def _stores():
        graph = Graph("g")
        yield graph, graph, lambda: graph.add(triple("ttn:S", "ttn:p", 1))
        store = FullTextStore("ft", fields=[FieldConfig("text", "text")])
        yield store, store, lambda: store.add({"id": 1, "text": "alpha"})
        db = Database("d")
        table = db.create_table_from_rows("t", [{"a": 0}])
        yield db, table, lambda: table.insert({"a": 1})

    def test_a_raising_listener_neither_fails_the_write_nor_silences_later_ones(self):
        for store, written, write in self._stores():
            def fail(record):
                raise RuntimeError("listener bug")

            heard = []
            store.journal.subscribe(fail)
            store.journal.subscribe(heard.append)
            before, written_before = store.version, written.version
            write()
            assert store.version == before + 1 and written.version == written_before + 1
            assert [r.pre_version for r in heard] == [before]
            assert store.deltas_since(before) == heard


# ---------------------------------------------------------------------------
# Snapshots and deltas_since against deep copies (hypothesis differential)
# ---------------------------------------------------------------------------

def _plan(rng: random.Random, count: int, big: float) -> list[tuple[str, list[int]]]:
    """``count`` batches over a small key domain, mostly of one item:
    writes (inserts, or upserts of keys present) and removals."""
    plan = []
    for _ in range(count):
        size = rng.randint(2, 100) if rng.random() < big else 1
        kind = "remove" if rng.random() < 0.2 else "write"
        plan.append((kind, [rng.randrange(150) for _ in range(size)]))
    return plan


class _GraphModel:
    def __init__(self):
        self.store = Graph("g")

    def apply(self, kind, keys, revision):
        triples = [triple(f"ttn:S{k}", "ttn:p", revision // 20) for k in keys]
        (self.store.add_all if kind == "write" else self.store.remove_all)(triples)

    def copy(self):
        return set(self.store)

    def reads(self, store):
        probe = triple("ttn:S1", "ttn:p", 3)
        return set(store), len(store), store.subjects(probe.predicate, probe.obj)


class _FullTextModel:
    def __init__(self):
        self.store = FullTextStore("ft", fields=[FieldConfig("text", "text"),
                                                FieldConfig("tag", "keyword")])

    def apply(self, kind, keys, revision):
        if kind == "write":
            self.store.add_all({"id": k, "text": f"alpha w{(k + revision) % 5}",
                                "tag": f"t{revision % 3}"} for k in keys)
        else:
            for k in keys:
                self.store.remove(str(k))

    def copy(self):
        return {d.doc_id: copy.deepcopy(d.fields) for d in self.store.documents()}

    def reads(self, store):
        return ({d.doc_id: d.fields for d in store.documents()},
                store.matches("text:w1"), store.count("tag:t0"))


class _JSONModel:
    def __init__(self):
        self.store = JSONDocumentStore("docs")

    def apply(self, kind, keys, revision):
        if kind == "write":
            self.store.add_all({"id": str(k), "k": (k + revision) % 4, "r": revision}
                               for k in keys)
        else:
            for k in keys:
                self.store.remove(str(k))

    def copy(self):
        return copy.deepcopy(self.store.documents())

    def reads(self, store):
        return store.documents(), store.doc_ids_with_path("k")


def _expected_reads(model_type, state):
    """What ``model_type``'s reads give on a fresh store holding ``state``."""
    fresh = model_type()
    fresh.store.add_all(state.values() if isinstance(state, dict) else state)
    return fresh.reads(fresh.store)


@pytest.mark.parametrize("model_type", [_GraphModel, _FullTextModel, _JSONModel])
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(count=st.integers(1, 700), seed=st.integers(0, 2 ** 16),
       big=st.sampled_from([0.0, 0.02, 0.3]), pins=st.lists(st.floats(0, 1), max_size=3))
@example(count=700, seed=1, big=0.0, pins=[0.0, 0.5, 0.99])
@example(count=700, seed=2, big=0.3, pins=[0.0, 0.6, 0.99])
def test_snapshots_and_deltas_since_match_deep_copies(model_type, count, seed, big, pins):
    model = model_type()
    store = model.store
    written = []
    store.journal.subscribe(written.append)
    plan = _plan(random.Random(seed), count, big)
    pin_at = {int(p * count) for p in pins}
    held = []
    for revision, (kind, keys) in enumerate(plan):
        if revision in pin_at:
            held.append((store.snapshot(), model.copy()))
        before = store.version
        model.apply(kind, keys, revision)
        if kind == "write" and model_type is not _GraphModel:
            assert store.version == before + 1 and len(written[-1].items) == len(keys)
    # A snapshot reads what a deep copy taken at its version holds, and
    # rebuilding it wrote nothing into the live store.
    for snapshot, state in held:
        assert model.reads(snapshot) == _expected_reads(model_type, state)
    assert model.reads(store) == _expected_reads(model_type, model.copy())
    # The log chains exactly the batches written, from every version its
    # window holds; it dropped only spans over the budget.
    head = store.version
    assert [r.post_version for r in written] == list(range(1, head + 1))
    for version in range(head + 1):
        chain = store.deltas_since(version)
        span = written[version:]
        if chain is None:
            assert sum(r.size for r in span) > MAX_DELTA_ITEMS
        else:
            assert chain == span
            assert sum(r.size for r in chain) <= MAX_DELTA_ITEMS
            upto = (version + head) // 2
            assert store.deltas_since(version, upto) == written[version:upto]
    assert store.journal.oldest == head - len(store.journal)


def test_a_read_only_pass_copies_only_what_the_replay_wrote():
    """A snapshot one write behind rebuilds its store over copy-on-write
    views of the live indexes.  Reading every bucket of it afterwards
    shares the live containers: ``_own`` holds just the keys the replay
    of the one written document touched."""
    fulltext = FullTextStore("ft", fields=[FieldConfig("text", "text"),
                                           FieldConfig("user", "keyword")])
    fulltext.add_all({"id": str(i), "text": f"alpha w{i % 7}", "user": f"u{i % 120}"}
                     for i in range(2000))
    documents = JSONDocumentStore("docs")
    documents.add_all({"id": str(i), "user": {"screen_name": f"u{i % 120}"}}
                      for i in range(2000))
    behind = fulltext.snapshot(), documents.snapshot()
    fulltext.add_all([{"id": "new", "text": "alpha w8", "user": "u7"}])
    documents.add_all([{"id": "new", "user": {"screen_name": "u7"}}])

    with behind[0].reading() as store:
        buckets, postings = store._keyword_indexes["user"], store._text_indexes["text"]._postings
        replayed = set(buckets._own), set(postings._own)
        assert replayed == ({"u7"}, {"alpha", "w8"})
        for key in list(buckets):
            store.keyword_documents("user", key)
        assert (store.count("text:w1"), store.count("text:alpha")) == (286, 2000)
        assert (set(buckets._own), set(postings._own)) == replayed
    with behind[1].reading() as store:
        index = store.index_for("user.screen_name")
        replayed = set(index.postings._own)
        assert replayed == {"u7"}
        assert sum(len(index.lookup_eq(key)) for key in list(index.postings)) == 2000
        assert set(index.postings._own) == replayed
    assert len(behind[0]) == len(behind[1]) == 2000
