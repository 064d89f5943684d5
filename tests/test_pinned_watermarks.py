"""A pin is a watermark: snapshots of the RDF graph, the full-text store
and the JSON store read the live store at their own version, and a
database snapshot reads each table up to its row count, instead of
copying the store.

Counts and answers, not timings: a superseded snapshot of any store is
freed by reference counting alone; a direct graph write reaches G∞
through the journal; every live pin answers what a copy taken at pin
time answers, under any interleaving of writes; a pin allocates what was
written, not what is stored; and readers racing a writer see their own
version.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import tracemalloc
import weakref
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.rdf.source as rdf_source
from repro.core import (
    FullTextQuery,
    FullTextSource,
    JSONQuery,
    RDFQuery,
    RDFSource,
    RelationalSource,
    SQLQuery,
)
from repro.json.source import JSONSource
from repro.engine.batch import dict_rows
from repro.digest.dataguide import leaves
from repro.fulltext import tweet_store
from repro.fulltext.query import parse_query
from repro.json.store import JSONDocumentStore
from repro.rdf import Graph, triple, uri
from repro.rdf.entailment import saturate
from repro.rdf.terms import RDF_TYPE, TriplePattern, Variable
from repro.relational import Database

WORDS = ["urgence", "budget", "vote", "france", "agriculteurs"]
TAGS = ["sia2016", "etat", "vote"]
NAMES = ["anne", "bob", "carl"]


def _doc(doc_id: int, spec=((0, 3), 0, 0, 1)) -> dict:
    words, tag, name, retweets = spec
    return {"id": doc_id, "text": " ".join(WORDS[w] for w in words),
            "user": {"screen_name": NAMES[name]},
            "entities": {"hashtags": [TAGS[tag]]}, "retweet_count": retweets}


def _database() -> Database:
    database = Database("db")
    database.create_table_from_rows("t", [{"a": 0, "b": "x"}])
    return database


def _spy(monkeypatch, owner, attribute: str, calls: Counter) -> None:
    original = getattr(owner, attribute)

    def counted(*args, **kwargs):
        calls[attribute] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, counted)


# ---------------------------------------------------------------------------
# 1. A superseded snapshot is not a reference cycle
# ---------------------------------------------------------------------------

STORES = {
    "graph": (lambda: Graph("g", [triple("ttn:a", "ttn:p", 0)]),
              lambda graph, i: graph.add(triple(f"ttn:s{i}", "ttn:p", i))),
    "fulltext": (lambda: _filled(tweet_store("s")), lambda store, i: store.add(_doc(i))),
    "json": (lambda: _filled(JSONDocumentStore("j")), lambda store, i: store.add(_doc(i))),
    "database": (_database,
                 lambda database, i: database.execute(f"INSERT INTO t (a, b) VALUES ({i}, 'y')")),
}


def _filled(store):
    store.add(_doc(0))
    return store


@pytest.mark.parametrize("kind", sorted(STORES))
def test_a_superseded_snapshot_dies_without_a_collection(kind):
    make, write = STORES[kind]
    store = make()
    gc.disable()
    try:
        first = store.snapshot()
        assert first.snapshot() is first
        write(store, 1)
        second = store.snapshot()
        assert second is not first and second.snapshot() is second
        dead = weakref.ref(first)
        del first
        assert dead() is None              # parent: alive until a gen-2 collection
        write(store, 2)
        third = store.snapshot()
        dead = weakref.ref(second)
        del second
        assert dead() is None and third.version == store.version
    finally:
        gc.enable()


def test_a_superseded_pin_of_every_wrapper_dies_without_a_collection():
    graph = Graph("g", [triple("ttn:a", "rdf:type", "ttn:C"),
                        triple("ttn:C", "rdfs:subClassOf", "ttn:D")])
    text, documents = _filled(tweet_store("s")), _filled(JSONDocumentStore("j"))
    database = _database()
    wrappers = [
        (RDFSource("rdf://g", graph, entailment=True),
         lambda i: graph.add(triple(f"ttn:s{i}", "rdf:type", "ttn:C")),
         RDFQuery.from_text("SELECT ?x WHERE { ?x rdf:type ttn:D }")),
        (FullTextSource("solr://s", text), lambda i: text.add(_doc(i)),
         FullTextQuery.create("text:urgence", {"id": "id"})),
        (JSONSource("json://j", documents), lambda i: documents.add(_doc(i)),
         JSONQuery.from_text("{ text: ?t }")),
        (RelationalSource("sql://db", database),
         lambda i: database.execute(f"INSERT INTO t (a, b) VALUES ({i}, 'y')"),
         SQLQuery(sql="SELECT a AS a FROM t")),
    ]
    gc.disable()
    try:
        for source, write, query in wrappers:
            first = source.pin()
            first.execute(query)
            write(1)
            second = source.pin()
            assert len(second.execute(query)) == len(first.execute(query)) + 1
            dead = weakref.ref(first)
            del first
            assert dead() is None, type(source).__name__
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# 2. An out-of-band graph write reaches G∞ through the journal
# ---------------------------------------------------------------------------

def test_a_direct_graph_write_reaches_the_closure_through_the_journal(monkeypatch):
    graph = Graph("big")
    graph.add(triple("ttn:politician", "rdfs:subClassOf", "ttn:person"))
    graph.add_all(triple(f"ttn:P{i}", "rdf:type", "ttn:politician") for i in range(2500))
    graph.add_all(triple(f"ttn:P{i}", "ttn:name", f"n{i}") for i in range(2500))
    source = RDFSource("rdf://big", graph, entailment=True)
    query = RDFQuery.from_text("SELECT ?x WHERE { ?x rdf:type ttn:person }")
    assert len(source.execute(query)) == len(source.pin().execute(query)) == 2500

    fed: list = []
    real = rdf_source.saturate_delta

    def recorded(saturated, delta, schema=None):
        fed.append(list(delta))
        return real(saturated, delta, schema=schema)

    added = triple("ttn:Q", "rdf:type", "ttn:politician")
    graph.add(added)                         # past the wrapper
    calls: Counter = Counter()
    with monkeypatch.context() as patch:
        patch.setattr(rdf_source, "saturate_delta", recorded)
        _spy(patch, Graph, "__iter__", calls)
        live = source.execute(query)         # parent: a scan of the whole graph
        pinned = source.pin().execute(query)
    assert fed == [[added]]
    assert calls["__iter__"] == 0
    expected, _ = saturate(graph)
    person = {t.subject.value for t in expected.match(
        TriplePattern(Variable("x"), RDF_TYPE, uri("ttn:person")))}
    assert {row["x"] for row in live} == {row["x"] for row in pinned} == person
    assert len(person) == 2501


# ---------------------------------------------------------------------------
# 3. Every live pin answers what a copy taken at pin time answers
# ---------------------------------------------------------------------------

UNIVERSE = (
    [triple(f"ttn:s{s}", f"ttn:p{p}", f"ttn:o{o}")
     for s in range(3) for p in range(2) for o in range(2)]
    + [triple(f"ttn:s{s}", "rdf:type", f"ttn:C{c}") for s in range(3) for c in range(2)]
    + [triple("ttn:C0", "rdfs:subClassOf", "ttn:C1"),
       triple("ttn:p0", "rdfs:subPropertyOf", "ttn:p1"),
       triple("ttn:p1", "rdfs:domain", "ttn:C0"),
       triple("ttn:s0", "ttn:p0", "ttn:s0"),
       triple("ttn:s1", "ttn:p1", 3)])

_ANY = Variable("any")
_S, _P, _O = (uri(f"ttn:{name}") for name in ("s0", "p0", "o0"))
PATTERNS = [TriplePattern(Variable("s"), Variable("p"), Variable("o")),
            TriplePattern(_S, Variable("p"), Variable("o")),
            TriplePattern(Variable("s"), _P, Variable("o")),
            TriplePattern(Variable("s"), Variable("p"), _O),
            TriplePattern(_S, _P, Variable("o")),
            TriplePattern(Variable("s"), RDF_TYPE, uri("ttn:C1")),
            TriplePattern(_ANY, _P, _ANY)]
TEXT_QUERIES = ["text:urgence", "text:budget OR text:vote", "entities.hashtags:sia2016",
                "user.screen_name:anne AND text:france", "text:*", "text:\"budget vote\""]

RDF_ALL = RDFQuery.from_text("SELECT ?x ?c WHERE { ?x rdf:type ?c }")
RDF_BOUND = RDFQuery.from_text("SELECT ?x ?o WHERE { ?x ttn:p1 ?o }")
TEXT_ALL = FullTextQuery.create("text:urgence", {"id": "id", "who": "user.screen_name"})
TEXT_BOUND = FullTextQuery.create("entities.hashtags:{tag}", {"id": "id", "n": "retweet_count"})
JSON_ALL = JSONQuery.from_text("{ text: ?t, user.screen_name: ?u }")
JSON_TAGGED = JSONQuery.from_text('{ user.screen_name: ?u, entities.hashtags: "vote" }')
SQL_ALL = SQLQuery(sql="SELECT a AS a, b AS b FROM t")
SQL_BOUND = SQLQuery(sql="SELECT b AS b FROM t WHERE a = {x}")


def _rows(rows) -> list:
    return sorted(repr(sorted(row.items())) for row in rows)


def _graph_answers(graph) -> tuple:
    answers = []
    for pattern in PATTERNS:
        answers += [frozenset(graph.match(pattern)), graph.count(pattern)]
    objects = graph.objects(_S, _P)
    value = graph.value(_S, _P)
    answers += [graph.subjects(_P, None), graph.subjects(None, _O),
                graph.subjects(RDF_TYPE, uri("ttn:C0")), graph.subjects(),
                graph.objects(_S, None), graph.objects(None, uri("ttn:p1")), graph.objects(),
                objects, value in objects if objects else value is None,
                graph.predicates(), graph.resources_of_type(uri("ttn:C1")),
                graph.predicate_counts(), len(graph), graph.terms(), graph.literals(),
                [t in graph for t in UNIVERSE]]
    return tuple(answers)


def _store_answers(store) -> tuple:
    answers = []
    for text in TEXT_QUERIES:
        query = parse_query(text)
        matches = store.matches(query)
        answers += [[(hit.document.doc_id, hit.score) for hit in store.search(text, limit=None)],
                    [hit.document.doc_id for hit in store.search(
                        text, limit=2, sort_by="retweet_count", facet_fields=["week"]).hits],
                    sorted(matches), store.rank(matches, store.scorer(query)), store.count(query)]
    answers += [{(name, key): set(store.keyword_documents(name, key))
                 for name, keys in (("user.screen_name", NAMES), ("entities.hashtags", TAGS))
                 for key in keys},
                [store.document_frequency("text", word) for word in WORDS],
                store.average_document_frequency("text"),
                store.average_document_frequency("entities.hashtags"),
                store.distinct_term_count("text"), store.distinct_term_count("user.screen_name"),
                sorted(store.field_values("retweet_count")), len(store),
                sorted(doc.doc_id for doc in store.documents()),
                [str(i) in store and store.get(str(i)).fields for i in range(6)],
                sorted(store.facet(store.matches("text:*"), "user.screen_name"))]
    return tuple(answers)


def _values_by_path(store) -> dict:
    """Path -> the leaf values found there, walked off every document."""
    grouped: dict = {}
    for document in store.documents():
        for path, value in leaves(document):
            grouped.setdefault(path, []).append(value)
    return grouped


def _json_answers(store) -> tuple:
    """Every read of a JSON store, in an order a copy reproduces (ranks
    as an order, index postings and dataguide samples as sets)."""
    indexes = {path: store.index_for(path) for path in store.paths()}
    guide = store.dataguide()
    return ([doc_id for doc_id, _ in store.items()], store.documents(), store.paths(),
            sorted(store.documents(), key=lambda doc: store.insertion_rank(str(doc["id"]))),
            {path: (index.documents(), {repr(k): ids for k, ids in index.postings.items()},
                    index.occurrences, index.types, index.document_count,
                    index.lookup_cmp(">=", 2), index.lookup_eq("anne"))
             for path, index in indexes.items()},
            {path: sorted(map(repr, values)) for path, values in _values_by_path(store).items()},
            [store.doc_ids_with_path(path) for path in ("user", "entities", "*.screen_name", "x")],
            len(store), [str(i) in store and store.get(str(i)) for i in range(6)],
            guide.document_count, {path: (info.count, info.types)
                                   for path, info in guide.paths.items()})


def _wrapper_answers(rdf, text, documents, sql) -> tuple:
    subjects = [{"x": uri(f"ttn:s{s}").value} for s in range(3)]
    return (_rows(rdf.execute(RDF_ALL)),
            [_rows(rows) for rows in map(dict_rows, rdf.execute_batch(RDF_BOUND, subjects))],
            rdf.estimate(RDF_ALL),
            _rows(text.execute(TEXT_ALL)),
            [_rows(rows) for rows in map(dict_rows, text.execute_batch(
                TEXT_BOUND, [{"tag": t} for t in TAGS]))],
            [sorted(row.items()) for row in documents.execute(JSON_ALL)],  # rank order
            [[sorted(row.items()) for row in rows] for rows in map(
                dict_rows, documents.execute_batch(JSON_ALL, [{"u": name} for name in NAMES]))],
            # (Not a structural pattern: the lineage's axis statistics are
            # exact for its newest store only.)
            [documents.estimate(query, {"u"}, {"u": "anne"}) for query in (JSON_ALL, JSON_TAGGED)],
            _rows(sql.execute(SQL_ALL)),
            [_rows(rows) for rows in map(
                dict_rows, sql.execute_batch(SQL_BOUND, [{"x": 1}, {"x": 2}]))],
            sql.estimate(SQL_ALL), sql.size())


class _World:
    """All four stores, their wrappers, and the pins taken so far."""

    def __init__(self):
        self.graph = Graph("g", UNIVERSE[:4] + UNIVERSE[-5:-2])
        self.text = tweet_store("s")
        self.documents = JSONDocumentStore("j")
        self.database = _database()
        self.text.add_all(_doc(i) for i in range(2))
        self.documents.add_all(_doc(i) for i in range(2))
        self.rdf = RDFSource("rdf://g", self.graph, entailment=True)
        self.sources = (self.rdf, FullTextSource("solr://s", self.text),
                        JSONSource("json://j", self.documents),
                        RelationalSource("sql://db", self.database))
        self.rows = 1
        self.pins: list = []

    def apply(self, op, argument, flag) -> None:
        if op == "add":
            batch = [UNIVERSE[i] for i in argument]
            if flag:
                self.rdf.add_triples(batch)
            else:
                self.graph.add_all(batch)
        elif op == "remove":
            self.graph.remove_all(UNIVERSE[i] for i in argument)
        elif op == "swap":  # a graph upsert: one fact replaced by another
            self.graph.remove(UNIVERSE[argument[0]])
            self.graph.add(UNIVERSE[argument[1]])
        elif op == "docs":  # inserts and upserts
            self.text.add_all(_doc(i, spec) for i, spec in argument)
            self.documents.add_all(_doc(i, spec) for i, spec in argument)
        elif op == "drop":
            self.text.remove(str(argument))
            self.documents.remove(str(argument))
        elif op == "rows":
            self.database.table("t").insert_many(
                {"a": self.rows + i, "b": "y"} for i in range(argument))
            self.rows += argument
        elif op == "pin":
            self.pin(query_now=flag)

    def pin(self, query_now: bool) -> None:
        graph_twin = Graph("twin", list(self.graph))
        text_twin = tweet_store("twin")
        text_twin.add_all(self.text.documents())
        documents_twin = JSONDocumentStore("twin")
        documents_twin.add_all(self.documents.documents())
        database_twin = Database("twin")
        for table in self.database.tables():
            database_twin.create_table(table.schema).insert_many(table.rows)
        pinned = tuple(source.pin() for source in self.sources)
        views = (self.graph.snapshot(), self.text.snapshot(), self.documents.snapshot())
        assert pinned[0].graph is views[0] and pinned[1].store is views[1]
        assert pinned[2].store is views[2]
        twins = (RDFSource("rdf://t", graph_twin, entailment=True),
                 FullTextSource("solr://t", text_twin),
                 JSONSource("json://t", documents_twin),
                 RelationalSource("sql://t", database_twin))
        expected = (_graph_answers(graph_twin), _store_answers(text_twin),
                    _json_answers(documents_twin), _wrapper_answers(*twins))
        if query_now:  # read while the watermark stands, or only after writes
            self._check(views, pinned, expected)
        self.pins.append((views, pinned, expected))

    @staticmethod
    def _check(views, pinned, expected) -> None:
        graph_view, store_view, documents_view = views
        assert _graph_answers(graph_view) == expected[0]
        assert _store_answers(store_view) == expected[1]
        assert _json_answers(documents_view) == expected[2]
        assert _wrapper_answers(*pinned) == expected[3]

    def check(self) -> None:
        for views, pinned, expected in self.pins:
            self._check(views, pinned, expected)


_INDEX = st.integers(min_value=0, max_value=len(UNIVERSE) - 1)
_DOC_SPEC = st.tuples(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
                      st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2),
                      st.integers(min_value=0, max_value=3))
_OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), st.lists(_INDEX, min_size=1, max_size=4), st.booleans()),
    st.tuples(st.just("remove"), st.lists(_INDEX, min_size=1, max_size=3), st.just(False)),
    st.tuples(st.just("swap"), st.tuples(_INDEX, _INDEX), st.just(False)),
    st.tuples(st.just("docs"), st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                                                  _DOC_SPEC), min_size=1, max_size=3),
              st.just(False)),
    st.tuples(st.just("drop"), st.integers(min_value=0, max_value=5), st.just(False)),
    st.tuples(st.just("rows"), st.integers(min_value=1, max_value=2), st.just(False)),
    st.tuples(st.just("pin"), st.just(0), st.booleans())), min_size=2, max_size=12)


@given(ops=_OPS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_every_live_pin_answers_as_a_copy_taken_at_pin_time(ops):
    """Inserts, removals and upserts on all four stores, and pins, in any
    order; after every step each pin — the stores' snapshots and the
    four pinned wrappers, G∞ included — answers what a copy of the
    stores taken at pin time answers (BM25 scores bit-equal, JSON rows
    in rank order)."""
    world = _World()
    world.pin(query_now=False)
    for op, argument, flag in ops:
        world.apply(op, argument, flag)
        world.check()


def test_a_json_pin_reads_through_upserts_and_removals():
    """The draw the property above must be able to make, spelled out:
    JSON upserts and removals with pins in between, each pin then read
    after every later write."""
    world = _World()
    steps = [("pin", 0, True), ("docs", [(0, ((1,), 1, 1, 2)), (4, ((2, 4), 2, 0, 3))], False),
             ("pin", 0, False), ("drop", 1, False), ("docs", [(1, ((0,), 0, 2, 0))], False),
             ("pin", 0, True), ("docs", [(4, ((3,), 1, 1, 1)), (4, ((0, 1), 0, 0, 2))], False),
             ("drop", 0, False), ("drop", 4, False), ("pin", 0, False),
             ("docs", [(0, ((4,), 2, 1, 3))], False)]
    for op, argument, flag in steps:
        world.apply(op, argument, flag)
        world.check()
    assert len(world.pins) == 4


# ---------------------------------------------------------------------------
# 4. A pin after a write allocates the write, not the store
# ---------------------------------------------------------------------------

def _pin_bytes(source, write) -> int:
    """Peak bytes ``source.pin()`` allocates right after ``write()``."""
    source.pin()
    write()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        source.pin()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _glue_pin_bytes(size: int) -> int:
    graph = Graph("glue", [triple("ttn:politician", "rdfs:subClassOf", "ttn:person")])
    graph.add_all(triple(f"ttn:P{i}", "rdf:type", "ttn:politician") for i in range(size))
    graph.add_all(triple(f"ttn:P{i}", "ttn:name", f"n{i}") for i in range(size))
    source = RDFSource("rdf://glue", graph, entailment=True)
    source.pin().execute(RDFQuery.from_text("SELECT ?x WHERE { ?x rdf:type ttn:person }"))
    return _pin_bytes(source, lambda: source.add_triples(
        [triple("ttn:Evt", "ttn:observedAt", 1), triple("ttn:Evt", "ttn:severity", 2)]))


def _fulltext_pin_bytes(size: int) -> int:
    store = tweet_store("tweets")
    store.add_all(_doc(i, ((i % 5, (i + 1) % 5), i % 3, i % 3, i % 4)) for i in range(size))
    source = FullTextSource("solr://tweets", store)
    return _pin_bytes(source, lambda: store.add_all(
        _doc(size + i, ((i % 5,), i % 3, i % 3, 1)) for i in range(50)))


def _json_pin_bytes(size: int) -> int:
    store = JSONDocumentStore("tweets")
    store.add_all(_doc(i, ((i % 5, (i + 1) % 5), i % 3, i % 3, i % 4)) for i in range(size))
    source = JSONSource("json://tweets", store)
    source.pin().execute(JSON_ALL)
    # Upserts: every posting set they touch was copied for the parent's pin.
    return _pin_bytes(source, lambda: store.add_all(
        _doc(i, ((i % 5,), i % 3, (i + 1) % 3, 1)) for i in range(50)))


def _sql_pin_bytes(size: int) -> int:
    database = _database()
    database.table("t").insert_many({"a": i, "b": "x"} for i in range(1, size))
    source = RelationalSource("sql://db", database)
    return _pin_bytes(source, lambda: database.table("t").insert_many(
        {"a": size + i, "b": "y"} for i in range(50)))


@pytest.mark.parametrize("pin_bytes", [_glue_pin_bytes, _fulltext_pin_bytes,
                                       _json_pin_bytes, _sql_pin_bytes],
                         ids=["glue", "fulltext", "json", "sql"])
def test_the_pin_after_a_write_does_not_grow_with_the_store(pin_bytes):
    small, large = pin_bytes(500), pin_bytes(2000)
    # Parent: a copy of every index (hundreds of kilobytes at 2,000).
    assert large <= small + 1024, (small, large)
    assert large < 16 * 1024, large


# ---------------------------------------------------------------------------
# 5. Readers on pinned views race a writer
# ---------------------------------------------------------------------------

@pytest.mark.stress
def test_pinned_readers_race_a_writer():
    """A writer adds, removes and upserts while readers run wildcard
    ``match``, ``search``, keyword-bucket, tree-pattern and path-index
    reads on pinned views: no ``RuntimeError``, and every answer is the
    pin-time copy's."""
    readers = int(os.environ.get("REPRO_STRESS_READERS", "4"))
    rounds = int(os.environ.get("REPRO_STRESS_QUERIES", "5")) * 2
    graph = Graph("g", [triple(f"ttn:s{i}", "ttn:p", f"ttn:o{i % 7}") for i in range(300)])
    store = tweet_store("s")
    store.add_all(_doc(i, ((i % 5, (i * 3) % 5), i % 3, i % 3, i % 4)) for i in range(300))
    documents = JSONDocumentStore("j")
    documents.add_all(_doc(i, ((i % 5, (i * 3) % 5), i % 3, i % 3, i % 4)) for i in range(300))
    source = JSONSource("json://j", documents)
    stop = threading.Event()
    failures: list = []

    def writer():
        i = 0
        try:
            while not stop.is_set():
                i += 1
                graph.add_all(triple(f"ttn:n{i}-{k}", "ttn:p", f"ttn:o{k}") for k in range(5))
                graph.remove_all([triple(f"ttn:s{i % 300}", "ttn:p", f"ttn:o{i % 7}")])
                store.add_all([_doc(1000 + i),
                               _doc(i % 300, ((i % 5,), i % 3, (i + 1) % 3, i))])
                store.remove(str((i * 7) % 300))
                documents.add_all([_doc(1000 + i),
                                   _doc(i % 300, ((i % 5,), i % 3, (i + 1) % 3, i))])
                documents.remove(str((i * 7) % 300))
        except Exception as error:  # noqa: BLE001 - reported below
            failures.append(error)

    def reader():
        try:
            for _ in range(rounds):
                with graph.rwlock.read_locked(), store._rwlock.read_locked(), \
                        documents._rwlock.read_locked():
                    view, twin = graph.snapshot(), set(graph)
                    text_view, texts = store.snapshot(), store.documents()
                    json_view, pinned = documents.snapshot(), source.pin()
                    json_docs = documents.documents()
                text_twin = tweet_store("twin")
                text_twin.add_all(texts)
                json_twin = JSONDocumentStore("twin")
                json_twin.add_all(json_docs)
                json_source = JSONSource("json://twin", json_twin)
                wildcard = TriplePattern(Variable("s"), Variable("p"), Variable("o"))
                for _ in range(3):
                    assert set(view.match(wildcard)) == twin
                    assert len(view) == len(twin)
                    for query in ("text:urgence", "text:budget OR text:vote"):
                        assert [(h.document.doc_id, h.score) for h in
                                text_view.search(query, limit=None)] == \
                            [(h.document.doc_id, h.score) for h in
                             text_twin.search(query, limit=None)]
                    for name in NAMES:
                        assert text_view.keyword_documents("user.screen_name", name) == \
                            text_twin.keyword_documents("user.screen_name", name)
                    assert pinned.execute(JSON_ALL) == json_source.execute(JSON_ALL)
                    assert list(map(dict_rows, pinned.execute_batch(
                        JSON_ALL, [{"u": n} for n in NAMES]))) == list(map(dict_rows,
                            json_source.execute_batch(JSON_ALL, [{"u": n} for n in NAMES])))
                    assert json_view.index_for("user.screen_name").documents() == \
                        json_twin.index_for("user.screen_name").documents()
                    assert json_view.documents() == json_docs
        except Exception as error:  # noqa: BLE001 - reported below
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=writer)] + \
        [threading.Thread(target=reader) for _ in range(readers)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads[1:]:
            thread.join(timeout=120)
    finally:
        stop.set()
        threads[0].join(timeout=120)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
