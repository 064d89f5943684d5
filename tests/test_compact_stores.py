"""The compact stores answer what the per-document structures answered.

The full-text index keeps a term frequency per (term, document), no
positions; the JSON store keeps no per-document leaf list, and its path
indexes no set of the documents holding a path nor a set per value held
once.  Each test here holds a read that used them to a reference built
without them: a phrase to a naive scan of every document's stems, BM25
to a ``Counter`` of each document's terms, the JSON digest and the
matcher's candidates to a walk over every document's leaves.  Two
structural tests hold the layouts themselves.
"""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core import FullTextQuery
from repro.datasets import DemoConfig, build_demo_instance
from repro.datasets.loader import TWEETS_JSON_URI, TWEETS_URI, party_vocabulary_query
from repro.digest.dataguide import leaves
from repro.digest.valueset import ValueSetSummary
from repro.fulltext import bm25_score, tweet_store
from repro.fulltext.index import InvertedIndex
from repro.fulltext.query import PhraseQuery
from repro.fulltext.scoring import bm25_scorer
from repro.fulltext.source import FullTextSource
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json import index as json_index
from repro.json.index import compare, normalize
from repro.json.matcher import TreePatternMatcher, match_document
from repro.json.pattern import (
    COMPARISONS, Parameter, PatternLeaf, Predicate, TreePattern, path_matches)
from repro.json.source import JSONSource
from repro.json.store import JSONDocumentStore

# ---------------------------------------------------------------------------
# Phrases: a run of the candidate's stems, derived again
# ---------------------------------------------------------------------------

#: Few words, stop words among them, so that phrases are often found and
#: often found apart.
_WORDS = ["etat", "urgence", "de", "la", "budget", "vote", "votes", "the", "urgences"]
_FIELDS = [FieldConfig("text", "text"), FieldConfig("tag", "keyword")]

_text = st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join)
_document = st.fixed_dictionaries({"text": _text | st.lists(_text, max_size=3)},
                                  optional={"tag": st.sampled_from(["a", "b"])})
#: A write batch: documents added (an id already stored is upserted), or
#: one id removed.
_write = st.one_of(
    st.tuples(st.just("add"), st.lists(st.tuples(st.integers(0, 7), _document),
                                       min_size=1, max_size=4)),
    st.tuples(st.just("remove"), st.integers(0, 7)))
_phrases = st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3),
                    min_size=1, max_size=4)


def _naive_phrase(store: FullTextStore, documents, words: list[str]) -> set[str]:
    """The documents whose analysed text holds the phrase's stems as a
    run: every document analysed, every start tried."""
    stems = [stem for word in words for stem in store.analyzer.stems(word)]
    if not stems:
        return set()
    found = set()
    for doc in documents:
        text = doc.fields["text"]
        terms = store.analyzer.stems(" ".join(text) if isinstance(text, list) else text)
        if any(terms[at:at + len(stems)] == stems for at in range(len(terms))):
            found.add(doc.doc_id)
    return found


class TestPhraseMatches:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(writes=st.lists(_write, min_size=1, max_size=6), pin_at=st.integers(0, 6),
           phrases=_phrases)
    def test_match_sets_are_the_naive_scan(self, writes, pin_at, phrases):
        """Live after every batch, and in a snapshot pinned before later
        writes: each phrase matches what the naive scan finds."""
        store, pinned = FullTextStore("phrases", _FIELDS), None
        for step, (kind, items) in enumerate(writes):
            if step == pin_at:
                pinned = store.snapshot(), store.documents()
            if kind == "add":
                store.add_all([{**document, "id": doc_id} for doc_id, document in items])
            else:
                store.remove(str(items))
            for words in phrases:
                assert store.matches(PhraseQuery("text", tuple(words))) == _naive_phrase(
                    store, store.documents(), words), words
        if pinned is None:
            return
        snapshot, documents = pinned
        with snapshot.reading() as frozen:
            for words in phrases:
                assert frozen.matches(PhraseQuery("text", tuple(words))) == _naive_phrase(
                    store, documents, words), words


# ---------------------------------------------------------------------------
# BM25: the frequency the index keeps is the document's own count
# ---------------------------------------------------------------------------

def _counted_bm25(documents: dict[str, list[str]], terms: list[str], doc_id: str,
                  k1: float = 1.2, b: float = 0.75) -> float:
    """BM25 from the documents alone: ``Counter`` frequencies, their
    lengths and document frequencies, in the textbook's order."""
    counts = {doc: Counter(words) for doc, words in documents.items()}
    average = sum(map(len, documents.values())) / len(documents) or 1.0
    norm = k1 * ((1.0 - b) + b * len(documents[doc_id]) / average)
    total = 0.0
    for term in terms:
        tf = counts[doc_id][term]
        if tf:
            df = sum(1 for count in counts.values() if count[term])
            idf = math.log((len(documents) + 1) / (df + 1)) + 1.0
            total += idf * (tf * (k1 + 1.0)) / (tf + norm)
    return total


@settings(max_examples=150, deadline=None, derandomize=True)
@given(writes=st.lists(st.tuples(st.integers(0, 6), st.none() | st.lists(
    st.sampled_from("abcde"), max_size=8)), min_size=1, max_size=12),
    terms=st.lists(st.sampled_from("abcdez"), min_size=1, max_size=3))
def test_bm25_is_the_counter_reference(writes, terms):
    """Through adds, upserts and removals (``None``), every score is the
    reference's float, bit for bit."""
    index, documents = InvertedIndex("text"), {}
    for key, words in writes:
        doc_id = f"d{key}"
        if doc_id in documents:
            index.remove(doc_id, documents.pop(doc_id))
        if words is not None:
            index.add(doc_id, words)
            documents[doc_id] = words
    ids = sorted(documents)
    if not ids:
        return
    expected = [_counted_bm25(documents, terms, doc_id) for doc_id in ids]
    assert bm25_scorer(index, terms)(ids) == expected
    assert [bm25_score(index, terms, doc_id) for doc_id in ids] == expected


# ---------------------------------------------------------------------------
# Layout: no position tuple, no per-document leaf list
# ---------------------------------------------------------------------------

def _leaf_lists(store) -> list[str]:
    """The attributes of ``store`` mapping a key to a list of
    ``(path, value)`` pairs."""
    return [name for name, value in vars(store).items() if isinstance(value, dict) and any(
        isinstance(item, list) and item and isinstance(item[0], tuple)
        for item in value.values())]


class TestCompactLayout:
    def test_postings_hold_frequencies_and_json_keeps_no_leaf_lists(self):
        """Live, and in snapshots read back across a write: every posting
        is an ``int``, and no JSON store maps a document to its leaves."""
        demo = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42))
        tweets = demo.instance.source(TWEETS_URI).store
        documents = demo.instance.source(TWEETS_JSON_URI).store
        pinned = tweets.snapshot(), documents.snapshot()
        first = documents.documents()[0]
        tweets.add({**tweets.documents()[0].fields, "text": "etat de urgence etat"})
        documents.add({**first, "text": "etat de urgence"})
        with pinned[0].reading() as text, pinned[1].reading() as json:
            assert text is not tweets and json is not documents
            for store in (tweets, text):
                for index in store._text_indexes.values():
                    assert index._postings
                    assert all(type(frequency) is int for postings in index._postings.values()
                               for frequency in postings.values())
            for store in (documents, pinned[1], json):
                assert _leaf_lists(store) == []

    def test_json_path_indexes_of_unique_values_hold_no_sets(self):
        """2,000 documents with a unique ``id`` and ``text`` each: those
        paths hold 1-tuple buckets only, and what the path indexes allocate
        stays under 900 B per document (1,470 when each path kept a
        presence set and each value a set, 556 with 1-tuples and a count)."""
        documents = [{"id": i, "text": f"Tweet {i} on the budget",
                      "created_at": f"2016-01-{i % 28 + 1:02d}T{i % 24:02d}:00:{i:06d}",
                      "user": {"screen_name": f"user{i % 40}"},
                      "entities": {"hashtags": ["sia2016", f"tag{i % 9}"][:1 + i % 2]},
                      "retweet_count": i % 7} for i in range(2000)]
        store = JSONDocumentStore("guard")
        tracemalloc.start()
        try:
            store.add_all(documents)
            traced = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        for path in ("id", "text", "created_at"):
            index = store.index_for(path)
            assert index.document_count == 2000 and len(index.postings) == 2000
            assert {type(ids) for ids in index.postings.values()} == {tuple}
        assert {type(ids) for ids in store.index_for("user.screen_name").postings.values()} \
            == {set}
        allocated = sum(stat.size for stat in traced.filter_traces(
            [tracemalloc.Filter(True, json_index.__file__)]).statistics("filename"))
        assert allocated / len(documents) < 900


# ---------------------------------------------------------------------------
# The JSON de-index: leaves walked again off the stored copy
# ---------------------------------------------------------------------------

#: Leaves a path may hold: ``1``, ``True`` and ``1.0`` share an index
#: key; strings differ in case only.
_LEAF = st.sampled_from([1, True, 1.0, 0, False, 2, 3.5, "Anne", "anne", "SIA2016",
                         "x y", None])
_JSON_DOCUMENT = st.fixed_dictionaries({}, optional={
    "n": _LEAF, "tags": st.lists(_LEAF, max_size=4),
    "user": st.fixed_dictionaries({}, optional={"name": _LEAF,
                                                "ids": st.lists(_LEAF, max_size=3)})})


def _index_state(store) -> dict:
    """Path -> what its index holds, each bucket with its form (keys
    equal under ``==`` are one)."""
    with store.reading() as read:
        return {path: ({key: (type(ids), set(ids)) for key, ids in index.postings.items()},
                       index.document_count, index.occurrences, index.types)
                for path in read.paths() for index in (read.index_for(path),)}


def _fresh(documents) -> JSONDocumentStore:
    store = JSONDocumentStore("docs")
    store.add_all(documents)
    return store


class TestJSONDeindex:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(writes=st.lists(st.one_of(
        st.tuples(st.just("add"), st.lists(st.tuples(st.integers(0, 5), _JSON_DOCUMENT),
                                           min_size=1, max_size=3)),
        st.tuples(st.just("remove"), st.integers(0, 5))), min_size=1, max_size=6),
        pin_at=st.integers(0, 6))
    def test_indexes_are_a_fresh_stores(self, writes, pin_at):
        """Through add, upsert and remove batches, live and in a snapshot
        pinned before later writes: every path index is the one a store
        built from the documents standing there holds."""
        store, pinned = JSONDocumentStore("docs"), None
        for step, (kind, items) in enumerate(writes):
            if step == pin_at:
                pinned = store.snapshot(), store.documents()
            if kind == "add":
                store.add_all([{**document, "id": f"d{key}"} for key, document in items])
            else:
                store.remove(f"d{items}")
            assert _index_state(store) == _index_state(_fresh(store.documents()))
        if pinned is not None:
            snapshot, documents = pinned
            assert _index_state(snapshot) == _index_state(_fresh(documents))


# ---------------------------------------------------------------------------
# JSON candidates: the index pruning against a walk over every document
# ---------------------------------------------------------------------------

#: Pattern paths: ``id`` and ``kind`` are in every document, the leaf
#: paths after them in some, ``user`` is interior and ``*.name`` a wildcard.
_PATTERN_PATHS = ["id", "kind", "n", "tags", "user.name", "user.ids", "user", "*.name"]
_PATTERN_LEAVES = st.lists(st.tuples(
    st.sampled_from(_PATTERN_PATHS), st.booleans(),
    st.lists(st.builds(Predicate, st.sampled_from(COMPARISONS),
                       st.one_of(_LEAF, st.just(Parameter("p")))), max_size=2)),
    min_size=1, max_size=3, unique_by=lambda leaf: leaf[0])
_PUSHDOWN = st.dictionaries(st.sampled_from(["v0", "v1", "v2"]), _LEAF, max_size=2)


def _pattern(leaves) -> TreePattern:
    return TreePattern(tuple(PatternLeaf(path, f"v{i}" if binds else None, tuple(predicates))
                             for i, (path, binds, predicates) in enumerate(leaves)))


def _walked_candidates(documents, pattern, parameters=None, pushdown=None) -> list[str]:
    """Ids, in insertion order, of the documents holding every leaf's path
    and, at a path some document holds a value at, a value meeting each
    resolved predicate but ``!=`` and the pushed-down value."""
    pushdown = pushdown or {}
    held = []
    for document in documents:
        values: dict[str, list] = {}
        for path, value in leaves(document):
            values.setdefault(path, []).append(value)
        held.append((str(document["id"]), values))
    valued = {path for _, values in held for path in values}

    def meets(op, value, reference) -> bool:
        key, reference = normalize(value), normalize(reference)
        if op == "=":
            return key == reference
        return compare(op, key, reference) or (
            isinstance(key, bool) and compare(op, int(key), reference))

    def kept(leaf, values) -> bool:
        if leaf.path not in valued:
            return any(path_matches(leaf.path, path, prefix=True) for path in values)
        found = values.get(leaf.path, [])
        for predicate in leaf.predicates:
            reference = predicate.value
            if isinstance(reference, Parameter):
                if reference.name not in (parameters or {}):
                    continue
                reference = parameters[reference.name]
            if predicate.op != "!=" and not any(meets(predicate.op, v, reference)
                                                for v in found):
                return False
        if leaf.variable in pushdown and not any(
                meets("=", v, pushdown[leaf.variable]) for v in found):
            return False
        return bool(found)

    return [doc_id for doc_id, values in held
            if all(kept(leaf, values) for leaf in pattern.leaves)]


class TestJSONCandidates:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(writes=st.lists(st.one_of(
        st.tuples(st.just("add"), st.lists(st.tuples(st.integers(0, 5), _LEAF, _JSON_DOCUMENT),
                                           min_size=1, max_size=3)),
        st.tuples(st.just("remove"), st.integers(0, 5))), min_size=1, max_size=6),
        pin_at=st.integers(0, 6), leaves_=_PATTERN_LEAVES,
        parameters=st.one_of(st.none(), st.fixed_dictionaries({"p": _LEAF})),
        pushdown=_PUSHDOWN,
        calls=st.lists(st.tuples(st.fixed_dictionaries({"p": _LEAF}), _PUSHDOWN),
                       min_size=2, max_size=3))
    def test_candidates_are_a_document_walks(self, writes, pin_at, leaves_, parameters,
                                             pushdown, calls):
        """Through add, upsert and remove batches (lists repeat values; two
        paths are in every document), live and in a snapshot pinned before
        later writes: the candidates, the batch's base set among them, are
        the documents a walk keeps, and every call of a batch answers what
        the naive semantics does over every document."""
        pattern = _pattern(leaves_)
        store, pinned = JSONDocumentStore("docs"), None

        def check(read, documents):
            with read.reading() as store:
                matcher = TreePatternMatcher(store)
                assert matcher.candidates(pattern, parameters, pushdown) == \
                    _walked_candidates(documents, pattern, parameters, pushdown)
                assert matcher.candidates(pattern) == _walked_candidates(documents, pattern)
                answers = matcher.match_batch(pattern, calls)
            for (bound, pushed), rows in zip(calls, answers):
                assert [dict(zip(pattern.columns, row)) for row in rows] == [
                    row for document in documents
                    for row in match_document(pattern, document, bound, pushed)]

        for step, (kind, items) in enumerate(writes):
            if step == pin_at:
                pinned = store.snapshot(), store.documents()
            if kind == "add":
                store.add_all([{**document, "id": f"d{key}", "kind": value}
                               for key, value, document in items])
            else:
                store.remove(f"d{items}")
            check(store, store.documents())
        if pinned is not None:
            check(*pinned)


# ---------------------------------------------------------------------------
# The JSON digest: index keys, once per document, against a leaf walk
# ---------------------------------------------------------------------------

def _state(value):
    """A summary as plain data, compared whole."""
    if hasattr(value, "__dict__"):
        return type(value).__name__, {key: _state(item) for key, item in vars(value).items()}
    if isinstance(value, (list, tuple)):
        return [_state(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(map(repr, value))
    if isinstance(value, dict):
        return {key: _state(item) for key, item in value.items()}
    if isinstance(value, bytearray):
        return bytes(value)
    return repr(value)


def _digest_states(source: JSONSource) -> dict:
    digest = source.derive_digest()
    return {node.position: _state(digest.values_of(node)) for node in digest.nodes}


def _walked_states(store: JSONDocumentStore, *, per_document: bool) -> dict:
    """Path -> the summary of the leaves walked off every document.

    ``per_document`` takes what a path index files: a document's values
    at a path once each, equal values (``1``, ``True``, ``1.0``; strings
    by case) one value spelled as the walk first met it in the store."""
    grouped: dict[str, list] = {}
    spelled: dict[str, dict] = {}
    for document in store.documents():
        walked = list(leaves(document))
        if per_document:
            walked = list(dict.fromkeys(
                (path, spelled.setdefault(path, {}).setdefault(normalize(value), normalize(value)))
                for path, value in walked))
        for path, value in walked:
            grouped.setdefault(path, []).append(value)
    return {path: _state(ValueSetSummary(values)) for path, values in grouped.items()}


def _plain(store: JSONDocumentStore) -> bool:
    """Whether no document repeats a value at a path, and no two values
    one path files under one key print apart (``1`` and ``True``)."""
    spellings: dict[tuple, set[str]] = {}
    for document in store.documents():
        seen = set()
        for path, value in leaves(document):
            if value is None:
                continue
            key = (path, normalize(value))
            if key in seen:
                return False
            seen.add(key)
            spellings.setdefault(key, set()).add(str(value).strip().lower())
    return all(len(printed) == 1 for printed in spellings.values())


class TestJSONDigest:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(documents=st.lists(_JSON_DOCUMENT, min_size=1, max_size=8))
    def test_index_keys_per_document_are_the_leaf_walk(self, documents):
        """On documents repeating a value in one array and mixing bools
        and numbers at one path, the digest is the walk's summary taken
        per document; with neither, it is the plain walk's."""
        store = JSONDocumentStore("docs")
        store.add_all([{**document, "id": f"d{i}"} for i, document in enumerate(documents)])
        source = JSONSource("json://docs", store)
        derived = _digest_states(source)
        assert derived == _walked_states(store, per_document=True)
        if _plain(store):
            assert derived == _walked_states(store, per_document=False)

    def test_the_demo_digest_is_the_plain_leaf_walk(self):
        """The demo's tweets repeat no value in an array nor mix bools and
        numbers: every path's summary is the plain walk's."""
        demo = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42))
        source = demo.instance.source(TWEETS_JSON_URI)
        assert _digest_states(source) == _walked_states(source.store, per_document=False)


# ---------------------------------------------------------------------------
# Ranking: only a binding with a hit is ranked
# ---------------------------------------------------------------------------

class TestRankOnlyHits:
    def test_one_rank_per_binding_with_a_hit(self, monkeypatch):
        """A group's binding whose keyword bucket leaves no hit is not
        ranked; its answer stays empty."""
        store = tweet_store()
        store.add_all([{"id": i, "text": "budget vote", "user": {"screen_name": name}}
                       for i, name in enumerate(["anne", "bob", "anne"])])
        source = FullTextSource("solr://t", store)
        ranks = []
        rank = FullTextStore.rank
        monkeypatch.setattr(FullTextStore, "rank",
                            lambda self, *args, **kw: ranks.append(1) or rank(self, *args, **kw))
        query = FullTextQuery.create("text:budget", {"id": "user.screen_name"})
        answers = source.execute_batch(query, [{"id": "anne"}, {"id": "carl"}, {"id": "bob"},
                                               {"id": "dora"}])
        assert [sum(len(batch.rows) for batch in answer) for answer in answers] == [2, 0, 1, 0]
        assert len(ranks) == 2

    def test_party_cmqs_rank_each_hit_binding_once(self, monkeypatch):
        """Cold party CMQs on the demo: ranks equal the full-text
        bindings answered with a row, fewer than the bindings asked."""
        demo = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42))
        ranks, bindings, hits = [], [], []
        rank, execute_batch = FullTextStore.rank, FullTextSource.execute_batch
        monkeypatch.setattr(FullTextStore, "rank",
                            lambda self, *args, **kw: ranks.append(1) or rank(self, *args, **kw))

        def counted(self, query, batch):
            answers = execute_batch(self, query, batch)
            bindings.append(len(batch))
            hits.append(sum(1 for answer in answers if any(b.rows for b in answer)))
            return answers

        monkeypatch.setattr(FullTextSource, "execute_batch", counted)
        for word in ("france", "nation", "solidarite", "chomage", "budget"):
            demo.instance.clear_caches()
            demo.instance.execute(party_vocabulary_query(demo, word))
        assert sum(hits) > 0
        assert len(ranks) == sum(hits) < sum(bindings)
