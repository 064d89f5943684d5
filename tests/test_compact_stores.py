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

import copy
import itertools
import math
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import FullTextQuery
from repro.datasets import DemoConfig, build_demo_instance
from repro.datasets.loader import TWEETS_JSON_URI, TWEETS_URI, party_vocabulary_query
from repro.digest.dataguide import leaves
from repro.digest.valueset import ValueSetSummary
from repro.errors import FullTextError, JSONError
from repro.fulltext import bm25_score, tweet_store
from repro.fulltext.analysis import (
    MIN_TOKEN_LENGTH, AnalyzedText, Analyzer, normalize as normalize_token, stem)
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


# ---------------------------------------------------------------------------
# Analysis: each raw token analysed once per configuration
# ---------------------------------------------------------------------------

_REF_TOKEN_RE = re.compile(r"[#@]?[\w'À-ſ-]+", re.UNICODE)
_REF_HASHTAG_RE = re.compile(r"#(\w+)", re.UNICODE)
_REF_MENTION_RE = re.compile(r"@(\w+)", re.UNICODE)
_REF_URL_RE = re.compile(r"https?://\S+")


def _reference_analysis(analyzer: Analyzer, text: str) -> AnalyzedText:
    """The analysis chain without a token memo: every token of every text
    normalised, filtered and stemmed again."""
    urls = tuple(_REF_URL_RE.findall(text))
    cleaned = _REF_URL_RE.sub(" ", text)
    hashtags = tuple(tag.lower() for tag in _REF_HASHTAG_RE.findall(cleaned))
    mentions = tuple(m.lower() for m in _REF_MENTION_RE.findall(cleaned))
    stop = analyzer.stopwords()
    tokens: list[str] = []
    for raw in _REF_TOKEN_RE.findall(cleaned):
        if raw.startswith("@"):
            continue
        if raw.startswith("#"):
            if analyzer.keep_hashtags:
                tokens.append(raw.lower())
            continue
        token = normalize_token(raw)
        if len(token) < MIN_TOKEN_LENGTH or token in stop or token.isdigit():
            continue
        tokens.append(token)
    stems = tuple(stem(t, analyzer.language) if not t.startswith("#") else t for t in tokens)
    return AnalyzedText(tokens=tuple(tokens), stems=stems, hashtags=hashtags,
                        mentions=mentions, urls=urls)


#: One process-wide memo serves every configuration: these differ on the
#: same raw tokens (a stop word, a kept hashtag, a language's suffixes).
_ANALYZERS = (Analyzer(), Analyzer(extra_stopwords=frozenset({"budget", "accord", "solidarite"})),
              Analyzer(keep_hashtags=False), Analyzer(language="en"),
              Analyzer(language="en", keep_hashtags=False,
                       extra_stopwords=frozenset({"working", "budget"})))
_PIECES = ["http://t.co/ab12", "https://ex.org/a?b=1", "http", "#SIA2016", "#Etat_urgence", "#",
           "@fhollande", "@Le_Pen", "@", "l'accord", "qu'il", "l'd'accord", "d'Élysée", "L'",
           "Élysée", "été", "ça", "naïve", "perquisitions", "abusives", "2016", "42", "a", "x",
           "le", "the", "and", "Budget", "budget", "solidarité", "working", "factories", "-",
           "'", "--x--", "votes", "urgences"]
_SEPARATORS = [" ", " ", ", ", "", "!", "\n"]
_TEXT = st.lists(st.tuples(st.sampled_from(_PIECES) | st.text("abéÉ#@'-:/h2 ", max_size=5),
                           st.sampled_from(_SEPARATORS)),
                 max_size=10).map(lambda parts: "".join(p + s for p, s in parts))


class TestTokenMemo:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(asked=st.lists(st.tuples(st.integers(0, len(_ANALYZERS) - 1), _TEXT),
                          min_size=1, max_size=10))
    @example(asked=[(0, "budget #SIA2016 working"), (1, "budget #SIA2016 working"),
                    (2, "budget #SIA2016 working"), (3, "budget #SIA2016 working"),
                    (4, "budget #SIA2016 working")])
    def test_analysis_is_the_reference_chain(self, asked):
        """Analyzers of every configuration, interleaved in one process:
        ``analyze`` and ``stems`` answer what the unmemoised chain does."""
        for which, text in asked:
            analyzer = _ANALYZERS[which]
            expected = _reference_analysis(analyzer, text)
            assert analyzer.analyze(text) == expected, (which, text)
            assert analyzer.stems(text) == list(expected.stems), (which, text)


# ---------------------------------------------------------------------------
# Bulk ingest: store state as a naive replay of the writes builds it
# ---------------------------------------------------------------------------

#: Leaves and containers of every shape: ``1``, ``1.0`` and ``True`` at one
#: path, ``None``, empty containers, nested lists and lists of objects.
_JSON_VALUE = st.recursive(
    st.sampled_from([1, 1.0, True, False, 0, None, "x", "X", "y", 2.5, ""]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b", "c"]), children, max_size=3),
    max_leaves=8)
_JSON_BODY = st.dictionaries(st.sampled_from(["a", "b", "c", "id"]), _JSON_VALUE, max_size=3)
#: Stands for a malformed document: not an object, or no id.
_MALFORMED = st.sampled_from([["not", "an", "object"], {"a": 1}])
_JSON_BATCH = st.lists(st.tuples(st.integers(0, 4), _JSON_BODY).map(
    lambda item: {**item[1], "id": item[0]}) | _MALFORMED, min_size=1, max_size=4)
_WRITES = st.lists(st.tuples(st.just("add"), _JSON_BATCH)
                   | st.tuples(st.just("remove"), st.integers(0, 4)), min_size=1, max_size=6)


class _ReplayedJSON:
    """The JSON store's state replayed naively: ``leaves`` of each
    document, ``normalize``d keys, a list of ids per key."""

    def __init__(self):
        self.documents, self.ranks, self.indexes, self.version = {}, {}, {}, 0
        self._next = 0

    def add(self, doc_id: str, document: dict) -> None:
        self.remove(doc_id)
        self.documents[doc_id], self.ranks[doc_id] = document, self._next
        self._next += 1
        for path, values in _grouped(document).items():
            index = self.indexes.setdefault(path, {"postings": {}, "count": 0,
                                                   "occurrences": 0, "types": {}})
            index["count"] += 1
            for value in values:
                ids = index["postings"].setdefault(normalize(value), [])
                if doc_id not in ids:
                    ids.append(doc_id)
                index["occurrences"] += 1
                name = type(value).__name__
                index["types"][name] = index["types"].get(name, 0) + 1

    def remove(self, doc_id: str) -> bool:
        document = self.documents.pop(doc_id, None)
        if document is None:
            return False
        del self.ranks[doc_id]
        for path, values in _grouped(document).items():
            index = self.indexes[path]
            index["count"] -= 1
            for value in values:
                ids = index["postings"].get(normalize(value))
                if ids is not None and doc_id in ids:
                    ids.remove(doc_id)
                    if not ids:
                        del index["postings"][normalize(value)]
                index["occurrences"] -= 1
                name = type(value).__name__
                index["types"][name] -= 1
                if not index["types"][name]:
                    del index["types"][name]
            if not index["count"]:
                del self.indexes[path]
        return True

    def state(self) -> tuple:
        return (repr(list(self.documents.items())), list(self.ranks.items()), self.version,
                [(path, [(repr(key), sorted(ids), len(ids) == 1)
                         for key, ids in index["postings"].items()],
                  index["count"], index["occurrences"], list(index["types"].items()))
                 for path, index in self.indexes.items()])


def _grouped(document: dict) -> dict[str, list]:
    grouped: dict[str, list] = {}
    for path, value in leaves(document):
        grouped.setdefault(path, []).append(value)
    return grouped


def _json_state(store: JSONDocumentStore) -> tuple:
    """Every structure a JSON write fills, in its order (``repr`` tells
    ``True`` from ``1``; a bucket's form is whether it is a 1-tuple)."""
    return (repr(list(store._documents.items())), list(store._ranks.items()), store.version,
            [(path, [(repr(key), sorted(ids), type(ids) is tuple)
                     for key, ids in index.postings.items()],
              index.document_count, index.occurrences, list(index.types.items()))
             for path, index in store._indexes.items()])


def _containers(value) -> list:
    """Every dict and list of a JSON value, the value itself included."""
    found, stack = [], [value]
    while stack:
        value = stack.pop()
        if isinstance(value, (dict, list)):
            found.append(value)
            stack.extend(value.values() if isinstance(value, dict) else value)
    return found


_FT_SCALAR = st.sampled_from([None, 1, True, 2.5, "Budget", "budget", "x"]) | _TEXT
_FT_VALUE = (_FT_SCALAR | st.lists(_FT_SCALAR, max_size=3)
             | st.dictionaries(st.sampled_from(["name", "id"]), _FT_SCALAR, max_size=2))
_FT_FIELDS = [FieldConfig("text", "text"), FieldConfig("tags", "keyword", multi_valued=True),
              FieldConfig("user.name", "keyword"), FieldConfig("n", "numeric")]
_FT_BATCH = st.lists(st.tuples(st.integers(0, 4), st.dictionaries(
    st.sampled_from(["text", "tags", "user", "n", "other"]), _FT_VALUE, max_size=4)).map(
        lambda item: {**item[1], "id": item[0]}) | st.just({"text": "no id"}),
    min_size=1, max_size=4)


def _get(fields: dict, path: str):
    for part in path.split("."):
        if not isinstance(fields, dict) or part not in fields:
            return None
        fields = fields[part]
    return fields


class _ReplayedText:
    """The full-text store's state replayed naively: each field read off
    the document, the text analysed by the reference chain."""

    def __init__(self, analyzer: Analyzer):
        self.analyzer, self.version = analyzer, 0
        self.documents, self.rows, self.top_keys = {}, {}, {}
        self.postings, self.lengths = {"text": {}}, {"text": {}}
        self.keywords = {"tags": {}, "user.name": {}}

    def _terms(self, fields: dict) -> list[str] | None:
        value = _get(fields, "text")
        if value is None:
            return None
        text = " ".join(map(str, value)) if isinstance(value, list) else str(value)
        return list(_reference_analysis(self.analyzer, text).stems)

    @staticmethod
    def _keys(fields: dict, name: str) -> list[str]:
        value = _get(fields, name)
        if isinstance(value, list):
            return [str(v).lower() for v in value if v is not None]
        return [] if value is None else [str(value).lower()]

    def add(self, source: dict) -> None:
        doc_id = str(source["id"])
        self.remove(doc_id)
        fields = self.documents[doc_id] = dict(source)
        row = []
        for config in _FT_FIELDS:
            cell = _get(fields, config.name)
            if isinstance(cell, list):
                cell = cell[0] if len(cell) == 1 else tuple(cell)
            row.append(cell)
        self.rows[doc_id] = tuple(row)
        for key in fields:
            self.top_keys[key] = self.top_keys.get(key, 0) + 1
        terms = self._terms(fields)
        if terms is not None:
            for term, frequency in Counter(terms).items():
                self.postings["text"].setdefault(term, {})[doc_id] = frequency
            self.lengths["text"][doc_id] = len(terms)
        for name, buckets in self.keywords.items():
            for key in self._keys(fields, name):
                buckets.setdefault(key, set()).add(doc_id)

    def remove(self, doc_id: str) -> bool:
        fields = self.documents.pop(doc_id, None)
        if fields is None:
            return False
        del self.rows[doc_id]
        for key in fields:
            self.top_keys[key] -= 1
        for term in self._terms(fields) or ():
            postings = self.postings["text"].get(term)
            if postings is not None and postings.pop(doc_id, None) is not None \
                    and not postings:
                del self.postings["text"][term]
        self.lengths["text"].pop(doc_id, None)
        for name, buckets in self.keywords.items():
            for key in self._keys(fields, name):
                if key in buckets:
                    buckets[key].discard(doc_id)
                    if not buckets[key]:
                        del buckets[key]
        return True

    def state(self) -> tuple:
        return ([(doc_id, repr(fields)) for doc_id, fields in self.documents.items()],
                repr(list(self.rows.items())), list(self.top_keys.items()), self.version,
                [(term, list(postings.items())) for term, postings in self.postings["text"].items()],
                list(self.lengths["text"].items()), sum(self.lengths["text"].values()),
                {name: [(key, sorted(ids)) for key, ids in buckets.items()]
                 for name, buckets in self.keywords.items()})


def _text_state(store: FullTextStore) -> tuple:
    index = store._text_indexes["text"]
    return ([(doc_id, repr(doc.fields)) for doc_id, doc in store._documents.items()],
            repr(list(store._stored.items())), list(store._top_keys.items()), store.version,
            [(term, list(postings.items())) for term, postings in index._postings.items()],
            list(index._doc_lengths.items()), index._total_length,
            {name: [(key, sorted(ids)) for key, ids in buckets.items()]
             for name, buckets in store._keyword_indexes.items()})


class TestBulkIngest:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(writes=_WRITES)
    def test_json_state_is_the_naive_replay(self, writes):
        """Batches with upserts, malformed documents and removals: after
        each write the store holds what the replay holds, in its orders,
        its stored copies share no container with what was added, and a
        batch broken mid-way still bumps the version exactly once."""
        store, replay, added = JSONDocumentStore("docs"), _ReplayedJSON(), []
        for kind, items in writes:
            if kind == "remove":
                removed = replay.remove(str(items))
                replay.version += removed
                assert store.remove(str(items)) == removed
            else:
                landed = 0
                for document in items:
                    if not isinstance(document, dict) or "id" not in document:
                        break
                    replay.add(str(document["id"]), copy.deepcopy(document))
                    added.append(document)
                    landed += 1
                replay.version += landed > 0
                if landed < len(items):
                    with pytest.raises(JSONError):
                        store.add_all(items)
                else:
                    assert store.add_all(items) == landed
            assert _json_state(store) == replay.state()
        stored = {id(c) for document in store.documents() for c in _containers(document)}
        assert not stored & {id(c) for document in added for c in _containers(document)}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(writes=st.lists(st.tuples(st.just("add"), _FT_BATCH)
                           | st.tuples(st.just("remove"), st.integers(0, 4)),
                           min_size=1, max_size=6),
           which=st.integers(0, len(_ANALYZERS) - 1))
    def test_full_text_state_is_the_naive_replay(self, writes, which):
        """Batches with upserts, documents without an id and removals, under
        each analyzer: after each write the store's documents, stored rows,
        top-level key counts, postings, lengths and keyword buckets are the
        replay's, in their orders, and a batch broken mid-way still bumps
        the version exactly once."""
        store = FullTextStore("docs", _FT_FIELDS, analyzer=_ANALYZERS[which])
        replay = _ReplayedText(_ANALYZERS[which])
        for kind, items in writes:
            if kind == "remove":
                removed = replay.remove(str(items))
                replay.version += removed
                assert store.remove(str(items)) == removed
            else:
                landed = list(itertools.takewhile(lambda source: "id" in source, items))
                for source in landed:
                    replay.add(source)
                replay.version += bool(landed)
                if len(landed) < len(items):
                    with pytest.raises(FullTextError):
                        store.add_all(items)
                else:
                    assert store.add_all(items) == len(items)
            assert _text_state(store) == replay.state()
