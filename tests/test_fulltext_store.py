"""Unit tests for documents, the inverted index and the Solr-like store."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FullTextError
from repro.fulltext import (
    Document,
    FieldConfig,
    FullTextStore,
    InvertedIndex,
    bm25_score,
    make_document,
    parse_query,
    tf_idf_score,
)
from repro.core import FullTextQuery
from repro.datasets import DemoConfig, build_demo_instance
from repro.datasets.loader import FACEBOOK_URI
from repro.fulltext.query import BooleanQuery, PhraseQuery, RangeQuery, TermQuery
from repro.fulltext.store import facebook_store


class TestDocument:
    def test_nested_field_access(self):
        doc = Document("1", {"user": {"screen_name": "fhollande"}, "retweet_count": 4})
        assert doc.get("user.screen_name") == "fhollande"
        assert doc.get("missing.path", "default") == "default"

    def test_flat_fields_include_list_members(self):
        doc = Document("1", {"entities": {"hashtags": ["SIA2016", "Agriculture"]}})
        paths = [p for p, _ in doc.flat_fields()]
        assert paths.count("entities.hashtags") == 2

    def test_make_document_requires_id(self):
        with pytest.raises(FullTextError):
            make_document({"text": "no id"})

    def test_make_document_nested_id_field(self):
        doc = make_document({"user": {"id": 42}, "text": "x"}, id_field="user.id")
        assert doc.doc_id == "42"

    def test_text_of_concatenates(self):
        doc = Document("1", {"a": "hello", "b": ["x", "y"], "c": 3})
        assert doc.text_of(["a", "b", "c"]) == "hello x y 3"


class TestInvertedIndex:
    def test_postings_and_frequencies(self):
        index = InvertedIndex("text")
        index.add("d1", ["urgence", "etat", "urgence"])
        index.add("d2", ["parlement", "etat"])
        assert index.document_frequency("etat") == 2
        assert index.term_frequency("urgence", "d1") == 2
        assert index.documents_with("parlement") == {"d2"}

    def test_document_lengths_and_average(self):
        index = InvertedIndex("text")
        index.add("d1", ["a", "b", "c"])
        index.add("d2", ["a"])
        assert index.document_length("d1") == 3
        assert index.average_document_length() == 2.0

    def test_remove_document(self):
        index = InvertedIndex("text")
        index.add("d1", ["a"])
        index.remove("d1", ["a"])
        assert index.document_frequency("a") == 0
        assert index.document_count() == 0
        assert index.vocabulary() == set() and len(index) == 0

    def test_idf_decreases_with_frequency(self):
        index = InvertedIndex("text")
        for i in range(10):
            index.add(f"d{i}", ["common"] + (["rare"] if i == 0 else []))
        assert index.idf("rare") > index.idf("common")

    def test_scoring_prefers_matching_documents(self):
        index = InvertedIndex("text")
        index.add("d1", ["urgence", "urgence", "etat"])
        index.add("d2", ["agriculture", "salon"])
        assert bm25_score(index, ["urgence"], "d1") > bm25_score(index, ["urgence"], "d2")
        assert tf_idf_score(index, ["urgence"], "d1") > 0.0


class TestQueryParser:
    def test_bare_term(self):
        q = parse_query("urgence")
        assert isinstance(q, TermQuery) and q.field is None

    def test_field_term(self):
        q = parse_query("entities.hashtags:SIA2016")
        assert q.field == "entities.hashtags" and q.term == "SIA2016"

    def test_phrase(self):
        q = parse_query('text:"etat d urgence"')
        assert isinstance(q, PhraseQuery) and len(q.terms) == 3

    def test_boolean_and_or_not(self):
        q = parse_query("text:urgence AND (user.screen_name:fhollande OR NOT text:agriculture)")
        assert isinstance(q, BooleanQuery) and q.operator == "AND"

    def test_implicit_and(self):
        q = parse_query("text:urgence text:parlement")
        assert isinstance(q, BooleanQuery) and q.operator == "AND"

    def test_range(self):
        q = parse_query("retweet_count:[100 TO *]")
        assert isinstance(q, RangeQuery) and q.low == 100 and q.high is None

    def test_match_all(self):
        assert parse_query("*:*").__class__.__name__ == "MatchAllQuery"
        assert parse_query("").__class__.__name__ == "MatchAllQuery"


class TestStoreSearch:
    def test_add_and_len(self, small_tweet_store):
        assert len(small_tweet_store) == 3
        assert "1" in small_tweet_store

    def test_hashtag_keyword_search(self, small_tweet_store):
        result = small_tweet_store.search("entities.hashtags:sia2016")
        assert result.total == 1
        assert result.hits[0].get("user.screen_name") == "fhollande"

    def test_text_search_is_stemmed_and_accent_insensitive(self, small_tweet_store):
        result = small_tweet_store.search("text:solidarite")
        assert result.total == 1

    def test_keyword_field_exact_match(self, small_tweet_store):
        assert small_tweet_store.search("user.screen_name:fhollande").total == 2

    def test_boolean_combination(self, small_tweet_store):
        result = small_tweet_store.search("user.screen_name:fhollande AND text:chomage")
        assert result.total == 1

    def test_not_query(self, small_tweet_store):
        result = small_tweet_store.search("NOT user.screen_name:fhollande", limit=None)
        assert result.total == 1

    def test_range_query_on_counts(self, small_tweet_store):
        assert small_tweet_store.search("retweet_count:[300 TO *]").total == 2

    def test_phrase_query(self, small_tweet_store):
        assert small_tweet_store.search('text:"solidarite nationale"').total == 1
        assert small_tweet_store.search('text:"nationale solidarite"').total == 0

    def test_sort_by_stored_field(self, small_tweet_store):
        result = small_tweet_store.search("user.screen_name:fhollande", sort_by="retweet_count")
        assert [h.get("retweet_count") for h in result.hits] == [469, 300]

    def test_sort_by_puts_documents_missing_the_field_last(self):
        """Regression: a descending sort used to rank a document without
        the field first, so a top-k over ``retweet_count`` filled up with
        documents that have no count."""
        store = FullTextStore("mini", [FieldConfig("text", "text"),
                                       FieldConfig("retweet_count", "numeric")])
        store.add_all([{"id": 1, "text": "budget", "retweet_count": 5},
                       {"id": 2, "text": "budget"},
                       {"id": 3, "text": "budget", "retweet_count": 9},
                       {"id": 4, "text": "budget", "retweet_count": None}])

        def ranked(**options):
            return [hit.document.doc_id for hit in store.search(
                "text:budget", sort_by="retweet_count", **options).hits]

        assert ranked(limit=2) == ["3", "1"]
        assert ranked(limit=None) == ["3", "1", "4", "2"]
        assert ranked(limit=None, descending=False) == ["1", "3", "2", "4"]
        assert store.search("text:budget", limit=2, sort_by="retweet_count").total == 4

    def test_limit(self, small_tweet_store):
        result = small_tweet_store.search("*:*", limit=2)
        assert len(result.hits) == 2 and result.total == 3

    def test_facets(self, small_tweet_store):
        result = small_tweet_store.search("*:*", facet_fields=["user.screen_name"], limit=None)
        facets = dict(result.facets["user.screen_name"])
        assert facets == {"fhollande": 2, "mlepen": 1}

    def test_count(self, small_tweet_store):
        assert small_tweet_store.count("text:urgence") == 1

    def test_reindex_replaces_document(self, small_tweet_store):
        small_tweet_store.add({"id": 1, "text": "nouveau texte sans hashtag",
                               "user": {"screen_name": "fhollande"}, "entities": {"hashtags": []}})
        assert len(small_tweet_store) == 3
        assert small_tweet_store.search("entities.hashtags:sia2016").total == 0

    def test_remove_document(self, small_tweet_store):
        assert small_tweet_store.remove("2") is True
        assert small_tweet_store.search("text:parlement").total == 0
        assert small_tweet_store.remove("2") is False

    def test_unknown_field_falls_back_to_stored_comparison(self, small_tweet_store):
        assert small_tweet_store.search("favorite_count:883").total == 1

    def test_field_values_for_digests(self, small_tweet_store):
        values = small_tweet_store.field_values("user.screen_name")
        assert sorted(values) == ["fhollande", "fhollande", "mlepen"]

    def test_relevance_ranking_prefers_more_matching_terms(self):
        store = FullTextStore("mini", [FieldConfig("text", "text")], id_field="id")
        store.add({"id": 1, "text": "urgence urgence parlement"})
        store.add({"id": 2, "text": "urgence seulement ici"})
        hits = store.search("text:urgence").hits
        assert hits[0].document.doc_id == "1"
        assert hits[0].score >= hits[1].score

    def test_invalid_field_type_rejected(self):
        with pytest.raises(FullTextError):
            FieldConfig("text", "vector")


# ---------------------------------------------------------------------------
# Statistics maintained by the writes, constants computed once per search
# ---------------------------------------------------------------------------

_WORDS = ("urgence parlement budget agriculture chomage solidarite salon vote "
          "reforme europe climat sante ecole travail").split()


def _reference_statistics(store, field_name="text"):
    """Per-document stems of one text field, analysed again from the stored
    documents: what every index aggregate must agree with."""
    stems = {}
    for doc in store.documents():
        value = doc.get(field_name)
        if value is not None:
            stems[doc.doc_id] = store.analyzer.stems(FullTextStore._stringify(value))
    return stems


def _reference_bm25(stems, terms, doc_id, k1=1.2, b=0.75):
    """Okapi BM25 as the parent commit wrote it, every statistic from scratch."""
    lengths = [len(s) for s in stems.values()]
    average_length = (sum(lengths) / len(lengths) if lengths else 0.0) or 1.0
    doc_length = len(stems.get(doc_id, ()))
    score = 0.0
    for term in terms:
        tf = stems.get(doc_id, []).count(term)
        if tf == 0:
            continue
        df = sum(1 for s in stems.values() if term in s)
        idf = math.log((len(stems) + 1) / (df + 1)) + 1.0
        numerator = tf * (k1 + 1.0)
        denominator = tf + k1 * (1.0 - b + b * doc_length / average_length)
        score += idf * numerator / denominator
    return score


def _seeded_writes(store, rng, steps):
    """A mixed sequence of add / add_all / upsert / remove."""
    def document(doc_id):
        words = [rng.choice(_WORDS) for _ in range(rng.randint(0, 9))]
        return {"id": doc_id, "text": " ".join(words),
                "user": {"screen_name": rng.choice(["fhollande", "mlepen", "nsarkozy"])},
                "entities": {"hashtags": rng.sample(["SIA2016", "COP21", "Loi"],
                                                    rng.randint(0, 2))}}

    next_id = 1000
    for _ in range(steps):
        known = sorted(doc.doc_id for doc in store.documents())
        action = rng.choice(["add", "add_all", "upsert", "remove"])
        if action == "add" or not known:
            store.add(document(next_id))
            next_id += 1
        elif action == "add_all":
            fresh = [document(next_id + offset) for offset in range(3)]
            store.add_all(fresh + [document(rng.choice(known))])
            next_id += 3
        elif action == "upsert":
            store.add(document(rng.choice(known)))
        else:
            store.remove(rng.choice(known))


def _assert_index_agrees(store):
    index = store._text_indexes["text"]
    stems = _reference_statistics(store)
    lengths = [len(s) for s in stems.values()]
    assert index.document_count() == len(lengths)
    assert index.average_document_length() == \
        (sum(lengths) / len(lengths) if lengths else 0.0)
    assert index.vocabulary() == {term for s in stems.values() for term in s}
    analyse = store.analyzer.stems
    for doc_id in stems:
        for terms in (analyse("urgence"), analyse("budget vote"),
                      analyse("budget budget") + ["absent"]):
            assert bm25_score(index, terms, doc_id) == \
                pytest.approx(_reference_bm25(stems, terms, doc_id), abs=1e-12)


class TestScoringInvariants:
    def test_aggregates_follow_a_seeded_write_sequence(self, small_tweet_store):
        rng = random.Random(2016)
        for _ in range(12):
            _seeded_writes(small_tweet_store, rng, steps=5)
            _assert_index_agrees(small_tweet_store)

    def test_snapshot_keeps_its_scores_after_live_writes(self, small_tweet_store):
        rng = random.Random(7)
        _seeded_writes(small_tweet_store, rng, steps=25)
        frozen = small_tweet_store.snapshot()
        queries = ["text:urgence", "text:budget OR text:vote", "entities.hashtags:sia2016"]
        with frozen.reading() as store:
            before = [[(h.document.doc_id, h.score) for h in store.search(q, limit=None)]
                      for q in queries]
            average = store._text_indexes["text"].average_document_length()
        _seeded_writes(small_tweet_store, rng, steps=25)
        with frozen.reading() as store:
            assert [[(h.document.doc_id, h.score) for h in store.search(q, limit=None)]
                    for q in queries] == before
        # The live indexes read back at the snapshot's version.
        with frozen.reading() as store:
            assert store is not small_tweet_store
            assert store._text_indexes["text"].average_document_length() == average
            _assert_index_agrees(store)
        _assert_index_agrees(small_tweet_store)

    def test_add_then_remove_restores_every_statistic(self, small_tweet_store):
        store = small_tweet_store
        index = store._text_indexes["text"]

        def statistics():
            return (index.vocabulary(), len(index), index.document_count(),
                    index.average_document_length(),
                    store.average_document_frequency("text"),
                    store.average_document_frequency("entities.hashtags"),
                    store.distinct_term_count("entities.hashtags"),
                    {name: {keyword: set(ids) for keyword, ids in buckets.items()}
                     for name, buckets in store._keyword_indexes.items()})

        before = statistics()
        store.add({"id": 99, "text": "des mots jamais vus: zeppelin xylophone",
                   "user": {"screen_name": "newcomer"},
                   "entities": {"hashtags": ["Unseen", "SIA2016"]}})
        assert statistics() != before
        assert store.remove("99") is True
        assert statistics() == before
        # An upsert that rewrites a document and its reversal leave no trace either.
        original = store.get("1")
        store.add({"id": 1, "text": "tout autre chose", "entities": {"hashtags": ["Autre"]}})
        store.add(original)
        assert statistics() == before

    def test_hit_order_is_score_then_id(self, small_tweet_store):
        small_tweet_store.add_all([
            {"id": 4, "text": "urgence urgence au parlement"},
            {"id": 5, "text": "le parlement et l'urgence"},
            {"id": 6, "text": "le parlement et l'urgence"},
        ])
        stems = _reference_statistics(small_tweet_store)
        for words in (["urgence"], ["urgence", "parlement"], ["chomage", "agriculteurs"]):
            query = " OR ".join(f"text:{word}" for word in words)
            terms = [s for word in words for s in small_tweet_store.analyzer.stems(word)]
            hits = small_tweet_store.search(query, limit=None).hits
            expected = sorted(((_reference_bm25(stems, terms, h.document.doc_id) or 1.0,
                                h.document.doc_id) for h in hits),
                              key=lambda pair: (-pair[0], pair[1]))
            assert [h.document.doc_id for h in hits] == [doc_id for _, doc_id in expected]
            assert [h.score for h in hits] == pytest.approx([s for s, _ in expected], abs=1e-12)


class _CountingLengths(dict):
    """A length map that counts the reads of *all* its entries."""

    def __init__(self, *args):
        super().__init__(*args)
        self.full_reads = 0

    def values(self):
        self.full_reads += 1
        return super().values()

    def items(self):
        self.full_reads += 1
        return super().items()

    def __iter__(self):
        self.full_reads += 1
        return super().__iter__()


class TestSearchCostDoesNotScaleWithTheCorpus:
    def test_one_search_reads_all_lengths_a_constant_number_of_times(self):
        """No clocks: count the passes over the corpus-sized length map.

        One pass per scored hit (200 here) is what made a search cost
        hits x corpus; the average length is an aggregate of the writes.
        """
        store = FullTextStore("guard", [FieldConfig("text", "text")])
        store.add_all({"id": i, "text": "urgence " + " ".join(_WORDS[: i % 7])}
                      for i in range(200))
        store.add_all({"id": 1000 + i, "text": "rien a voir"} for i in range(300))
        index = store._text_indexes["text"]
        lengths = index._doc_lengths = _CountingLengths(index._doc_lengths)
        result = store.search("text:urgence", limit=None)
        assert result.total == 200
        assert lengths.full_reads <= 2
        bm25_score(index, ["urgenc"], "0")
        index.average_document_length()
        assert lengths.full_reads <= 2


# ---------------------------------------------------------------------------
# Stored rows: each declared field read once per write, into one row
# ---------------------------------------------------------------------------

_ROW_FIELDS = [FieldConfig("text", "text"), FieldConfig("a.b", "keyword"),
               FieldConfig("a.c", "text"), FieldConfig("tags", "keyword", multi_valued=True),
               FieldConfig("n", "numeric"), FieldConfig("a.b.d", "keyword")]

_ROW_TEXTS = ["urgence", "Budget vote", "a_b", "", "None", "none", "vote"]

#: What the reads compared below ask: terms, phrases, keywords of every
#: spelling a cell can be filed under, wildcards and a range.
_ROW_QUERIES = ["text:urgence", "text:none", 'text:"budget vote"', "a.c:vote", "a.c:none",
                "tags:none", "tags:a_b", "tags:1", "tags:true", "tags:urgence", "a.b:none",
                "a.b:vote", "a.b:0", "a.b.d:urgence", "a.b.d:none", "*:*", "text:*",
                "tags:*", "n:[0 TO 2]"]
_ROW_TERMS = [("text", "urgence"), ("text", "None"), ("a.c", "budget vote"), ("tags", "NONE"),
              ("tags", "a_b"), ("tags", "-1"), ("a.b", "False"), ("a.b.d", "vote")]

_leaf = st.one_of(st.none(), st.booleans(), st.integers(-1, 2), st.sampled_from(_ROW_TEXTS))
_value = st.one_of(_leaf, st.lists(_leaf, max_size=3))
_node = st.one_of(_value, st.fixed_dictionaries({}, optional={
    "b": st.one_of(_value, st.fixed_dictionaries({}, optional={"d": _value})), "c": _value}))
_row_document = st.fixed_dictionaries({}, optional={
    "text": _value, "a": _node, "tags": _value, "n": _value})
#: A write batch: documents added (an id already stored is upserted, one
#: id twice in a batch too), or one id removed.
_row_write = st.one_of(
    st.tuples(st.just("add"), st.lists(st.tuples(st.integers(0, 5), _row_document),
                                       min_size=1, max_size=3)),
    st.tuples(st.just("remove"), st.integers(0, 5)))


class _WalkingStore(FullTextStore):
    """The write path as it read documents before stored rows: every
    field walked off the document, at index and at de-index time."""

    def _index_unlocked(self, doc):
        self._documents[doc.doc_id] = doc
        for name, index in self._text_indexes.items():
            terms = self._walked_terms(doc, name)
            if terms is not None:
                index.add(doc.doc_id, terms)
        for name, buckets in self._keyword_indexes.items():
            for key in self._walked_keys(doc, name):
                buckets[key].add(doc.doc_id)

    def _deindex_unlocked(self, doc_id):
        doc = self._documents.pop(doc_id, None)
        if doc is None:
            return None
        for name, index in self._text_indexes.items():
            terms = self._walked_terms(doc, name)
            if terms is not None:
                index.remove(doc_id, terms)
        for name, buckets in self._keyword_indexes.items():
            for key in self._walked_keys(doc, name):
                doc_ids = buckets.get(key)
                if doc_ids is not None:
                    doc_ids.discard(doc_id)
                    if not doc_ids:
                        del buckets[key]
        return doc

    def _indexed_stems(self, doc_id, field_name):
        # A phrase's adjacency check walks the document too: no stored row.
        return self._walked_terms(self._documents[doc_id], field_name) or []

    def _walked_terms(self, doc, name):
        value = doc.get(name)
        return None if value is None else self.analyzer.stems(self._stringify(value))

    @staticmethod
    def _walked_keys(doc, name):
        value = doc.get(name)
        if value is None:
            return []
        if isinstance(value, list):
            return [str(v).lower() for v in value if v is not None]
        return [str(value).lower()]


def _walked_row(doc):
    """A document's row as the wrapper projected each cell before stored
    rows: walked off the document, a one-value list as its value."""
    cells = []
    for config in _ROW_FIELDS:
        value = doc.get(config.name)
        if isinstance(value, list):
            value = value[0] if len(value) == 1 else tuple(value)
        cells.append(value)
    return tuple(cells)


def _reprs(rows):
    """doc id -> its row's ``repr``, which tells ``True`` from ``1``."""
    return {doc_id: repr(row) for doc_id, row in rows.items()}


def _read_state(store):
    """What one consistent read of ``store`` answers: match sets, term
    documents, every keyword bucket and every text index's postings and
    lengths."""
    with store.reading() as read:
        texts = {name: ({term: index.documents_with(term) for term in index.vocabulary()},
                        dict(index._doc_lengths))
                 for name, index in read._text_indexes.items()}
        keywords = {name: {key: set(read.keyword_documents(name, key)) for key in buckets}
                    for name, buckets in read._keyword_indexes.items()}
        return (texts, keywords, {query: read.matches(query) for query in _ROW_QUERIES},
                {term: read.term_documents(*term) for term in _ROW_TERMS})


class TestStoredRows:
    def test_a_row_is_what_the_walker_projected(self):
        store = FullTextStore("rows", _ROW_FIELDS)
        assert store.stored_fields == ("text", "a.b", "a.c", "tags", "n", "a.b.d")
        store.add_all([{"id": 1, "text": ["x"], "a": {"b": {"d": [1, None]}, "c": []},
                        "tags": [None], "n": [[2]]},
                       {"id": 2, "a": [{"b": "no descent through a list"}], "tags": ("t",)}])
        assert store.stored_rows() == {"1": ("x", {"d": [1, None]}, (), None, [2], (1, None)),
                                       "2": (None, None, None, ("t",), None, None)}
        # ``[None]`` is text ("None") but no keyword; a tuple is a list of values.
        assert store.term_documents("tags", "none") == set()
        assert store.term_documents("a.b.d", "1") == {"1"}
        assert store.term_documents("tags", "t") == {"2"}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(writes=st.lists(_row_write, min_size=1, max_size=8), pin_at=st.integers(0, 8))
    def test_rows_and_indexes_follow_add_upsert_remove(self, writes, pin_at):
        """Live, and in a snapshot pinned before later writes: every cell
        is the walker's value, and every read equals a store whose write
        path walks each document (for the snapshot, one built from the
        documents standing at its pin)."""
        store, walked = FullTextStore("rows", _ROW_FIELDS), _WalkingStore("rows", _ROW_FIELDS)
        pinned = None
        for step, (kind, items) in enumerate(writes):
            if step == pin_at:
                pinned = store.snapshot(), walked.documents()
            for target in (store, walked):
                if kind == "add":
                    target.add_all([{**document, "id": doc_id} for doc_id, document in items])
                else:
                    target.remove(str(items))
            assert _reprs(store.stored_rows()) == _reprs(
                {doc.doc_id: _walked_row(store.get(doc.doc_id)) for doc in walked.documents()})
            assert _read_state(store) == _read_state(walked)
        if pinned is None:
            return
        snapshot, documents = pinned
        then = _WalkingStore("rows", _ROW_FIELDS)
        then.add_all(documents)
        live = _reprs(store.stored_rows()), _read_state(store)
        with snapshot.reading() as frozen:
            assert _reprs(frozen.stored_rows()) == _reprs(
                {doc.doc_id: _walked_row(doc) for doc in documents})
            assert _read_state(frozen) == _read_state(then)
        # Reading the snapshot left the live store as it was.
        assert (_reprs(store.stored_rows()), _read_state(store)) == live


# ---------------------------------------------------------------------------
# A stored-value scan of a path no document starts with reads nothing
# ---------------------------------------------------------------------------

def _posts() -> FullTextStore:
    store = facebook_store()
    store.add_all([{"id": "p1", "message": "la france", "group": "PS"},
                   {"id": "p2", "message": "la nation", "group": "LR"}])
    return store


class TestStoredValueScan:
    def test_a_fan_out_to_a_store_without_the_path_reads_no_document(self, monkeypatch):
        """``dynamic`` asks the Facebook store for tweets' hashtags: its
        posts carry no ``entities``, so the call answers nothing, as the
        scan it skips would."""
        demo = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42))
        source = demo.instance.source(FACEBOOK_URI)
        query = FullTextQuery.create("entities.hashtags:{tag}",
                                     {"t": "text", "id": "user.screen_name"})
        reads = []
        get = Document.get
        monkeypatch.setattr(Document, "get",
                            lambda self, path, default=None: reads.append(path)
                            or get(self, path, default))
        assert source.execute_batch(query, [{"tag": "sia2016"}, {"tag": "chomage"}]) == [[], []]
        assert reads == []

    def test_a_path_a_document_starts_with_is_still_scanned(self):
        store = _posts()
        assert store.matches("group:ps") == {"p1"}
        assert store.matches("group.name:ps") == set()
        assert store.matches("entities.hashtags:sia2016") == set()

    def test_the_key_count_follows_writes_and_snapshots(self):
        store = _posts()
        before = store.snapshot()
        store.add({"id": "p3", "message": "x", "entities": {"hashtags": ["sia2016"]}})
        during = store.snapshot()
        assert store.matches("entities.hashtags:sia2016") == {"p3"}
        # A view taken before the write that adds the path answers nothing.
        with before.reading() as frozen:
            assert frozen.matches("entities.hashtags:SIA2016") == set()
        store.add({"id": "p3", "message": "x"})
        assert store.matches("entities.hashtags:sia2016") == set()
        with during.reading() as frozen:
            assert frozen.matches("entities.hashtags:sia2016") == {"p3"}
        store.remove("p1")
        store.remove("p2")
        assert store.matches("group:ps") == set()
        with before.reading() as frozen:
            assert frozen.matches("group:ps") == {"p1"}
