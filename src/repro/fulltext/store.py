"""The Solr-like full-text store.

Plays the role of the paper's Apache Solr instances: tweets and Facebook
posts are continuously indexed with their author, timestamps, counters and
stemmed text, and the mediator ships keyword/hashtag sub-queries to it.

A store declares *field types*:

``text``
    analysed (tokenised, stop-worded, stemmed) and searched by term or
    phrase;
``keyword``
    indexed verbatim (lowercased) for exact matching — hashtags, screen
    names, ids;
``numeric`` / ``date``
    stored for range queries, sorting and faceting.

Besides each document, the store keeps its **stored row** (Lucene's stored
fields): a tuple with one cell per declared field, in declaration order,
holding what a hit's output carries — the field's value, a one-value list
as its value, a longer list as a tuple, a missing field as ``None``.  A
write reads each declared field once, into the row, through one function
compiled per store (:func:`~repro.fulltext.document.row_builder`), and
derives the text stems and keyword keys from the row's cells; a removal
derives what to take out of the indexes from the row it pops.  A read
never walks a document's nested fields again to project a hit: the
full-text wrapper picks its outputs off the row.  Values are JSON values:
a tuple is read as a list of values.  A read runs inside ``with
store.reading() as s``, under the read lock; a :class:`FullTextSnapshot`
is read there and nowhere else.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import AbstractSet, Any, Callable, Iterable, Mapping, Sequence

from repro.core.deltas import (
    INSERT, REMOVE, UPSERT, CopyOnWrite, DeltaJournal, Journalled, Snapshot)
from repro.errors import FullTextError
from repro.fulltext.analysis import Analyzer
from repro.locks import RWLock
from repro.fulltext.document import Document, make_document, path_getter, row_builder
from repro.fulltext.index import InvertedIndex
from repro.fulltext.query import (
    BooleanQuery,
    MatchAllQuery,
    NotQuery,
    Parameter,
    PhraseQuery,
    Query,
    RangeQuery,
    TermQuery,
    parse_query,
)
from repro.fulltext.scoring import bm25_scorer, summed

_NO_DOCUMENTS: frozenset[str] = frozenset()


@dataclass(frozen=True)
class FieldConfig:
    """Declaration of one indexed field."""

    name: str
    field_type: str  # text | keyword | numeric | date
    multi_valued: bool = False

    def __post_init__(self) -> None:
        if self.field_type not in ("text", "keyword", "numeric", "date"):
            raise FullTextError(f"unknown field type {self.field_type!r} for {self.name!r}")


@dataclass
class SearchHit:
    """One search result: the document plus its relevance score."""

    document: Document
    score: float

    def get(self, path: str, default: Any = None) -> Any:
        """Shortcut to the underlying document's field access."""
        return self.document.get(path, default)


@dataclass
class SearchResult:
    """The outcome of a search: hits, total count and optional facets."""

    hits: list[SearchHit]
    total: int
    facets: dict[str, list[tuple[str, int]]] = field(default_factory=dict)

    def documents(self) -> list[Document]:
        """The matched documents in score order."""
        return [hit.document for hit in self.hits]

    def __len__(self) -> int:
        return len(self.hits)

    def __iter__(self):
        return iter(self.hits)


class FullTextStore(Journalled):
    """An in-memory document store with Lucene-flavoured querying."""

    def __init__(self, name: str, fields: Sequence[FieldConfig],
                 default_field: str | None = None, id_field: str = "id",
                 analyzer: Analyzer | None = None):
        self.name = name
        self.id_field = id_field
        self.analyzer = analyzer or Analyzer()
        self._fields = {f.name: f for f in fields}
        text_fields = [f.name for f in fields if f.field_type == "text"]
        self.default_field = default_field or (text_fields[0] if text_fields else None)
        self._documents: dict[str, Document] = {}
        self._text_indexes: dict[str, InvertedIndex] = {
            f.name: InvertedIndex(f.name) for f in fields if f.field_type == "text"
        }
        self._keyword_indexes: dict[str, dict[str, set[str]]] = {
            f.name: defaultdict(set) for f in fields if f.field_type == "keyword"
        }
        #: doc id -> its stored row, one cell per :attr:`stored_fields`.
        self._stored: dict[str, tuple] = {}
        #: top-level key -> documents carrying it (see ``_match_stored``).
        self._top_keys: dict[str, int] = {}
        self._row_of = row_builder(self.stored_fields)
        cell = {name: i for i, name in enumerate(self.stored_fields)}
        #: (field, its cell) of each text field and of each keyword field.
        self._text_cells = tuple((name, cell[name]) for name in self._text_indexes)
        self._keyword_cells = tuple((name, cell[name]) for name in self._keyword_indexes)
        self._version = 0
        #: The change log (shared with snapshots, which read back
        #: through its chain).
        self._journal = DeltaJournal()
        #: field -> (version, average df); see average_document_frequency.
        self._average_df_cache: dict[str, tuple[int, float | None]] = {}
        self._rwlock = RWLock()

    @property
    def version(self) -> int:
        """Monotonic mutation counter (used for cache invalidation)."""
        return self._version

    @property
    def stored_fields(self) -> tuple[str, ...]:
        """The layout of a stored row: the declared fields, in order."""
        return tuple(self._fields)

    def stored_rows(self) -> Mapping[str, tuple]:
        """doc id -> its stored row (read-only, not a copy)."""
        return self._stored

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def add(self, source: dict[str, Any] | Document) -> Document:
        """Index one document (raw JSON object or :class:`Document`).

        Re-adding an existing ``doc_id`` is an upsert: the old copy is
        de-indexed in place and the version bumps exactly once.
        """
        doc = source if isinstance(source, Document) else make_document(source, self.id_field)
        self.add_all((doc,))
        return doc

    def add_all(self, sources: Iterable[dict[str, Any] | Document]) -> int:
        """Index every document of ``sources``; return how many were added.

        The write lock is held across the whole batch, so a concurrent
        snapshot sees all of it or none of it — and the whole batch is
        ONE version bump (one ingest = one invalidation), even when a
        document without an id stops it mid-way: what landed is logged.
        """
        entry = None
        with self._rwlock.write_locked():
            added: list[Document] = []
            before: list[tuple[str, Document | None]] = []
            try:
                for source in sources:
                    doc = source if isinstance(source, Document) \
                        else make_document(source, self.id_field)
                    before.append((doc.doc_id, self._deindex_unlocked(doc.doc_id)))
                    self._index_unlocked(doc)
                    added.append(doc)
            finally:
                if added:
                    replaced = any(old is not None for _, old in before)
                    entry = self._log(UPSERT if replaced else INSERT, added, before)
        if entry is not None:
            self._journal.notify(entry)
        return len(added)

    def _index_unlocked(self, doc: Document) -> None:
        doc_id = doc.doc_id
        self._documents[doc_id] = doc
        row = self._stored[doc_id] = self._row_of(doc.fields)
        top_keys = self._top_keys
        for key in doc.fields:
            top_keys[key] = top_keys.get(key, 0) + 1
        for field_name, terms in self._text_terms(doc, row):
            self._text_indexes[field_name].add(doc_id, terms)
        for field_name, at in self._keyword_cells:
            cell = row[at]
            if cell is None:
                continue
            buckets = self._keyword_indexes[field_name]
            if isinstance(cell, tuple):
                for keyword in _keyword_keys(cell):
                    buckets[keyword].add(doc_id)
            else:
                buckets[str(cell).lower()].add(doc_id)

    def _deindex_unlocked(self, doc_id: str) -> Document | None:
        """Drop a document's entries; returns it (None: it did not exist).

        What the document put into the indexes is derived again from the
        stored row it pops (never mutated after ``add``), so only its own
        terms and keyword buckets are visited, and the ones it empties
        are deleted: the statistics count no dead term.
        """
        doc = self._documents.pop(doc_id, None)
        if doc is None:
            return None
        row = self._stored.pop(doc_id)
        for key in doc.fields:
            self._top_keys[key] -= 1
        for field_name, terms in self._text_terms(doc, row):
            self._text_indexes[field_name].remove(doc_id, terms)
        for field_name, at in self._keyword_cells:
            cell = row[at]
            if cell is not None:
                buckets = self._keyword_indexes[field_name]
                for keyword in _keyword_keys(cell):
                    doc_ids = buckets.get(keyword)
                    if doc_ids is not None:
                        doc_ids.discard(doc_id)
                        if not doc_ids:
                            del buckets[keyword]
        return doc

    def _text_terms(self, doc: Document, row: tuple) -> list[tuple[str, list[str]]]:
        """(text field, the stems ``doc`` is indexed under in it) for each
        text field the document has, read off its stored ``row``.

        A list's values are joined by spaces.  A ``None`` cell is no value
        unless the document holds ``[None]``, which reads as ``"None"``.
        """
        terms = []
        for field_name, at in self._text_cells:
            cell = row[at]
            if cell is None:
                cell = doc.get(field_name)
                if cell is None:
                    continue
                text = self._stringify(cell)
            else:
                text = " ".join(map(str, cell)) if isinstance(cell, tuple) else str(cell)
            terms.append((field_name, self.analyzer.stems(text)))
        return terms

    def remove(self, doc_id: str) -> bool:
        """Remove a document from the store and all its indexes."""
        with self._rwlock.write_locked():
            old = self._deindex_unlocked(doc_id)
            if old is None:
                return False
            entry = self._log(REMOVE, (), ((doc_id, old),))
        self._journal.notify(entry)
        return True

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._documents

    def get(self, doc_id: str) -> Document | None:
        """Return one document by id."""
        return self._documents.get(doc_id)

    def documents(self) -> list[Document]:
        """Every stored document (unordered)."""
        return list(self._documents.values())

    def field_config(self, name: str) -> FieldConfig | None:
        """Return the configuration of field ``name`` if declared."""
        return self._fields.get(name)

    def field_values(self, name: str) -> list[Any]:
        """Every value observed for field ``name`` (digest support)."""
        values = []
        for doc in self._documents.values():
            value = doc.get(name)
            if value is None:
                continue
            if isinstance(value, list):
                values.extend(value)
            else:
                values.append(value)
        return values

    # ------------------------------------------------------------------
    # Index statistics (planner cardinality estimation)
    # ------------------------------------------------------------------
    def term_documents(self, field_name: str, term: str) -> set[str] | None:
        """Doc ids matching ``field_name:term``, straight from the indexes.

        Text fields answer from the inverted index (the term is analysed
        like query terms; a multi-token term intersects postings);
        keyword fields answer from the exact (lowercased) buckets.
        Returns ``None`` for fields backed by neither index — the caller
        must fall back rather than guess.
        """
        index = self._text_indexes.get(field_name)
        if index is not None:
            tokens = self.analyzer.stems(str(term))
            if not tokens:
                return set()
            docs = index.documents_with(tokens[0])
            for token in tokens[1:]:
                docs &= index.documents_with(token)
                if not docs:
                    break
            return docs
        buckets = self._keyword_indexes.get(field_name)
        if buckets is not None:
            return set(buckets.get(str(term).lower(), ()))
        return None

    def document_frequency(self, field_name: str, term: str) -> int | None:
        """Number of documents matching ``field_name:term`` (index-backed)."""
        docs = self.term_documents(field_name, term)
        return len(docs) if docs is not None else None

    def distinct_term_count(self, field_name: str) -> int | None:
        """Distinct indexed terms/values of one field (``None`` if unindexed)."""
        index = self._text_indexes.get(field_name)
        if index is not None:
            return len(index.vocabulary())
        buckets = self._keyword_indexes.get(field_name)
        if buckets is not None:
            return len(buckets)
        return None

    def average_document_frequency(self, field_name: str) -> float | None:
        """Mean postings per distinct term — the expected matches of an
        equality with an unknown (bound-at-run-time) value.

        The full-vocabulary scan is memoised per store version (it sits
        on the planner's estimation hot path).
        """
        version = self._version
        cached = self._average_df_cache.get(field_name)
        if cached is not None and cached[0] == version:
            return cached[1]
        average = self._compute_average_document_frequency(field_name)
        # Memoised under the version read *before* the scan: a concurrent
        # mutation mid-scan then misses the memo instead of serving a
        # stale average as current.
        self._average_df_cache[field_name] = (version, average)
        return average

    def _compute_average_document_frequency(self, field_name: str) -> float | None:
        index = self._text_indexes.get(field_name)
        if index is not None:
            vocabulary = index.vocabulary()
            if not vocabulary:
                return 0.0
            postings = sum(index.document_frequency(t) for t in vocabulary)
            return postings / len(vocabulary)
        buckets = self._keyword_indexes.get(field_name)
        if buckets is not None:
            if not buckets:
                return 0.0
            return sum(len(doc_ids) for doc_ids in buckets.values()) / len(buckets)
        return None

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, query: str | Query, limit: int | None = 10,
               sort_by: str | None = None, descending: bool = True,
               facet_fields: Sequence[str] = ()) -> SearchResult:
        """Run a query and return its first ``limit`` hits, scored.

        :meth:`matches` then :meth:`rank` — the two steps the full-text
        wrapper takes too — and a :class:`SearchHit` per hit kept.
        ``sort_by`` replaces relevance ordering with a stored field
        (e.g. ``retweet_count``), documents without it last;
        ``facet_fields`` adds value counts over the matched documents
        (used for the tag clouds and digests).
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        matches = self.matches(parsed)
        documents = self._documents
        hits = [SearchHit(document=documents[doc_id], score=score) for doc_id, score
                in self.rank(matches, self.scorer(parsed), sort_by, descending, limit)]
        facets = {f: self.facet(matches, f) for f in facet_fields}
        return SearchResult(hits=hits, total=len(matches), facets=facets)

    def matches(self, query: str | Query,
                _within: AbstractSet[str] | None = None) -> set[str]:
        """The ids of the documents matching ``query``, unranked (a new set);
        ``_within``, cache repair's, restricts them to the ids it holds."""
        return self._evaluate(parse_query(query) if isinstance(query, str) else query, _within)

    def rank(self, doc_ids: Iterable[str], score: Callable[[Sequence[str]], list[float]],
             sort_by: str | None = None, descending: bool = True,
             limit: int | None = None) -> list[tuple[str, float]]:
        """The first ``limit`` of ``doc_ids`` in search order, each with
        its ``score``.

        By relevance — highest score first — or, with ``sort_by``, by that
        stored field, ``descending`` or not; a document without the field
        comes after every document with it, in either direction.  The id
        breaks ties, so the order of ``doc_ids`` never shows and ranking a
        subset of a match set keeps its members' relative order.  ``score``
        (a list of ids -> their scores) is called once: on every document
        ranked by relevance, under ``sort_by`` on the documents kept.
        Relevance stable-sorts the sorted ids on the float score: the
        ``(-score, id)`` order, in C.
        """
        if not sort_by:
            ranked = list(zip(ids := sorted(doc_ids), score(ids)))
            ranked.sort(key=itemgetter(1), reverse=True)
            return ranked[:limit]
        value_of, documents = path_getter(sort_by), self._documents
        keyed = [(value_of(documents[doc_id].fields), doc_id) for doc_id in doc_ids]
        ranked = [doc_id for _, doc_id in sorted(
            (pair for pair in keyed if pair[0] is not None), reverse=descending)]
        ranked += sorted((doc_id for value, doc_id in keyed if value is None),
                         reverse=descending)
        return list(zip(kept := ranked[:limit], score(kept)))

    def keyword_documents(self, field_name: str, key: str) -> AbstractSet[str]:
        """The ids filed under ``key`` — a stored value's ``str(v).lower()``
        — in a keyword field (read-only, not a copy)."""
        return self._keyword_indexes[field_name].get(key, _NO_DOCUMENTS)

    def count(self, query: str | Query) -> int:
        """Number of documents matching ``query``."""
        return len(self.matches(query))

    def facet(self, doc_ids: Iterable[str], field_name: str, top: int | None = None) -> list[tuple[str, int]]:
        """Value counts of ``field_name`` over ``doc_ids`` (most frequent first)."""
        counter: Counter[str] = Counter()
        for doc_id in doc_ids:
            doc = self._documents.get(doc_id)
            if doc is None:
                continue
            value = doc.get(field_name)
            if value is None:
                continue
            if isinstance(value, list):
                counter.update(str(v).lower() for v in value)
            else:
                counter[str(value).lower()] += 1
        ranked = counter.most_common(top)
        return ranked

    # ------------------------------------------------------------------
    # Query evaluation
    # ------------------------------------------------------------------
    def _evaluate(self, query: Query, within: AbstractSet[str] | None = None) -> set[str]:
        """The ids matching ``query`` (a new set).  With ``within``, only
        those among its ids: a leaf then visits ``within`` or a posting
        list, whichever is smaller, and never the whole store."""
        if isinstance(query, MatchAllQuery):
            return self._among(within)
        if isinstance(query, TermQuery):
            return self._evaluate_term(query, within)
        if isinstance(query, PhraseQuery):
            return self._evaluate_phrase(query, within)
        if isinstance(query, RangeQuery):
            return self._evaluate_range(query, within)
        if isinstance(query, NotQuery):
            return self._among(within) - self._evaluate(query.operand, within)
        if isinstance(query, BooleanQuery):
            sets = [self._evaluate(operand, within) for operand in query.operands]
            if not sets:
                return set()
            if query.operator == "AND":
                result = sets[0]
                for s in sets[1:]:
                    result = result & s
                return result
            result = set()
            for s in sets:
                result |= s
            return result
        if isinstance(query, Parameter):
            raise FullTextError(f"query parameter {{{query.name}}} is not bound")
        raise FullTextError(f"unsupported query node {type(query).__name__}")

    def _among(self, within: AbstractSet[str] | None) -> set[str]:
        """Every id, or those of ``within`` the store holds (a new set)."""
        return set(self._documents) if within is None else self._documents.keys() & within

    def _scanned(self, within: AbstractSet[str] | None) -> Iterable[tuple[str, Document]]:
        """The ``(doc id, document)`` pairs a scan visits: all, or those of
        ``within``."""
        documents = self._documents
        if within is None:
            return documents.items()
        return [(doc_id, documents[doc_id]) for doc_id in within if doc_id in documents]

    @staticmethod
    def _holding(index: InvertedIndex, stems: list[str],
                 within: AbstractSet[str] | None) -> set[str]:
        """The ids (of ``within``) holding every stem of ``stems``: each
        posting list is intersected from its smaller side, and copied only
        when it is the first and nothing restricts it."""
        found = within
        for stem_term in stems:
            postings = index.postings_by_document(stem_term).keys()
            found = set(postings) if found is None else postings & found
            if not found:
                return set()
        return found

    def _evaluate_term(self, query: TermQuery,
                       within: AbstractSet[str] | None = None) -> set[str]:
        field_name = query.field or self.default_field
        if field_name is None:
            raise FullTextError("store has no default text field for bare term queries")
        if query.term == "*" and not query.exact:
            return {doc_id for doc_id, doc in self._scanned(within)
                    if doc.get(field_name) is not None}
        config = self._fields.get(field_name)
        if config is None:
            # Unknown field: fall back to a stored-value comparison.
            return self._match_stored(field_name, query.term, within)
        if config.field_type == "text":
            if query.exact and len(query.term.split()) > 1:
                return self._evaluate_phrase(
                    PhraseQuery(field_name, tuple(query.term.split())), within)
            stems = self.analyzer.stems(query.term)
            if not stems:
                return set()
            return self._holding(self._text_indexes[field_name], stems, within)
        if config.field_type == "keyword":
            bucket = self._keyword_indexes[field_name].get(query.term.lower(), _NO_DOCUMENTS)
            return set(bucket) if within is None else bucket & within
        return self._match_stored(field_name, query.term, within)

    def _evaluate_phrase(self, query: PhraseQuery,
                         within: AbstractSet[str] | None = None) -> set[str]:
        field_name = query.field or self.default_field
        if field_name is None or field_name not in self._text_indexes:
            raise FullTextError(f"phrase queries need an analysed text field, got {field_name!r}")
        index = self._text_indexes[field_name]
        stems = [s for term in query.terms for s in self.analyzer.stems(term)]
        if not stems:
            return set()
        candidates = self._holding(index, stems, within)
        if not candidates:
            return set()
        # The index keeps no positions: a candidate's stems are derived
        # again, and the phrase is a run of them.
        width, matches = len(stems), set()
        for doc_id in candidates:
            terms = self._indexed_stems(doc_id, field_name)
            if any(terms[at:at + width] == stems for at in range(len(terms) - width + 1)):
                matches.add(doc_id)
        return matches

    def _indexed_stems(self, doc_id: str, field_name: str) -> list[str]:
        """The stems ``doc_id`` is indexed under in text field
        ``field_name``, in order: the indexing analysis, run again."""
        terms = self._text_terms(self._documents[doc_id], self._stored[doc_id])
        return dict(terms).get(field_name, [])

    def _evaluate_range(self, query: RangeQuery,
                        within: AbstractSet[str] | None = None) -> set[str]:
        matches = set()
        for doc_id, doc in self._scanned(within):
            value = doc.get(query.field)
            if value is None:
                continue
            if not _within(value, query.low, query.high, query.include_low, query.include_high):
                continue
            matches.add(doc_id)
        return matches

    def _match_stored(self, field_name: str, term: str,
                      within: AbstractSet[str] | None = None) -> set[str]:
        if not self._top_keys.get(field_name.split(".", 1)[0]):
            return set()
        lowered = term.lower()
        out = set()
        for doc_id, doc in self._scanned(within):
            value = doc.get(field_name)
            if value is None:
                continue
            if isinstance(value, list):
                if any(str(v).lower() == lowered for v in value):
                    out.add(doc_id)
            elif str(value).lower() == lowered:
                out.add(doc_id)
        return out

    def _scoring_terms(self, query: Query) -> dict[str, list[str]]:
        """Collect, per text field, the stems contributing to relevance."""
        terms: dict[str, list[str]] = defaultdict(list)

        def walk(node: Query) -> None:
            if isinstance(node, TermQuery):
                field_name = node.field or self.default_field
                # ``*`` has no stem: the wildcard adds nothing here.
                if field_name in self._text_indexes:
                    terms[field_name].extend(self.analyzer.stems(node.term))
            elif isinstance(node, PhraseQuery):
                field_name = node.field or self.default_field
                if field_name in self._text_indexes:
                    for term in node.terms:
                        terms[field_name].extend(self.analyzer.stems(term))
            elif isinstance(node, BooleanQuery):
                for operand in node.operands:
                    walk(operand)

        walk(query)
        return terms

    def scorer(self, query: Query) -> Callable[[Sequence[str]], list[float]]:
        """Relevance to ``query`` of a list of doc ids, as their scores in
        order: BM25 summed over the text fields the query names (1.0 when
        no text term contributes).

        Everything that does not depend on the document is computed here,
        once per search, not once per hit.
        """
        fields = [bm25_scorer(self._text_indexes[field_name], terms)
                  for field_name, terms in self._scoring_terms(query).items() if terms]
        scores = fields[0] if len(fields) == 1 else summed(fields)
        return lambda doc_ids: [score or 1.0 for score in scores(doc_ids)]

    @staticmethod
    def _stringify(value: Any) -> str:
        if isinstance(value, list):
            return " ".join(str(v) for v in value)
        return str(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"FullTextStore(name={self.name!r}, documents={len(self)})"


class FullTextSnapshot(Snapshot):
    """What :meth:`FullTextStore.snapshot` returns: the store read at one
    version, through :meth:`reading` alone.  It keeps the store's
    configuration (``name``, ``id_field``, its fields, ``default_field``,
    ``analyzer``) and never writes."""

    def __init__(self, live: FullTextStore):
        self.name, self.id_field, self.analyzer = live.name, live.id_field, live.analyzer
        self._fields, self.default_field = live._fields, live.default_field
        self._watch(live)

    def _at(self, undo: dict[str, Document | None]) -> FullTextStore:
        """The live store as it stood at this version: the documents
        ``undo`` names (doc id -> document then, or None) are de-indexed
        and indexed again, by the store's own code, into copies of the
        document and stored-row maps and copy-on-write views of the live
        indexes."""
        live = self._live
        at = empty_like(live, live.name)
        at._version, at._documents, at._stored, at._top_keys = (
            self.version, dict(live._documents), dict(live._stored), dict(live._top_keys))
        for name, index in live._text_indexes.items():
            twin = at._text_indexes[name]
            twin._postings = CopyOnWrite(index._postings, lambda postings: dict(postings or {}))
            twin._doc_lengths, twin._total_length = dict(index._doc_lengths), index._total_length
        at._keyword_indexes = {name: CopyOnWrite(buckets, lambda ids: set(ids or ()))
                               for name, buckets in live._keyword_indexes.items()}
        for doc_id, doc in undo.items():
            at._deindex_unlocked(doc_id)
            if doc is not None:
                at._index_unlocked(doc)
        return at


FullTextStore._snapshot_type = FullTextSnapshot


def empty_like(store: FullTextStore | FullTextSnapshot, name: str) -> FullTextStore:
    """An empty store named ``name``, configured like ``store``."""
    return FullTextStore(name, list(store._fields.values()), store.default_field,
                         store.id_field, store.analyzer)


def _keyword_keys(cell: Any) -> Sequence[str]:
    """The keys a keyword field's (non-``None``) stored cell is filed under:
    each value's ``str(v).lower()``.  A ``null`` is no value, in a list as
    alone: ``_loose_equal`` in the full-text wrapper never matches one
    either."""
    if isinstance(cell, tuple):
        return [str(v).lower() for v in cell if v is not None]
    return (str(cell).lower(),)


def _within(value: Any, low: Any, high: Any, include_low: bool, include_high: bool) -> bool:
    try:
        if low is not None:
            if include_low and value < low:
                return False
            if not include_low and value <= low:
                return False
        if high is not None:
            if include_high and value > high:
                return False
            if not include_high and value >= high:
                return False
    except TypeError:
        value_str, low_str, high_str = str(value), None if low is None else str(low), None if high is None else str(high)
        if low_str is not None and value_str < low_str:
            return False
        if high_str is not None and value_str > high_str:
            return False
    return True


def tweet_store(name: str = "solr_tweets") -> FullTextStore:
    """A store pre-configured with the tweet fields of Figure 2."""
    fields = [
        FieldConfig("text", "text"),
        FieldConfig("entities.hashtags", "keyword", multi_valued=True),
        FieldConfig("user.screen_name", "keyword"),
        FieldConfig("user.name", "keyword"),
        FieldConfig("user.id", "keyword"),
        FieldConfig("created_at", "date"),
        FieldConfig("week", "keyword"),
        FieldConfig("retweet_count", "numeric"),
        FieldConfig("favorite_count", "numeric"),
        FieldConfig("user.followers_count", "numeric"),
    ]
    return FullTextStore(name=name, fields=fields, default_field="text")


def facebook_store(name: str = "solr_facebook") -> FullTextStore:
    """A store pre-configured for the Facebook-post collection of the demo."""
    fields = [
        FieldConfig("message", "text"),
        FieldConfig("author", "keyword"),
        FieldConfig("page_id", "keyword"),
        FieldConfig("created_at", "date"),
        FieldConfig("likes", "numeric"),
        FieldConfig("shares", "numeric"),
        FieldConfig("comments", "numeric"),
    ]
    return FullTextStore(name=name, fields=fields, default_field="message")
