"""Inverted index and postings for the full-text substrate.

A term's postings map each document holding it to the term's frequency
there, a small int; no positions are kept (a phrase checks adjacency on
a candidate's stems, derived again).  The aggregates a search reads —
the number of documents and their total length — are maintained by the
writes (``add`` / ``remove``), so the read side never recomputes them
from the per-document lengths.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping


class InvertedIndex:
    """Term → postings map for one indexed text field."""

    def __init__(self, field_name: str):
        self.field_name = field_name
        self._postings: dict[str, dict[str, int]] = {}
        self._doc_lengths: dict[str, int] = {}
        #: Sum of ``_doc_lengths`` (kept by the writes: BM25 reads the
        #: average length on every search).
        self._total_length = 0

    # ------------------------------------------------------------------
    def add(self, doc_id: str, terms: list[str]) -> None:
        """Index ``terms`` (already analysed) for ``doc_id``."""
        frequencies: dict[str, int] = {}
        for term in terms:
            frequencies[term] = frequencies.get(term, 0) + 1
        postings = self._postings
        for term, frequency in frequencies.items():
            held = postings.get(term)
            if held is None:
                postings[term] = {doc_id: frequency}
            else:
                held[doc_id] = frequency
        self._total_length += len(terms) - self._doc_lengths.get(doc_id, 0)
        self._doc_lengths[doc_id] = len(terms)

    def remove(self, doc_id: str, terms: Iterable[str]) -> None:
        """Remove ``doc_id``, which was indexed with ``terms``.

        Only the postings of ``terms`` are visited (not the vocabulary),
        and a term whose last posting goes leaves the vocabulary.
        """
        for term in terms:
            postings = self._postings.get(term)
            if postings is not None and postings.pop(doc_id, None) is not None \
                    and not postings:
                del self._postings[term]
        self._total_length -= self._doc_lengths.pop(doc_id, 0)

    # ------------------------------------------------------------------
    def postings_by_document(self, term: str) -> Mapping[str, int]:
        """doc id -> frequency of ``term`` there (read-only, not a copy)."""
        return self._postings.get(term, {})

    def documents_with(self, term: str) -> set[str]:
        """Return the doc ids containing ``term``."""
        return set(self._postings.get(term, {}))

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return len(self._postings.get(term, {}))

    def document_count(self) -> int:
        """Number of indexed documents."""
        return len(self._doc_lengths)

    def document_length(self, doc_id: str) -> int:
        """Number of terms indexed for ``doc_id``."""
        return self._doc_lengths.get(doc_id, 0)

    def document_lengths(self) -> Mapping[str, int]:
        """doc id -> its number of indexed terms (read-only, not a copy)."""
        return self._doc_lengths

    def average_document_length(self) -> float:
        """Mean document length (used by BM25); O(1)."""
        if not self._doc_lengths:
            return 0.0
        return self._total_length / len(self._doc_lengths)

    def vocabulary(self) -> set[str]:
        """Every indexed term."""
        return set(self._postings)

    def idf(self, term: str) -> float:
        """Smoothed inverse document frequency of ``term``."""
        n = self.document_count()
        df = self.document_frequency(term)
        return math.log((n + 1) / (df + 1)) + 1.0

    def term_frequency(self, term: str, doc_id: str) -> int:
        """Occurrences of ``term`` in ``doc_id``."""
        return self._postings.get(term, {}).get(doc_id, 0)

    def __len__(self) -> int:
        return len(self._postings)
