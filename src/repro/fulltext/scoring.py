"""Relevance scoring (TF-IDF and BM25) for full-text search results.

BM25 splits into what depends on the *search* — the index's average
document length, the ``idf`` and postings of every query term, the
``k1`` / ``b`` terms — and what depends on the *hit*: its length and its
term frequencies.  :func:`bm25_scorer` computes the first part once and
returns a function of a list of documents (one kernel per term), so a
search pays the per-search part once whatever the number of hits, and
nothing in it reads more of the index than the query terms' postings
and the document lengths.  :func:`bm25_score` is that scorer applied to
one document; the arithmetic and its order are those of the textbook
formula, so both give the same float for the same index state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Callable, Sequence

from repro.fulltext.index import InvertedIndex


@dataclass(frozen=True)
class BM25Parameters:
    """The two free parameters of Okapi BM25."""

    k1: float = 1.2
    b: float = 0.75


def tf_idf_score(index: InvertedIndex, terms: list[str], doc_id: str) -> float:
    """Cosine-less TF-IDF score of ``doc_id`` for a bag of query terms."""
    score = 0.0
    for term in terms:
        tf = index.term_frequency(term, doc_id)
        if tf == 0:
            continue
        score += (1.0 + math.log(tf)) * index.idf(term)
    return score


def bm25_scorer(index: InvertedIndex, terms: list[str], parameters: BM25Parameters | None = None,
                ) -> Callable[[Sequence[str]], list[float]]:
    """Okapi BM25 for a bag of query terms, as a function of a list of doc
    ids (their scores, in order): the sum of one kernel per weighted term,
    or the one kernel itself.  A kernel is one comprehension over the ids."""
    parameters = parameters or BM25Parameters()
    k1, b = parameters.k1, parameters.b
    k1_plus_one = k1 + 1.0
    one_minus_b = 1.0 - b
    average_length = index.average_document_length() or 1.0
    length_of = index.document_lengths().get

    def kernel(frequency_of: Callable, idf: float) -> Callable[[Sequence[str]], list[float]]:
        return lambda doc_ids: [
            idf * (tf * k1_plus_one)
            / (tf + k1 * (one_minus_b + b * length_of(doc_id, 0) / average_length))
            if (tf := frequency_of(doc_id)) is not None else 0.0 for doc_id in doc_ids]

    # A repeated query term counts once per repetition; a term no
    # document holds contributes to no score.
    kernels = [kernel(postings.get, index.idf(term)) for term in terms
               if (postings := index.postings_by_document(term))]
    return kernels[0] if len(kernels) == 1 else summed(kernels)


def summed(scorers: list[Callable[[Sequence[str]], list[float]]],
           ) -> Callable[[Sequence[str]], list[float]]:
    """The scores of a list of doc ids under each of ``scorers``, added up
    in order from ``0.0`` (the textbook's loop over terms)."""
    def scores(doc_ids: Sequence[str]) -> list[float]:
        totals = [0.0] * len(doc_ids)
        for more in scorers:
            totals = list(map(add, totals, more(doc_ids)))
        return totals

    return scores


def bm25_score(index: InvertedIndex, terms: list[str], doc_id: str,
               parameters: BM25Parameters | None = None) -> float:
    """Okapi BM25 score of ``doc_id`` for a bag of query terms."""
    return bm25_scorer(index, terms, parameters)([doc_id])[0]
