"""Full-text substrate: a Solr-like in-memory document store.

Plays the role of the Apache Solr instances holding the tweet and
Facebook-post collections of the paper's demonstration dataset.
"""

from repro.fulltext.analysis import (
    AnalyzedText,
    Analyzer,
    ENGLISH_STOPWORDS,
    FRENCH_STOPWORDS,
    extract_hashtags,
    extract_mentions,
    normalize,
    stem,
    tokenize,
)
from repro.fulltext.document import Document, make_document
from repro.fulltext.index import InvertedIndex
from repro.fulltext.query import (
    BooleanQuery,
    MatchAllQuery,
    NotQuery,
    PhraseQuery,
    Query,
    RangeQuery,
    TermQuery,
    parse_query,
)
from repro.fulltext.scoring import BM25Parameters, bm25_score, tf_idf_score
from repro.fulltext.store import (
    FieldConfig,
    FullTextStore,
    SearchHit,
    SearchResult,
    facebook_store,
    tweet_store,
)

__all__ = [
    "AnalyzedText",
    "Analyzer",
    "ENGLISH_STOPWORDS",
    "FRENCH_STOPWORDS",
    "extract_hashtags",
    "extract_mentions",
    "normalize",
    "stem",
    "tokenize",
    "Document",
    "make_document",
    "InvertedIndex",
    "BooleanQuery",
    "MatchAllQuery",
    "NotQuery",
    "PhraseQuery",
    "Query",
    "RangeQuery",
    "TermQuery",
    "parse_query",
    "BM25Parameters",
    "bm25_score",
    "tf_idf_score",
    "FieldConfig",
    "FullTextStore",
    "SearchHit",
    "SearchResult",
    "facebook_store",
    "tweet_store",
]
