"""Source digests and keyword-based querying.

Digests summarise each source of the mixed instance (schema or structural
summary + value-set representations built from Bloom filters, histograms
and exact samples); the keyword engine looks keywords up in the digests,
finds shortest join paths across sources and generates Conjunctive Mixed
Queries from them.
"""

from repro.digest.bloom import BloomFilter
from repro.digest.builder import DigestBuilder, build_catalog
from repro.digest.dataguide import JSONDataguide, PathInfo
from repro.digest.graph import DigestCatalog, DigestEdge, DigestNode, SourceDigest
from repro.digest.histogram import Bucket, EquiWidthHistogram, TopKSummary
from repro.digest.keyword import (
    GeneratedQuery,
    KeywordHit,
    KeywordQueryEngine,
    KeywordSearchOutcome,
)
from repro.digest.valueset import ValueSetStats, ValueSetSummary

__all__ = [
    "BloomFilter",
    "DigestBuilder",
    "build_catalog",
    "JSONDataguide",
    "PathInfo",
    "DigestCatalog",
    "DigestEdge",
    "DigestNode",
    "SourceDigest",
    "Bucket",
    "EquiWidthHistogram",
    "TopKSummary",
    "GeneratedQuery",
    "KeywordHit",
    "KeywordQueryEngine",
    "KeywordSearchOutcome",
    "ValueSetStats",
    "ValueSetSummary",
]
