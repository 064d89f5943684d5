"""Source digests and keyword-based querying.

Digests summarise each source of the mixed instance (schema or structural
summary + value-set representations built from Bloom filters, histograms
and exact samples).  Each wrapper derives its own digest beside its store
(:meth:`~repro.core.sources.DataSource.derive_digest`) and keeps one,
shared with its pins and maintained over its inserts, that also serves
the planner's estimates (:meth:`~repro.core.sources.DataSource.digest`);
a :class:`DigestCatalog` gathers those of one pin of the instance.  The
keyword engine pins the instance once per search, looks keywords up in
that pin's digests, finds shortest join paths across sources, generates
Conjunctive Mixed Queries from them, each wrapper writing its own
sub-query (:meth:`~repro.core.sources.DataSource.keyword_atom`), and
evaluates them on the same pin; the engine builds CMQs, so it is imported
from :mod:`repro.digest.keyword`, not from here.  This package names no
data model.
"""

from repro.digest.bloom import BloomFilter
from repro.digest.dataguide import JSONDataguide, PathInfo
from repro.digest.graph import (
    DigestCatalog,
    DigestEdge,
    DigestNode,
    SourceDigest,
)
from repro.digest.histogram import Bucket, EquiWidthHistogram, TopKSummary
from repro.digest.valueset import ValueSetStats, ValueSetSummary

__all__ = [
    "BloomFilter",
    "JSONDataguide",
    "PathInfo",
    "DigestCatalog",
    "DigestEdge",
    "DigestNode",
    "SourceDigest",
    "Bucket",
    "EquiWidthHistogram",
    "TopKSummary",
    "ValueSetStats",
    "ValueSetSummary",
]
