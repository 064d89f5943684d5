"""Source digests and keyword-based querying.

Digests summarise each source of the mixed instance (schema or structural
summary + value-set representations built from Bloom filters, histograms
and exact samples).  Each wrapper derives its own digest beside its store
(:meth:`~repro.core.sources.DataSource.derive_digest`) and keeps one,
shared with its pins and maintained over its inserts, that also serves
the planner's estimates (:meth:`~repro.core.sources.DataSource.digest`);
a :class:`DigestCatalog` gathers them.  The keyword engine looks keywords
up in the digests, finds shortest join paths across sources and
generates Conjunctive Mixed Queries from them, each wrapper writing its
own sub-query (:meth:`~repro.core.sources.DataSource.keyword_atom`); the
engine builds CMQs, so it is imported from :mod:`repro.digest.keyword`,
not from here.  This package names no data model.
"""

from repro.digest.bloom import BloomFilter
from repro.digest.dataguide import JSONDataguide, PathInfo
from repro.digest.graph import (
    DigestCatalog,
    DigestEdge,
    DigestNode,
    SourceDigest,
    build_catalog,
    refresh_catalog,
)
from repro.digest.histogram import Bucket, EquiWidthHistogram, TopKSummary
from repro.digest.valueset import ValueSetStats, ValueSetSummary

__all__ = [
    "BloomFilter",
    "build_catalog",
    "refresh_catalog",
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
