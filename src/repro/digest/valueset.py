"""Value-set representations attached to digest positions.

Every position of a source digest (an attribute, a document field path, an
RDF property) carries "a representation of the set of atomic values ...
associated to each position in the schema" (paper §2.2).  A
:class:`ValueSetSummary` combines:

* an exact sample (kept whole when the value set is small),
* a Bloom filter over normalised values and over their individual tokens,
* an equi-width histogram when the values are numeric,
* a top-k frequency summary for categorical selectivity estimation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.digest.bloom import BloomFilter
from repro.digest.histogram import EquiWidthHistogram, TopKSummary

_WORD_RE = re.compile(r"[\w]+", re.UNICODE)

#: Value sets at most this large are also kept exactly.
EXACT_SET_LIMIT = 512

#: Buckets of a numeric value set's histogram.
HISTOGRAM_BUCKETS = 32


@dataclass
class ValueSetStats:
    """Size/precision bookkeeping for a value-set summary."""

    total_values: int
    distinct_values: int
    numeric: bool
    exact_kept: bool
    bytes_used: int


class ValueSetSummary:
    """Compact representation of the values observed at one digest position.

    ``values`` are the *joinable* values — exactly what the source wrapper
    would return at query time, so overlap probing between two summaries
    predicts real join opportunities.  ``keyword_aliases`` are additional
    display strings (e.g. the local name of a URI) indexed only for keyword
    matching, never for membership or overlap tests.
    """

    def __init__(self, values: Sequence[object], bloom_bits_per_value: int = 16,
                 exact_limit: int = EXACT_SET_LIMIT,
                 top_k: int = 20, keyword_aliases: Sequence[object] | None = None):
        self._exact_limit = exact_limit
        cleaned = [v for v in values if v is not None]
        normalized = [_normalize(v) for v in cleaned]
        self.total_values = len(cleaned)
        distinct = sorted(set(normalized))
        self.distinct_values = len(distinct)
        self.exact: set[str] | None = set(distinct) if len(distinct) <= exact_limit else None

        self.bloom = BloomFilter(max(1, self.distinct_values), bits_per_value=bloom_bits_per_value)
        self.bloom.add_all(distinct)

        alias_values = [_normalize(v) for v in (keyword_aliases or ()) if v is not None]
        alias_distinct = sorted(set(alias_values))
        self.alias_exact: set[str] | None = (
            set(alias_distinct) if len(alias_distinct) <= exact_limit else None
        )
        searchable = distinct + alias_distinct
        self.token_bloom = BloomFilter(max(1, len(searchable) * 2),
                                       bits_per_value=bloom_bits_per_value)
        tokens: set[str] = set()
        for value in searchable:
            tokens.update(_tokens(value))
        self.token_bloom.add_all(tokens)
        self.alias_bloom = BloomFilter(max(1, len(alias_distinct)),
                                       bits_per_value=bloom_bits_per_value)
        self.alias_bloom.add_all(alias_distinct)
        # What a keyword matches exactly — each kept value, whole and
        # squeezed, and its tokens — and whether that is all (both exact
        # sets kept): one pair, rebound whole, never mutated.
        self._keywords = (_word_set([*(self.exact or ()), *(self.alias_exact or ())]),
                          self.exact is not None and self.alias_exact is not None)

        numeric_values = [v for v in cleaned if isinstance(v, (int, float)) and not isinstance(v, bool)]
        self.numeric = bool(numeric_values) and len(numeric_values) == len(cleaned)
        self.histogram = EquiWidthHistogram(numeric_values, buckets=HISTOGRAM_BUCKETS) if self.numeric else None
        self.top_k = TopKSummary(normalized, k=top_k)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def absorb(self, values: Iterable[object]) -> None:
        """Fold an insert-only delta into the summary, in place.

        Built for streaming ingestion: instead of re-scanning a column
        after every batch, the wrapper keeping the digest feeds just the
        inserted values here.  Membership stays free of false negatives (Bloom
        filters only gain bits; the exact set degrades to Bloom-only past
        its limit), while the histogram absorbs out-of-range values by
        clamping into the edge buckets and the top-k counts drift toward
        an approximation — all uses are selectivity *estimates*, where
        monotone approximation is acceptable and absence-proofs must stay
        exact.  Removals cannot be absorbed; the caller rebuilds instead.
        """
        cleaned = [v for v in values if v is not None]
        if not cleaned:
            return
        normalized = [_normalize(v) for v in cleaned]
        self.total_values += len(cleaned)
        fresh = sorted(set(normalized))
        if self.exact is not None:
            # Rebound, not grown in place: a reader holding the sets it
            # started with (``matches_keyword``) is not disturbed.
            exact = self.exact | set(fresh)
            self.distinct_values = len(exact)
            if len(exact) <= self._exact_limit:
                self.exact = exact
                words, complete = self._keywords
                self._keywords = (words | _word_set(fresh), complete)
            else:
                self.exact = None
                self._keywords = (_word_set(self.alias_exact or ()), False)
        else:
            self.distinct_values += sum(
                1 for v in fresh if not self.bloom.might_contain(v))
        self.bloom.add_all(fresh)
        tokens: set[str] = set()
        for value in fresh:
            tokens.update(_tokens(value))
        self.token_bloom.add_all(tokens)
        numeric_values = [v for v in cleaned
                          if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if self.numeric:
            if len(numeric_values) != len(cleaned):
                self.numeric = False
                self.histogram = None
            elif self.histogram is not None:
                self._absorb_histogram(numeric_values)
        self._absorb_top_k(normalized)

    def _absorb_histogram(self, values: Sequence[float]) -> None:
        histogram = self.histogram
        if not histogram.buckets:
            self.histogram = EquiWidthHistogram(values, buckets=HISTOGRAM_BUCKETS)
            return
        span = histogram.high - histogram.low
        width = (span / len(histogram.buckets)) or 1.0
        for value in values:
            v = float(value)
            index = min(max(int((v - histogram.low) / width), 0),
                        len(histogram.buckets) - 1)
            histogram.buckets[index].count += 1
        histogram.total += len(values)

    def _absorb_top_k(self, normalized: Sequence[str]) -> None:
        top_k = self.top_k
        counts: dict[str, int] = {}
        for value in normalized:
            counts[value] = counts.get(value, 0) + 1
        entries = dict(top_k.entries)
        for value, count in counts.items():
            # A value absent from the tracked entries re-enters with just
            # its delta count (its pre-eviction history is lost) — a
            # space-time-style approximation that still lets a newly hot
            # value displace stale singletons.
            entries[value] = entries.get(value, 0) + count
        top_k.total += len(normalized)
        top_k.distinct = max(top_k.distinct, self.distinct_values)
        top_k.entries = sorted(entries.items(), key=lambda kv: -kv[1])[:top_k.k]

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def might_contain(self, value: object) -> bool:
        """Value-level membership test (exact when the exact set is kept)."""
        needle = _normalize(value)
        exact = self.exact
        if exact is not None:
            return needle in exact
        return self.bloom.might_contain(needle)

    def matches_keyword(self, keyword: str) -> bool:
        """Keyword-level membership: the keyword matches a full value or a token.

        The normalisation removes case, accents are left to the caller, and
        non-alphanumeric characters are dropped, so the keyword
        ``"head of state"`` matches the stored value ``headOfState``.
        """
        needle = _normalize(keyword)
        squeezed = _squeeze(needle)
        words, complete = self._keywords
        if needle in words or squeezed in words:
            return True
        if complete:
            return False
        if (self.bloom.might_contain(needle) or self.bloom.might_contain(squeezed)
                or self.alias_bloom.might_contain(needle)
                or self.alias_bloom.might_contain(squeezed)):
            return True
        return (self.token_bloom.might_contain(needle)
                or self.token_bloom.might_contain(squeezed))

    def matching_values(self, keyword: str, limit: int = 5) -> list[str]:
        """Concrete stored values matching ``keyword`` (exact sets only)."""
        exact = self.exact
        if exact is None:
            return []
        needle = _normalize(keyword)
        squeezed = _squeeze(needle)
        matches = []
        for value in sorted(exact):
            if needle == value or squeezed == _squeeze(value) or needle in _tokens(value):
                matches.append(value)
                if len(matches) >= limit:
                    break
        return matches

    def overlap_estimate(self, other: "ValueSetSummary", sample_limit: int = 200) -> float:
        """Estimated fraction of this set's values present in ``other``.

        Uses the exact sample when available (probing the other side's
        Bloom filter), which is how cross-source join candidates are
        detected when building the combined digest graph.  Against a side
        that keeps no exact set, no more hits than the filter's expected
        false positives (``len(sample) x rate``, rounded up) is no overlap,
        unless the sample is one value: its hit is all the evidence it has.
        """
        exact = self.exact
        if exact:
            sample = list(exact)[:sample_limit]
            if not sample:
                return 0.0
            hits = sum(1 for value in sample if other.might_contain(value))
            if (other.exact is None and len(sample) > 1
                    and hits <= math.ceil(len(sample) * other.bloom.false_positive_rate())):
                return 0.0
            return hits / len(sample)
        # Without an exact sample, fall back to a coarse histogram overlap.
        mine, theirs = self.histogram, other.histogram
        if self.numeric and other.numeric and mine and theirs:
            if mine.total == 0:
                return 0.0
            return mine.estimate_range(theirs.low, theirs.high) / mine.total
        return 0.0

    # ------------------------------------------------------------------
    def selectivity(self, value: object) -> float:
        """Selectivity estimate of an equality predicate on ``value``."""
        if self.total_values == 0:
            return 0.0
        if not self.might_contain(value):
            return 0.0
        return max(self.top_k.estimate_equality_selectivity(value), 1.0 / self.total_values)

    def range_selectivity(self, op: str, value: float) -> Optional[float]:
        """Selectivity of ``position <op> value`` from the histogram.

        ``None`` when the position is not numeric (the caller falls back
        to a default guess); supported operators: ``<  <=  >  >=``.
        """
        histogram = self.histogram
        if not self.numeric or histogram is None:
            return None
        if op in ("<", "<="):
            return histogram.estimate_selectivity(None, value)
        if op in (">", ">="):
            return histogram.estimate_selectivity(value, None)
        return None

    def stats(self) -> ValueSetStats:
        """Size and precision statistics of the summary."""
        bytes_used = (self.bloom.size_in_bytes() + self.token_bloom.size_in_bytes()
                      + self.alias_bloom.size_in_bytes())
        if self.histogram is not None:
            bytes_used += self.histogram.size_in_bytes()
        exact = self.exact
        if exact is not None:
            bytes_used += sum(len(v) for v in exact)
        return ValueSetStats(
            total_values=self.total_values,
            distinct_values=self.distinct_values,
            numeric=self.numeric,
            exact_kept=exact is not None,
            bytes_used=bytes_used,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"ValueSetSummary(distinct={self.distinct_values}, "
                f"numeric={self.numeric}, exact={self.exact is not None})")


def _normalize(value: object) -> str:
    return str(value).strip().lower()


def _squeeze(value: str) -> str:
    return "".join(_WORD_RE.findall(value)).lower()


def _word_set(values: Iterable[str]) -> frozenset[str]:
    """Each value, its squeezed form and its tokens."""
    words: set[str] = set()
    for value in values:
        words.add(value)
        words.add(_squeeze(value))
        words.update(_tokens(value))
    return frozenset(words)


def _tokens(value: str) -> set[str]:
    out: set[str] = set()
    for token in _WORD_RE.findall(value):
        out.add(token.lower())
    # camelCase / PascalCase splitting so "headOfState" yields head/of/state.
    for token in re.findall(r"[A-Za-z][a-z]+|[A-Z]+(?![a-z])|\d+", str(value)):
        out.add(token.lower())
    return out
