"""Unit tests for Bloom filters, histograms, value-set summaries and dataguides."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.digest import (
    BloomFilter,
    EquiWidthHistogram,
    JSONDataguide,
    TopKSummary,
    ValueSetSummary,
)
from repro.digest.valueset import EXACT_SET_LIMIT, _normalize, _squeeze, _tokens


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(expected_items=100, bits_per_value=8)
        values = [f"value-{i}" for i in range(100)]
        bloom.add_all(values)
        assert all(v in bloom for v in values)

    def test_membership_is_case_insensitive(self):
        bloom = BloomFilter(10)
        bloom.add("SIA2016")
        assert bloom.might_contain("sia2016")

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter(expected_items=500, bits_per_value=16)
        bloom.add_all(f"in-{i}" for i in range(500))
        false_positives = sum(1 for i in range(2000) if bloom.might_contain(f"out-{i}"))
        assert false_positives / 2000 < 0.05

    def test_more_bits_fewer_false_positives(self):
        small = BloomFilter(expected_items=300, bits_per_value=4)
        big = BloomFilter(expected_items=300, bits_per_value=24)
        for i in range(300):
            small.add(f"in-{i}")
            big.add(f"in-{i}")
        small_fp = sum(1 for i in range(2000) if small.might_contain(f"out-{i}"))
        big_fp = sum(1 for i in range(2000) if big.might_contain(f"out-{i}"))
        assert big_fp <= small_fp
        assert big.size_in_bytes() > small.size_in_bytes()

    def test_theoretical_rate_increases_with_load(self):
        bloom = BloomFilter(expected_items=10, bits_per_value=8)
        assert bloom.false_positive_rate() == 0.0
        bloom.add_all(range(50))
        assert 0 < bloom.false_positive_rate() <= 1.0
        assert 0 < bloom.fill_ratio() <= 1.0

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter(10, bits_per_value=0)

    @pytest.mark.parametrize("values,bits", [(1, 32), (3, 32), (10, 8), (100, 16)])
    def test_observed_false_positives_stay_near_the_stated_rate(self, values, bits):
        """20,000 absent probes over sixteen filters of each shape: every
        probe tests ``hash_count`` independent bits, so the observed rate
        stays near ``false_positive_rate()``.  Double hashing over these
        sizes tested a few bits per probe and read 1-4 % on 32-bit filters
        that state 2e-7."""
        false_positives = probes = 0
        for trial in range(16):
            bloom = BloomFilter(values, bits_per_value=bits)
            present = [f"filter{trial}-value{i}" for i in range(values)]
            bloom.add_all(present)
            assert all(bloom.might_contain(v) for v in present)
            false_positives += sum(bloom.might_contain(f"filter{trial}-absent{i}")
                                   for i in range(1250))
            probes += 1250
        stated = bloom.false_positive_rate()
        assert false_positives / probes <= max(2 * stated, stated + 0.002)


class TestHistogram:
    def test_bucket_counts_sum_to_total(self):
        histogram = EquiWidthHistogram([float(i) for i in range(100)], buckets=10)
        assert sum(b.count for b in histogram.buckets) == 100

    def test_range_estimate(self):
        histogram = EquiWidthHistogram([float(i) for i in range(100)], buckets=10)
        assert histogram.estimate_range(0, 49) == pytest.approx(50, rel=0.2)
        assert histogram.estimate_selectivity(0, 99) == pytest.approx(1.0, rel=0.05)

    def test_out_of_range_estimates_zero(self):
        histogram = EquiWidthHistogram([1.0, 2.0, 3.0], buckets=4)
        assert histogram.estimate_range(10, 20) == 0.0
        assert not histogram.might_contain(50)

    def test_might_contain_inside_range(self):
        histogram = EquiWidthHistogram([1.0, 2.0, 3.0], buckets=2)
        assert histogram.might_contain(1.5)

    def test_empty_histogram(self):
        histogram = EquiWidthHistogram([], buckets=4)
        assert histogram.estimate_range(0, 10) == 0.0

    def test_top_k_summary(self):
        summary = TopKSummary(["left", "left", "right", "left", "center"], k=2)
        assert summary.frequency("left") == 3
        assert summary.contains("right")
        assert not summary.contains("ecologists")
        assert summary.estimate_equality_selectivity("left") == pytest.approx(0.6)


#: Stored values and keywords: camelCase, digits, punctuation, spaces.
_WORDS = st.text(alphabet="aAbBzZ09 -_.:é", max_size=12)


def _loop_matches(summary: ValueSetSummary, keyword: str) -> bool:
    """``matches_keyword`` as the loop over every kept value it was."""
    needle = _normalize(keyword)
    squeezed = _squeeze(needle)
    exact, alias_exact = summary.exact, summary.alias_exact
    for exact_set in (exact, alias_exact):
        for value in exact_set or ():
            if needle == value or squeezed == _squeeze(value):
                return True
            if needle in _tokens(value) or squeezed in _tokens(value):
                return True
    if exact is not None and alias_exact is not None:
        return False
    return any(bloom.might_contain(word)
               for bloom in (summary.bloom, summary.alias_bloom, summary.token_bloom)
               for word in (needle, squeezed))


class TestValueSetSummary:
    def test_exact_membership_for_small_sets(self):
        summary = ValueSetSummary(["fhollande", "mlepen"])
        assert summary.might_contain("FHOLLANDE")
        assert not summary.might_contain("unknown")
        assert summary.stats().exact_kept

    def test_keyword_matches_full_value_and_tokens(self):
        summary = ValueSetSummary(["headOfState", "primeMinister"])
        assert summary.matches_keyword("head of state")
        assert summary.matches_keyword("headofstate")
        assert not summary.matches_keyword("senator")

    def test_keyword_aliases_do_not_pollute_joins(self):
        uri = "http://tatooine.inria.fr/ns#headOfState"
        summary = ValueSetSummary([uri], keyword_aliases=["headOfState"])
        other = ValueSetSummary(["headofstate"])
        assert summary.matches_keyword("head of state")
        assert summary.overlap_estimate(other) == 0.0
        assert other.overlap_estimate(summary) == 0.0

    def test_matching_values(self):
        summary = ValueSetSummary(["SIA2016", "etatdurgence"])
        assert summary.matching_values("sia2016") == ["sia2016"]

    def test_overlap_estimate(self):
        left = ValueSetSummary([f"code{i}" for i in range(20)])
        right = ValueSetSummary([f"code{i}" for i in range(10)])
        assert left.overlap_estimate(right) == pytest.approx(0.5, abs=0.1)
        assert right.overlap_estimate(left) == pytest.approx(1.0, abs=0.05)

    def test_one_bloom_hit_is_no_overlap(self):
        """Against a side that keeps no exact set, a sample's single hit may
        be a Bloom false positive (a birth year "found" among tweet ids),
        so it is no overlap; two hits, one against an exact set, or the
        hit of a one-value sample, are."""
        tweets = [f"tweet{i}" for i in range(EXACT_SET_LIMIT + 100)]
        large = ValueSetSummary(tweets)
        assert large.exact is None
        candidates = [f"year{y}" for y in range(100_000)]
        false_positive = next(v for v in candidates if large.might_contain(v))
        absent = [v for v in candidates if not large.might_contain(v)][:9]
        years = ValueSetSummary([false_positive, *absent])
        assert years.overlap_estimate(large) == 0.0
        shared = ValueSetSummary([tweets[0], tweets[1], *absent[:8]])
        assert shared.overlap_estimate(large) == pytest.approx(0.2)
        exact = ValueSetSummary([false_positive, "tweet0"])
        assert years.overlap_estimate(exact) == pytest.approx(0.1)
        assert ValueSetSummary(["tweet7"]).overlap_estimate(large) == 1.0

    def test_false_hits_are_measured_against_the_stated_rate(self):
        """Hits up to the expected false positives, rounded up, are no
        overlap; one more is."""
        large = ValueSetSummary([f"tweet{i}" for i in range(EXACT_SET_LIMIT + 100)],
                                bloom_bits_per_value=2)
        rate = large.bloom.false_positive_rate()
        present = [v for v in (f"v{i}" for i in range(20_000)) if large.might_contain(v)]
        absent = [v for v in (f"w{i}" for i in range(20_000)) if not large.might_contain(v)]
        expected = math.ceil(150 * rate)
        assert 1 < expected < len(present)
        noise = ValueSetSummary([*present[:expected], *absent[:150 - expected]])
        assert noise.overlap_estimate(large) == 0.0
        signal = ValueSetSummary([*present[:expected + 1], *absent[:149 - expected]])
        assert signal.overlap_estimate(large) == pytest.approx((expected + 1) / 150)

    def test_numeric_summary_uses_histogram(self):
        summary = ValueSetSummary(list(range(1000)))
        assert summary.numeric
        assert summary.histogram is not None
        assert summary.selectivity(10) < 0.1

    def test_large_sets_fall_back_to_bloom(self):
        summary = ValueSetSummary([f"v{i}" for i in range(2000)], exact_limit=100)
        assert summary.exact is None
        assert summary.might_contain("v42")
        assert summary.matches_keyword("v42")

    def test_selectivity_zero_for_absent_value(self):
        summary = ValueSetSummary(["a", "b", "c"])
        assert summary.selectivity("zzz") == 0.0

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(_WORDS, max_size=8), aliases=st.lists(_WORDS, max_size=4),
           absorbed=st.lists(st.lists(_WORDS, max_size=4), max_size=3),
           limit=st.integers(min_value=0, max_value=10),
           probes=st.lists(_WORDS, max_size=6), data=st.data())
    def test_keyword_matching_reads_as_the_per_value_loop(self, values, aliases, absorbed,
                                                          limit, probes, data):
        """One word set per value set answers what the loop over every
        kept value answered, before and after each absorbed insert, with
        the exact set kept and past its limit."""
        summary = ValueSetSummary(values, keyword_aliases=aliases, exact_limit=limit)
        for batch in [[], *absorbed]:
            summary.absorb(batch)
            stored = [*values, *aliases, *(v for b in absorbed for v in b)]
            pieces = [t for v in stored for t in (v, _squeeze(_normalize(v)),
                                                  *_tokens(_normalize(v)))]
            keywords = probes + ([data.draw(st.sampled_from(pieces))] if pieces else [])
            for keyword in keywords:
                assert summary.matches_keyword(keyword) == _loop_matches(summary, keyword)


class TestDataguide:
    def test_paths_and_counts(self):
        guide = JSONDataguide.build([
            {"id": 1, "user": {"screen_name": "a"}, "entities": {"hashtags": ["x", "y"]}},
            {"id": 2, "user": {"screen_name": "b", "followers_count": 10}},
        ])
        assert guide.document_count == 2
        assert "user.screen_name" in guide.path_names()
        assert guide.info("entities.hashtags").count == 2
        assert guide.info("user.followers_count").is_numeric

    def test_coverage(self):
        guide = JSONDataguide.build([{"a": 1}, {"a": 2, "b": 3}])
        assert guide.coverage("a") == 1.0
        assert guide.coverage("b") == 0.5
        assert guide.coverage("missing") == 0.0

    def test_tree_structure(self):
        guide = JSONDataguide.build([{"user": {"name": "x", "id": 1}}])
        children = guide.parent_children()
        assert set(children.get("user", [])) == {"user.name", "user.id"}

    def test_to_text_rendering(self):
        guide = JSONDataguide.build([{"id": 1, "text": "hello"}])
        rendered = guide.to_text()
        assert "id" in rendered and "text" in rendered

    def test_len(self):
        guide = JSONDataguide.build([{"a": 1, "b": {"c": 2}}])
        assert len(guide) == 2
