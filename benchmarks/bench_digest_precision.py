"""E9 (§2.2): digest precision vs space.

"The precision level of the value set representations is controlled by
parameters dividing up the available space; histograms and Bloom filters
are used."  This bench sweeps the Bloom bits-per-value budget and reports
digest size together with the keyword false-positive rate (keywords that
match a digest position whose source actually holds no such value).
Expected shape: false positives drop roughly exponentially with the bit
budget while size grows linearly.
"""

from __future__ import annotations

from functools import partial

import pytest
from conftest import report

from repro.digest import ValueSetSummary, build_catalog

_BITS = [2, 4, 8, 16, 32]

#: Values resembling the demo corpus positions (hashtags, handles, codes).
_PRESENT = [f"hashtag{i}" for i in range(400)] + [f"handle{i}" for i in range(400)]
_ABSENT = [f"missing{i}" for i in range(2000)]


@pytest.mark.parametrize("bits", _BITS)
def test_bloom_budget(benchmark, bits):
    """Summary construction cost at each bit budget + measured false positives."""
    summary = benchmark(lambda: ValueSetSummary(_PRESENT, bloom_bits_per_value=bits,
                                                exact_limit=0))
    false_positives = sum(1 for v in _ABSENT if summary.might_contain(v))
    report(f"E9: bloom bits={bits}", [{
        "bits/value": bits,
        "bytes": summary.stats().bytes_used,
        "false positive rate": round(false_positives / len(_ABSENT), 4),
        "theoretical": round(summary.bloom.false_positive_rate(), 4),
    }])
    # No false negatives ever.
    assert all(summary.might_contain(v) for v in _PRESENT)


def test_precision_space_tradeoff_table(benchmark, demo_small):
    """The headline E9 series over the real demo instance digests."""
    def sweep():
        rows = []
        probes = [f"absent-keyword-{i}" for i in range(200)]
        for bits in _BITS:
            # exact_limit=0 forces every value set onto its Bloom filter, which
            # is the regime the precision/space trade-off is about (large
            # sources cannot keep exact sets).
            catalog = build_catalog(demo_small.instance, summarize=partial(
                ValueSetSummary, bloom_bits_per_value=bits, exact_limit=0))
            false_hits = sum(1 for keyword in probes for _ in catalog.lookup_keyword(keyword))
            rows.append({"bits/value": bits,
                         "digest size (KiB)": round(catalog.total_size_in_bytes() / 1024, 1),
                         "spurious keyword hits": false_hits})
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("E9: digest precision vs space", rows)
    assert rows[0]["digest size (KiB)"] < rows[-1]["digest size (KiB)"]
    assert rows[-1]["spurious keyword hits"] <= rows[0]["spurious keyword hits"]
