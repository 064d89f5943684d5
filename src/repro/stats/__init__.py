"""Statistics layer: digest-backed cardinality estimation and costing.

The planner prices sub-queries with estimates derived, instead of from
each wrapper's ad-hoc ``estimate()``, from the *digest structures* the
mediator already maintains — histograms and top-k summaries for range/equality
predicates, value-set distinct counts for join keys, per-path index
postings for JSON tree patterns, inverted-index document frequencies for
full-text, each derived by its wrapper
(:meth:`~repro.core.sources.DataSource.derive_estimate`) — plus a
calibrated per-source cost model, and closes the
loop with run-time feedback (observed cardinalities override future
estimates, and the statistics revision stamps plan-cache entries so
feedback invalidates stale plans).
"""

from repro.stats.catalog import StatisticsCatalog
from repro.stats.cost import (
    CostModel,
    DEFAULT_COST_MODEL,
    MAX_BIND_BATCH,
    MIN_BIND_BATCH,
    SourceCosts,
)

__all__ = [
    "StatisticsCatalog",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "SourceCosts",
    "MIN_BIND_BATCH",
    "MAX_BIND_BATCH",
]
