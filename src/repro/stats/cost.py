"""The mediator's cost model.

Every plan alternative is priced in abstract *cost units* combining

* a per-call **setup cost** (connection/parse/dispatch overhead of one
  sub-query call — full-text searches are the most expensive, glue-graph
  BGPs the cheapest),
* a per-row **transfer cost** (shipping one result row from the source
  to the mediator),
* a per-binding **push cost** for bind joins (serialising one binding
  into an IN-list / disjunctive query / parameter fill),

with a discount for batched dispatch (one setup amortised over a whole
batch) and a calibrated bias toward bind joins
(:data:`BIND_BINDING_SHARE`).  The constants are calibrated per source
*kind*, not per instance: they only need to rank alternatives, not
predict wall-clock time.

The bias and :data:`MODE_SWITCH_MARGIN` apply to a selective bind join
only.  A *covering* one — its distinct bindings times its per-binding
estimate reach the atom's whole estimate — fetches every row
materialising fetches, plus one pushed binding each, so the planner
prices it as a materialise step (see :mod:`repro.core.planner`); one
shipped binding keeps the bind.

The same model also picks bind-join batch sizes: the size decreases
monotonically with the estimated per-binding cost, fixing the historical
discontinuity where an estimate of ``inf`` yielded a mid-size batch
while a merely large estimate yielded the minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: Bounds of the planner-chosen bind-join batch size.
MIN_BIND_BATCH = 16
MAX_BIND_BATCH = 1024

#: Share of its input bindings a bind join is priced as shipping.  A
#: calibration, not a model of anything that drops bindings: it biases
#: the plan search toward bind joins, and the plans it picks ship fewer
#: calls and rows on the qSIA workloads than the unbiased price's do.
BIND_BINDING_SHARE = 0.75


@dataclass(frozen=True)
class SourceCosts:
    """Calibrated constants for one source kind (cost units)."""

    #: Fixed cost of one sub-query call (dispatch, parse, plan).
    call_setup: float
    #: Cost of transferring one result row to the mediator.
    per_row: float
    #: Cost of shipping one binding into a dependent (bind-join) call.
    per_binding: float


#: Per-model defaults.  Full-text searches pay analysis + scoring per
#: call; JSON tree patterns pay candidate verification; SQL pays parse
#: and scan setup; BGPs over in-memory indexes are cheapest.
DEFAULT_SOURCE_COSTS: dict[str, SourceCosts] = {
    "rdf": SourceCosts(call_setup=1.0, per_row=0.02, per_binding=0.01),
    "relational": SourceCosts(call_setup=2.0, per_row=0.01, per_binding=0.008),
    "json": SourceCosts(call_setup=1.5, per_row=0.012, per_binding=0.01),
    "fulltext": SourceCosts(call_setup=5.0, per_row=0.03, per_binding=0.02),
    # Sources reached over the network (RemoteSource wrappers): one call
    # pays a full round trip, dwarfing any local dispatch overhead, while
    # marginal per-row / per-binding transfer stays cheap once the
    # connection is streaming.  The planner therefore prefers *fewer,
    # bigger* batches to remote sources (see :meth:`CostModel.batch_size`).
    "remote": SourceCosts(call_setup=40.0, per_row=0.05, per_binding=0.02),
}

#: Call-setup level above which a kind is priced as "network-far": batch
#: sizes decay more slowly so round trips are amortised over more
#: bindings.  Local kinds (setup 1–5) sit below it and are unaffected.
NETWORK_SETUP_THRESHOLD = 8.0

#: Used for wrapper models the table does not know (custom sources).
FALLBACK_SOURCE_COSTS = SourceCosts(call_setup=3.0, per_row=0.02, per_binding=0.012)

#: Rows-per-binding granularity of the batch-size decay.
BATCH_ROW_SCALE = 16.0
#: Materialize replaces a bind join only when cheaper by this factor —
#: bind joins additionally shrink downstream joins and enable cache
#: probes, which the per-step price cannot see.
MODE_SWITCH_MARGIN = 0.8


class CostModel:
    """Prices plan steps; shared by the enumerator and the batch sizer."""

    def __init__(self):
        self._combined: dict[tuple[str, ...], tuple[float, float, float, float]] = {}

    # ------------------------------------------------------------------
    def costs_for(self, model: str) -> SourceCosts:
        """The constants of one source kind (fallback for unknown kinds)."""
        return DEFAULT_SOURCE_COSTS.get(model, FALLBACK_SOURCE_COSTS)

    def _combine(self, models: Sequence[str]) -> tuple[float, float, float, float]:
        """Summed call setup, then the largest per-row, per-binding and call
        setup constants of ``models`` (non-empty), read once per combination:
        :data:`DEFAULT_SOURCE_COSTS` is fixed."""
        key = tuple(models)
        combined = self._combined.get(key)
        if combined is None:
            costs = [self.costs_for(m) for m in models]
            combined = self._combined[key] = (
                sum(c.call_setup for c in costs), max(c.per_row for c in costs),
                max(c.per_binding for c in costs), max(c.call_setup for c in costs))
        return combined

    def materialize_cost(self, models: Sequence[str], estimated_rows: float) -> float:
        """Cost of fetching a sub-query's whole result.

        ``models`` holds the kind of every dispatched source (several for
        dynamic atoms); ``estimated_rows`` is the total across them.
        """
        if not models:
            return float("inf")
        setup, per_row, _, _ = self._combine(models)
        return setup + per_row * max(0.0, estimated_rows)

    def bind_cost(self, models: Sequence[str], input_bindings: float,
                  rows_per_binding: float, batch_size: int) -> float:
        """Cost of a dependent join shipping ``input_bindings`` bindings.

        One batch is one call per target source; calls, pushed bindings
        and transferred rows are priced on :data:`BIND_BINDING_SHARE` of
        the input bindings.
        """
        if not models:
            return float("inf")
        bindings = max(0.0, input_bindings) * BIND_BINDING_SHARE
        if math.isinf(bindings):
            return float("inf")
        calls = math.ceil(bindings / max(1, batch_size)) if bindings > 0 else 1
        setup, per_row, per_binding, _ = self._combine(models)
        rows_out = bindings * max(0.0, rows_per_binding)
        return calls * setup + bindings * per_binding + rows_out * per_row

    # ------------------------------------------------------------------
    def batch_size(self, rows_per_binding: float,
                   models: Sequence[str] = ()) -> int:
        """Bind-join batch size, monotonically decreasing in cost.

        Selective steps (few rows per binding) batch maximally — every
        shipped binding is cheap to answer, so amortising the call setup
        dominates.  The size decays continuously as the per-binding
        transfer cost grows (results should start streaming early), down
        to :data:`MIN_BIND_BATCH` for very expensive or unbounded
        (``inf``) estimates — there is no discontinuity at any estimate.

        ``models`` carries the kinds of the step's target sources.  For
        network-far kinds (call setup above
        :data:`NETWORK_SETUP_THRESHOLD`, i.e. a round trip per call) the
        decay slows proportionally: when one call costs a 25 ms RTT, it
        is worth shipping a large batch even for a moderately expensive
        sub-query.  Local kinds keep the historical curve exactly.
        """
        if math.isnan(rows_per_binding) or math.isinf(rows_per_binding):
            return MIN_BIND_BATCH
        decay = max(0.0, rows_per_binding - 1.0) / BATCH_ROW_SCALE
        if models:
            setup = self._combine(models)[3]
            if setup > NETWORK_SETUP_THRESHOLD:
                decay /= setup / NETWORK_SETUP_THRESHOLD
        size = int(MAX_BIND_BATCH / (1.0 + decay))
        return min(MAX_BIND_BATCH, max(MIN_BIND_BATCH, size))


#: The instance every statistics catalog prices with.
DEFAULT_COST_MODEL = CostModel()
