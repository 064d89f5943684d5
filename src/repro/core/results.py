"""Result sets returned by mixed-query evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.engine.batch import dedupe
from repro.errors import MixedQueryError


@dataclass
class MixedResult:
    """The answer of a CMQ: output variables plus binding rows.

    Rows are dictionaries keyed by the query's head variables: a list the
    executor has fully built (one fresh dict per answer row, the caller's
    to keep) before ``execute`` returns.  The result also carries the
    evaluation trace (sub-query order, per-source calls, intermediate
    sizes) so demos and benchmarks can display what happened.
    """

    variables: list[str]
    rows: list[dict[str, object]] = field(default_factory=list)
    trace: "ExecutionTrace | None" = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict[str, object]]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def column(self, variable: str) -> list[object]:
        """Return one output variable as a list of values."""
        if variable not in self.variables:
            raise MixedQueryError(f"result has no variable {variable!r}")
        return [row.get(variable) for row in self.rows]

    def distinct(self) -> "MixedResult":
        """Return a copy without duplicate rows (order preserving)."""
        variables = self.variables
        rows = dedupe(self.rows, (tuple([row.get(v) for v in variables])
                                  for row in self.rows), set())
        return MixedResult(variables=list(self.variables), rows=rows, trace=self.trace)

    def sorted_by(self, variable: str, descending: bool = False) -> "MixedResult":
        """Return a copy sorted by one output variable."""
        rows = sorted(self.rows, key=lambda r: _sort_key(r.get(variable)), reverse=descending)
        return MixedResult(variables=list(self.variables), rows=rows, trace=self.trace)

    def to_table(self, max_rows: int | None = 20) -> str:
        """Render the result as a fixed-width text table (for demos)."""
        shown = self.rows if max_rows is None else self.rows[:max_rows]
        widths = {v: len(v) for v in self.variables}
        rendered = []
        for row in shown:
            cells = {v: _cell(row.get(v)) for v in self.variables}
            for v, cell in cells.items():
                widths[v] = max(widths[v], len(cell))
            rendered.append(cells)
        header = " | ".join(v.ljust(widths[v]) for v in self.variables)
        separator = "-+-".join("-" * widths[v] for v in self.variables)
        lines = [header, separator]
        for cells in rendered:
            lines.append(" | ".join(cells[v].ljust(widths[v]) for v in self.variables))
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)


@dataclass
class SubQueryCall:
    """One sub-query dispatch recorded during evaluation.

    ``bindings_in`` counts the bindings the call carried: the distinct
    bindings of a bind-join batch (``batched`` is True), or the one
    empty binding of a materialize call.

    With the result cache enabled a dispatch may have been answered
    partly or entirely from cached entries without touching the source;
    the trace-level ``cache_hits`` / ``cache_misses`` counters tell how
    much source work the execution really did.
    """

    atom: str
    source_uri: str
    bindings_in: int
    rows_out: int
    seconds: float
    batched: bool = False
    #: Identity of the dispatched atom object (disambiguates atoms that
    #: share a display name, e.g. a self-join on one relation).
    atom_key: int = 0
    #: Why this call served degraded rows instead of fresh ones:
    #: ``"stale_cache"`` (previous cached results, possibly outdated) or
    #: ``"partial"`` (the source was down and nothing cached — the call
    #: contributed no rows).  ``None`` for a healthy call.
    degraded: str | None = None


@dataclass
class StepObservation:
    """Estimated vs. observed cardinality of one executed plan step.

    ``estimate`` is the planner's prediction — rows per input binding
    for bind steps, total rows for materialize steps; ``actual_rows``
    and ``bindings`` are what the source calls really did.  ``q_error``
    is the symmetric ratio the adaptive executor compares against
    :data:`repro.core.planner.REPLAN_THRESHOLD`.
    """

    atom: str
    mode: str
    estimate: float
    actual_rows: int
    bindings: int = 0
    cost: float = 0.0
    #: True when this observation triggered a mid-flight replan.
    replanned_after: bool = False
    #: Identity of the observed atom object (matches SubQueryCall.atom_key,
    #: so EXPLAIN ANALYZE can attribute calls to self-joined atoms).
    atom_key: int = 0

    def actual_per_binding(self) -> float:
        """Observed rows normalised like the estimate (per binding for binds)."""
        if self.mode == "bind" and self.bindings:
            return self.actual_rows / self.bindings
        return float(self.actual_rows)

    def q_error(self) -> float:
        """max(est/actual, actual/est), with a floor of 1 on both sides."""
        estimate = max(1.0, self.estimate)
        actual = max(1.0, self.actual_per_binding())
        if estimate != estimate or estimate == float("inf"):
            return float("inf")
        return max(estimate / actual, actual / estimate)


@dataclass
class ExecutionTrace:
    """What the mediator did while answering a CMQ."""

    atom_order: list[str] = field(default_factory=list)
    stages: list[list[str]] = field(default_factory=list)
    calls: list[SubQueryCall] = field(default_factory=list)
    intermediate_sizes: list[int] = field(default_factory=list)
    total_seconds: float = 0.0
    plan_text: str = ""
    #: Bindings the digest sieve proved matchless (never shipped).
    sieved_bindings: int = 0
    #: Sub-query probes answered from the cross-query result cache.
    cache_hits: int = 0
    #: Sub-query probes that had to go to a source (and were then cached).
    cache_misses: int = 0
    #: True when the plan was served from the plan cache.
    plan_cached: bool = False
    #: Per-step estimated vs. actual cardinalities (execution order).
    steps: list[StepObservation] = field(default_factory=list)
    #: True when the executor re-planned the remaining steps mid-flight.
    replanned: bool = False
    #: Number of mid-flight replans.
    replans: int = 0
    #: The :class:`repro.obs.spans.SpanTracer` of this execution (None
    #: when tracing was disabled); ``spans.render()`` draws the tree.
    spans: "object | None" = None
    #: True when at least one source call served degraded (stale or
    #: partial) rows because its source was down past its retry budget.
    degraded: bool = False
    #: ``(atom, source_uri, reason)`` per degraded call.
    degraded_atoms: list[tuple[str, str, str]] = field(default_factory=list)

    def calls_to(self, source_uri: str) -> int:
        """Number of sub-query calls shipped to ``source_uri``."""
        return sum(1 for call in self.calls if call.source_uri == source_uri)

    def batched_calls(self) -> int:
        """Number of source calls that carried a binding batch."""
        return sum(1 for call in self.calls if call.batched)

    def total_rows_fetched(self) -> int:
        """Total rows returned by every source call."""
        return sum(call.rows_out for call in self.calls)

    def summary(self) -> str:
        """One-paragraph human-readable description of the evaluation."""
        lines = [
            f"evaluated {len(self.atom_order)} sub-queries in {len(self.stages)} stage(s)",
            f"order: {' -> '.join(self.atom_order)}",
            f"source calls: {len(self.calls)}, rows fetched: {self.total_rows_fetched()}",
            f"total time: {self.total_seconds * 1000:.1f} ms",
        ]
        if self.sieved_bindings:
            lines.insert(3, f"digest sieve dropped {self.sieved_bindings} binding(s)")
        if self.cache_hits or self.cache_misses:
            lines.insert(3, f"result cache: {self.cache_hits} hit(s), "
                            f"{self.cache_misses} miss(es)")
        if self.plan_cached:
            lines.insert(1, "plan served from the plan cache")
        if self.degraded:
            detail = ", ".join(f"{atom}@{source} ({reason})"
                               for atom, source, reason in self.degraded_atoms)
            lines.insert(1, f"DEGRADED result: {detail}")
        if self.replanned:
            lines.insert(1, f"re-planned the remaining steps mid-flight "
                            f"{self.replans} time(s)")
        if self.steps:
            lines.append("per-step cost / est / actual rows:")
        for observation in self.steps:
            marker = "  -> replanned tail" if observation.replanned_after else ""
            lines.append(
                f"  {observation.atom:<20} [{observation.mode}] "
                f"cost {observation.cost:.1f}  est {observation.estimate:.0f}  "
                f"actual {observation.actual_rows}{marker}")
        return "\n".join(lines)


def _sort_key(value: object) -> tuple:
    if value is None:
        return (2, "")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, value)
    return (1, str(value))


def _cell(value: object) -> str:
    text = "" if value is None else str(value)
    return text if len(text) <= 40 else text[:37] + "..."
