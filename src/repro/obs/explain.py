"""EXPLAIN ANALYZE: merge planned costs with observed execution reality.

The planner predicts (cardinality estimates, modelled costs, stage
layout), the executor records what actually happened
(:class:`~repro.core.results.SubQueryCall` per dispatch,
:class:`~repro.core.results.StepObservation` per step, a span tree when
tracing is on).  :func:`explain_analyze` folds the three into one
per-step plan-vs-reality report — the mediator's equivalent of a
database's ``EXPLAIN ANALYZE``.

Entry points: :meth:`repro.core.instance.MixedInstance.explain_analyze`
(execute a query and report) and :meth:`repro.service.QueryTicket
.explain_analyze` (report on a served query, queue wait included).

This module deliberately imports nothing from :mod:`repro.core`: it
reads the trace duck-typed, so the core result types need no knowledge
of the report format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class ExplainStep:
    """Plan-vs-reality line for one executed plan step."""

    atom: str
    mode: str  # "materialize" | "bind"
    cost: float
    #: Planner's estimate: total rows for materialize steps, rows per
    #: input binding for bind steps.
    estimated_rows: float
    actual_rows: int
    bindings: int
    q_error: float
    calls: int
    batched_calls: int
    rows_fetched: int
    seconds: float
    replanned_after: bool = False
    #: Degradation reason of this step's worst call ("stale_cache" /
    #: "partial"), or None when every call answered fresh rows.
    degraded: Optional[str] = None


@dataclass
class ExplainReport:
    """The merged report; :meth:`render` produces the human-readable text."""

    query: str
    steps: list[ExplainStep] = field(default_factory=list)
    plan_text: str = ""
    plan_cached: bool = False
    rows: int = 0
    total_seconds: float = 0.0
    #: Phase timings from the span tree (None when tracing was off).
    queue_seconds: Optional[float] = None
    plan_seconds: Optional[float] = None
    execute_seconds: Optional[float] = None
    cache_hits: int = 0
    cache_misses: int = 0
    sieved_bindings: int = 0
    replans: int = 0
    #: True when at least one call served stale or partial rows because
    #: its source was down; ``degraded_atoms`` lists the affected
    #: ``(atom, source_uri, reason)`` triples.
    degraded: bool = False
    degraded_atoms: list = field(default_factory=list)
    #: Round trips to remote sources (``remote.call`` spans; traced
    #: executions only): how many, what they took end to end, and the
    #: part their servers reported spending in the handler — the rest
    #: is the wire (framing, codecs, sockets, retries).
    remote_calls: int = 0
    remote_seconds: float = 0.0
    remote_server_seconds: float = 0.0
    #: The backing :class:`~repro.obs.spans.SpanTracer` (None when off).
    span_tree: Optional[object] = None

    # ------------------------------------------------------------------
    def render(self, include_plan: bool = True,
               include_spans: bool = False) -> str:
        """The report as fixed-width text (demos, logs, notebooks)."""
        lines = [f"EXPLAIN ANALYZE  {self.query}  "
                 f"({self.rows} row(s), {self.total_seconds * 1000.0:.2f} ms)"]
        header = (f"  {'step':<22} {'mode':<12} {'cost':>8} {'est.rows':>9} "
                  f"{'actual':>7} {'q-err':>6} {'calls':>5} {'rows':>7} "
                  f"{'time':>9}")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for step in self.steps:
            estimate = (f"{step.estimated_rows:.0f}/bnd" if step.mode == "bind"
                        else f"{step.estimated_rows:.0f}")
            marks = []
            if step.batched_calls:
                marks.append("batched")
            if step.replanned_after:
                marks.append("replanned tail")
            if step.degraded:
                marks.append(f"DEGRADED: {step.degraded}")
            suffix = f"  [{', '.join(marks)}]" if marks else ""
            lines.append(
                f"  {step.atom:<22} {step.mode:<12} {step.cost:>8.1f} "
                f"{estimate:>9} {step.actual_rows:>7} {step.q_error:>6.1f} "
                f"{step.calls:>5} {step.rows_fetched:>7} "
                f"{step.seconds * 1000.0:>7.2f}ms{suffix}")
        timing = []
        if self.queue_seconds is not None:
            timing.append(f"queue {self.queue_seconds * 1000.0:.2f} ms")
        if self.plan_seconds is not None:
            timing.append(f"plan {self.plan_seconds * 1000.0:.2f} ms")
        if self.execute_seconds is not None:
            timing.append(f"execute {self.execute_seconds * 1000.0:.2f} ms")
        timing.append(f"trace total {self.total_seconds * 1000.0:.2f} ms")
        lines.append("  timing: " + " | ".join(timing))
        if self.degraded:
            detail = ", ".join(f"{atom}@{source} ({reason})"
                               for atom, source, reason in self.degraded_atoms)
            lines.append(f"  DEGRADED result — sources down past their retry "
                         f"budget: {detail}")
        lines.append(
            f"  cache: {self.cache_hits} hit(s) / {self.cache_misses} "
            f"miss(es) · sieve dropped {self.sieved_bindings} binding(s) · "
            f"replans {self.replans} · plan "
            + ("cached" if self.plan_cached else "built"))
        if self.remote_calls:
            wire = max(0.0, self.remote_seconds - self.remote_server_seconds)
            lines.append(
                f"  remote: {self.remote_calls} round trip(s) · wire "
                f"{wire * 1000.0:.2f} ms · server "
                f"{self.remote_server_seconds * 1000.0:.2f} ms")
        if include_plan and self.plan_text:
            lines.append("  plan:")
            lines.extend("    " + line for line in self.plan_text.splitlines())
        if include_spans and self.span_tree is not None:
            lines.append("  spans:")
            lines.extend("    " + line
                         for line in self.span_tree.render().splitlines())
        return "\n".join(lines)

    def step(self, atom: str) -> Optional[ExplainStep]:
        """The first step executing ``atom`` (display name), or None."""
        for step in self.steps:
            if step.atom == atom:
                return step
        return None

    def __str__(self) -> str:
        return self.render()


def explain_analyze(result) -> ExplainReport:
    """Build the report from a :class:`~repro.core.results.MixedResult`.

    ``result.trace`` must be present (every executor execution attaches
    one).  Span-derived phase timings are filled in when the execution
    was traced (``PlannerOptions.tracing`` / ``ServiceConfig.tracing``).
    """
    trace = getattr(result, "trace", None)
    if trace is None:
        raise ValueError("the result carries no execution trace to analyze")
    steps: list[ExplainStep] = []
    for observation in trace.steps:
        key = getattr(observation, "atom_key", 0)
        calls = [c for c in trace.calls
                 if (c.atom_key == key if key else c.atom == observation.atom)]
        steps.append(ExplainStep(
            atom=observation.atom,
            mode=observation.mode,
            cost=observation.cost,
            estimated_rows=observation.estimate,
            actual_rows=observation.actual_rows,
            bindings=observation.bindings,
            q_error=observation.q_error(),
            calls=len(calls),
            batched_calls=sum(1 for c in calls if c.batched),
            rows_fetched=sum(c.rows_out for c in calls),
            seconds=sum(c.seconds for c in calls),
            replanned_after=observation.replanned_after,
            degraded=next((c.degraded for c in calls
                           if getattr(c, "degraded", None)), None),
        ))
    spans = getattr(trace, "spans", None)
    queue_seconds = _span_total(spans, "queue")
    plan_seconds = _span_total(spans, "plan")
    replan_seconds = _span_total(spans, "replan")
    if plan_seconds is not None and replan_seconds is not None:
        plan_seconds += replan_seconds
    remote = spans.find("remote.call") if spans is not None else []
    return ExplainReport(
        query=_query_name(result),
        steps=steps,
        plan_text=trace.plan_text,
        plan_cached=trace.plan_cached,
        rows=len(result.rows),
        total_seconds=trace.total_seconds,
        queue_seconds=queue_seconds,
        plan_seconds=plan_seconds,
        execute_seconds=_span_total(spans, "execute"),
        cache_hits=trace.cache_hits,
        cache_misses=trace.cache_misses,
        sieved_bindings=trace.sieved_bindings,
        replans=trace.replans,
        degraded=getattr(trace, "degraded", False),
        degraded_atoms=list(getattr(trace, "degraded_atoms", ())),
        remote_calls=len(remote),
        remote_seconds=sum(span.seconds for span in remote),
        remote_server_seconds=sum(span.attributes.get("server_us", 0)
                                  for span in remote) / 1e6,
        span_tree=spans,
    )


def _span_total(spans, name: str) -> Optional[float]:
    if spans is None:
        return None
    matching = spans.find(name)
    if not matching:
        return None
    return sum(span.seconds for span in matching)


def _query_name(result) -> str:
    trace = result.trace
    if trace.atom_order:
        return "query(" + " -> ".join(trace.atom_order) + ")"
    return "query"
