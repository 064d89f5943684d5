"""Evaluation of Conjunctive Mixed Queries over a mixed instance.

The executor walks a :class:`~repro.core.planner.QueryPlan` stage by
stage, and every sub-query reaches its source through one route,
:meth:`MixedQueryExecutor._dispatch`: lists of bindings are resolved to
their target sources (static, dynamically discovered or every accepting
source of a free source variable), shipped as one call per target
source — all calls of a stage in one flat batch — and each call is
recorded on the trace.  Planning, statistics feedback, cache probes and
dispatch read one catalog, built with the executor: with a result cache,
each source is its :class:`~repro.cache.results.CachedSource` layer.
An execution's own state is not the executor's, so one executor per
pinned snapshot serves every CMQ asked of it, concurrently too.

* a ``materialize`` step dispatches the batch of one empty binding, and
  its rows are hash-joined with the current intermediate result; the
  materialize steps of one stage are dispatched together;
* a ``bind`` step is a bind join: distinct bindings of the current
  intermediate result are collected into planner-sized batches and
  dispatched one batch at a time — the wrapper answers the whole batch
  natively (IN-lists, disjunctive queries, shared candidate sets) where
  its query language allows.  This is how bindings reach dependent
  sources — including *dynamically discovered* sources whose URI comes
  from a variable binding.  ``PlannerOptions(bind_batch_size=1)`` is the
  classical one-call-per-binding bind join on the same route.

The remaining processing (joins, projection, deduplication) happens inside
the iterator engine of :mod:`repro.engine`.  From a source's answer to
the last operator rows travel as ``BindingBatch`` objects (cache hits
share the cache's row lists); the dict rows of :class:`MixedResult` are
built once, before ``execute`` returns.

Bind stages run lazily, as the last operator pulls rows.  When the
query has run, each step's observed cardinality is compared with the
planner's estimate: a cost-based plan whose step in a non-final stage
is off by more than :data:`~repro.core.planner.REPLAN_THRESHOLD` is
*retired* — its plan-cache entry is dropped and the stage's feedback
recorded into the statistics layer, so the next asking replans (the
reference plan of ``cost_based=False`` is never retired).  A stage's
local calls run on the query thread while its remote calls wait on the
shared dispatch pool; under a deadline every call is pooled so the wait
is bounded (:func:`repro.engine.parallel.run_calls`).
"""

from __future__ import annotations

import logging
import time
from typing import Callable, NamedTuple, Optional

from repro.cache.keys import canonical_query
from repro.cache.results import CachedSource, counting
from repro.core.cmq import ConjunctiveMixedQuery, SourceAtom
from repro.core.planner import (
    REPLAN_THRESHOLD,
    PlannerOptions,
    PlanStep,
    QueryPlan,
    QueryPlanner,
)
from repro.core.results import ExecutionTrace, MixedResult, StepObservation, SubQueryCall
from repro.core.sources import DataSource, Row
from repro.engine.batch import DEFAULT_BATCH_SIZE, BindingBatch, row_count
from repro.engine.iterators import (
    BatchBindJoin,
    Distinct,
    HashJoin,
    MaterializedScan,
    Operator,
    Project,
)
from repro.engine.parallel import run_calls
from repro.errors import (
    MixedQueryError,
    QueryTimeoutError,
    RemoteError,
    ReproError,
    SourceDispatchError,
    UnknownSourceError,
)
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.spans import span as _span

logger = logging.getLogger("repro.core.executor")


class _Execution(NamedTuple):
    """One execution's own state: its trace and its caller's controls
    (see :meth:`MixedQueryExecutor.execute`)."""

    trace: ExecutionTrace
    cancel_check: Optional[Callable[[], None]]
    deadline: Optional[Callable[[], Optional[float]]]
    metrics: MetricsRegistry

    def check(self) -> None:
        if self.cancel_check is not None:
            self.cancel_check()

    def remaining(self) -> float | None:
        """Seconds left before the deadline (None = unbounded); once it has
        passed, raises QueryTimeoutError, so no stage dispatches any more."""
        remaining = None if self.deadline is None else self.deadline()
        if remaining is not None and remaining <= 0:
            raise QueryTimeoutError("query deadline exceeded mid-stage")
        return remaining


class MixedQueryExecutor:
    """Evaluates CMQs against a catalog of wrapped data sources.

    ``cache`` is an optional :class:`repro.cache.MediatorCache` (shared
    by every executor of an instance): each source of the catalog is
    then its cache layer, so sub-query results are served from the
    cross-query result cache before any source dispatch — including one
    probe per flush inside batched bind joins, so a batch ships only
    cache misses — and plans are reused through the plan cache.
    ``PlannerOptions(result_cache=False, plan_cache=False)`` opts out
    per executor.  :meth:`execute` may run on several threads at once.
    """

    def __init__(self, sources: dict[str, DataSource], glue: DataSource,
                 options: PlannerOptions | None = None,
                 cache=None, statistics=None):
        self.options = options or PlannerOptions()
        # One catalog, built once: with a result cache, each source is seen
        # through its transparent cache layer — by the planner, the
        # statistics feedback and dispatch alike.
        self._result_cache = None
        if cache is not None and self.options.result_cache:
            self._result_cache = cache.results
            repair = getattr(cache, "repair", None)

            def layer(source: DataSource) -> CachedSource:
                return CachedSource(source, cache.results, repair=repair)

            sources = {uri: layer(source) for uri, source in sources.items()}
            glue = layer(glue)
        self._sources = dict(sources)
        self._glue = glue
        self.planner = QueryPlanner(self._sources, glue, self.options,
                                    plan_cache=cache.plans if cache is not None else None,
                                    statistics=statistics)

    # ------------------------------------------------------------------
    def execute(self, query: ConjunctiveMixedQuery, plan: QueryPlan | None = None,
                distinct: bool = True, limit: int | None = None, *,
                cancel_check: Optional[Callable[[], None]] = None,
                deadline: Optional[Callable[[], Optional[float]]] = None,
                metrics: Optional[MetricsRegistry] = None) -> MixedResult:
        """Evaluate ``query`` and return its :class:`MixedResult`.

        A pre-built ``plan`` may be supplied; it runs under the options
        it was planned with.  ``cancel_check``, called before each stage
        and dispatch, raises to abort; ``deadline`` returns the seconds
        left and bounds the wait on every pooled dispatch; ``metrics`` is
        the registry to record into (the global one by default).

        Spans follow the caller: inside an open trace (the service's
        per-query root, :func:`repro.obs.spans.trace`) the evaluation
        nests as an ``execute`` span and the caller's tracer lands on
        ``result.trace.spans``; outside one nothing is traced, like
        every other :mod:`repro.obs.spans` helper.
        """
        # The options of this execution, resolved once: a pre-built plan
        # runs under the options it was planned with, start to finish.
        options = (plan.options if plan is not None and plan.options is not None
                   else self.options)
        registry = metrics if metrics is not None else get_registry()
        # The trace counts this execution's own probes, whatever runs beside it.
        with _span("execute", query=query.name) as sp, counting() as tally:
            result = self._execute(query, plan, distinct, limit, options,
                                   cancel_check, deadline, registry)
            result.trace.cache_hits = tally.hits
            result.trace.cache_misses = tally.misses
            if sp is not None:
                sp.set(rows=len(result.rows), calls=len(result.trace.calls))
                result.trace.spans = sp.tracer
        self._record_metrics(result.trace, registry)
        return result

    def _execute(self, query: ConjunctiveMixedQuery, plan: QueryPlan | None,
                 distinct: bool, limit: int | None, options: PlannerOptions,
                 cancel_check, deadline, registry: MetricsRegistry) -> MixedResult:
        start = time.perf_counter()
        plan = plan or self.planner.plan(query, options)
        trace = ExecutionTrace(atom_order=plan.atom_order(), plan=plan,
                               stages=[[plan.steps[i].atom.name for i in stage]
                                       for stage in plan.stages],
                               plan_cached=plan.cached)
        run = _Execution(trace, cancel_check, deadline, registry)
        output = list(query.output_variables())
        current: Operator | None = None
        #: The bind join of every executed bind step, by atom identity.
        joins: dict[int, BatchBindJoin] = {}
        for stage in plan.stages:
            run.check()
            steps = [plan.steps[i] for i in stage]
            # The last join emits the answer's header: Project passes its rows on.
            columns = output if stage is plan.stages[-1] else None
            if len(steps) == 1 and steps[0].mode == "bind" and current is not None:
                current = self._bind_step(current, steps[0], run, joins, columns)
            else:
                current = self._materialize_stage(current, steps, run, columns)

        if current is None:
            raise MixedQueryError(f"query {query.name!r} produced an empty plan")
        run.check()

        operator: Operator = Project(current, output)
        if distinct:
            operator = Distinct(operator)
        rows = operator.rows()
        if limit is not None:
            rows = rows[:limit]
        trace.total_seconds = time.perf_counter() - start
        observations = [self._observe(step, trace, joins) for step in plan.steps]
        trace.steps = [o for o in observations if o is not None]
        if options.cost_based:
            self._retire_if_drifted(query, plan, observations, trace, options)
        return MixedResult(variables=output, rows=rows, trace=trace)

    # ------------------------------------------------------------------
    # Estimate-vs-actual bookkeeping (plan retirement)
    # ------------------------------------------------------------------
    def _retire_if_drifted(self, query: ConjunctiveMixedQuery, plan: QueryPlan,
                           observations: list[StepObservation | None],
                           trace: ExecutionTrace, options: PlannerOptions) -> None:
        """Retire the plan when a step of a non-final stage drifted.

        The cached plan is dropped under the *current* statistics
        revision, before the drifted stages' feedback bumps it; the next
        asking then plans anew from the corrected statistics.  Drift in
        the final stage retires nothing: no step was ordered after it.
        """
        for stage in plan.stages[:-1]:
            drifted = [observations[i] for i in stage if observations[i] is not None
                       and observations[i].q_error() > REPLAN_THRESHOLD]
            if not drifted:
                continue
            if not trace.plan_retired:
                self.planner.forget(query, options)
                trace.plan_retired = True
            self._record_feedback([plan.steps[i] for i in stage], trace)
            for observation in drifted:
                observation.drifted = True
                logger.warning(
                    "retiring the plan of %s after step %s: estimated %.0f "
                    "row(s), observed %d (q-error %.1f > threshold %.1f)",
                    query.name, observation.atom, observation.estimate,
                    observation.actual_rows, observation.q_error(),
                    REPLAN_THRESHOLD)

    @staticmethod
    def _observe(step: PlanStep, trace: ExecutionTrace,
                 joins: dict[int, BatchBindJoin]) -> StepObservation | None:
        """What the trace knows about one step's calls.

        Calls are matched by atom *identity*, not display name — two
        atoms of a self-join share a name but must not pool their rows.
        ``bindings`` counts each shipped binding once, however many
        sources it went to: a free source variable ships every binding
        to every candidate source, and the planner's per-binding
        estimate is already the sum over the candidates.  A materialize
        step ships the one empty binding.
        """
        calls = [c for c in trace.calls if c.atom_key == id(step.atom)]
        if not calls:
            return None
        join = joins.get(id(step.atom))
        return StepObservation(atom=step.atom.name, mode=step.mode,
                               estimate=step.estimate,
                               actual_rows=sum(c.rows_out for c in calls),
                               bindings=join.bindings_shipped if join is not None else 1,
                               cost=step.cost, atom_key=id(step.atom))

    def _record_feedback(self, steps: list[PlanStep], trace: ExecutionTrace) -> None:
        """Feed observed cardinalities of a stage back into the statistics.

        Recorded per source: a dynamic atom's candidates each get their
        own observed rows per binding they were sent (the planner *sums*
        candidate estimates, so recording the aggregate against every
        candidate would inflate the next estimate N-fold).
        """
        statistics = self.planner.statistics
        for step in steps:
            bound_formals = self.planner._bound_formals(
                step.atom, set(step.bound_variables))
            sources = ([self._glue] if step.atom.is_glue()
                       else [self._sources[uri] for uri in step.sources])
            for source in sources:
                calls = [c for c in trace.calls if c.atom_key == id(step.atom)
                         and c.source_uri == source.uri]
                if calls:
                    statistics.record(
                        source, step.atom.query, bound_formals,
                        sum(c.rows_out for c in calls)
                        / sum(c.bindings_in for c in calls))

    @staticmethod
    def _record_metrics(trace: ExecutionTrace, registry: MetricsRegistry) -> None:
        """Fold one execution's trace into the metrics registry."""
        registry.counter("executor_queries_total").inc()
        registry.histogram("executor_query_seconds").observe(trace.total_seconds)
        if trace.plan_retired:
            registry.counter("executor_plans_retired_total").inc()
        if trace.cache_hits:
            registry.counter("result_cache_probe_hits_total").inc(trace.cache_hits)
        if trace.cache_misses:
            registry.counter("result_cache_probe_misses_total").inc(trace.cache_misses)
        shipped = sum(call.bindings_in for call in trace.calls if call.batched)
        if shipped:
            registry.counter("executor_shipped_bindings_total").inc(shipped)

    # ------------------------------------------------------------------
    # Stage evaluation
    # ------------------------------------------------------------------
    def _materialize_stage(self, current: Operator | None, steps: list[PlanStep],
                           run: _Execution, columns: list[str] | None) -> Operator:
        if isinstance(current, BatchBindJoin):
            # A hash join builds on its known-smaller side: run the bind
            # join through first, so its result has a size.
            current = MaterializedScan(list(current.batches()), name="intermediate")
        with _span("stage:materialize",
                   atoms=[step.atom.name for step in steps]) as sp:
            fetched = self._dispatch([(step, [{}]) for step in steps], run)
            if sp is not None:
                sp.set(rows=sum(row_count(batches) for (batches,) in fetched))
        operator = current
        for index, (step, (batches,)) in enumerate(zip(steps, fetched), 1):
            scan = MaterializedScan(batches, name=step.atom.name)
            operator = scan if operator is None else HashJoin(
                operator, scan, columns=columns if index == len(steps) else None)
        assert operator is not None
        return operator

    def _bind_step(self, current: Operator, step: PlanStep, run: _Execution,
                   joins: dict[int, BatchBindJoin], columns: list[str] | None) -> Operator:
        atom = step.atom
        probed: list = [None]  # the last probe's misses, which ship next

        def fetch_batch(bindings: list[Row]) -> list[list[BindingBatch]]:
            found, probed[0] = probed[0], None
            with _span(f"bind:{atom.name}", bindings=len(bindings)) as sp:
                (per_binding,) = self._dispatch([(step, bindings)], run, found)
                if sp is not None:
                    sp.set(rows=sum(map(row_count, per_binding)))
                return per_binding

        join = BatchBindJoin(current, fetch_batch, keys=sorted(atom.variables()),
                             batch_size=step.batch_size or DEFAULT_BATCH_SIZE,
                             probe=self._cache_probe(step, atom, probed),
                             name=f"bind:{atom.name}", columns=columns)
        joins[id(atom)] = join
        return join

    def _cache_probe(self, step: PlanStep, atom: SourceAtom, probed: list):
        """Result-cache probe for a static bind step: the sub-query is
        canonicalised once, a flush is one :meth:`CachedSource.peek`; a
        hit is never shipped, the misses' keys go to ``probed[0]`` for the
        dispatch that ships them.  Dynamic atoms rely on the layer alone.
        """
        if self._result_cache is None or step.dynamic:
            return None
        target = self._glue if atom.is_glue() else self._sources.get(atom.source)
        canon = canonical_query(atom.query)
        if target is None or canon is None:
            return None

        def probe(bindings: list[tuple]) -> list[list[BindingBatch] | None]:
            answers, probed[0] = target.peek(atom, canon, bindings)
            return answers

        return probe

    # ------------------------------------------------------------------
    # Dispatch: the one route from a plan step to its source(s)
    # ------------------------------------------------------------------
    def _dispatch(self, work: list[tuple[PlanStep, list[Row]]], run: _Execution,
                  probed: tuple | None = None) -> list[list[list[BindingBatch]]]:
        """Ship each step's bindings; one call per (step, target source).

        Static atoms hit their single source; dynamic atoms group their
        bindings by the source URI each one resolves to; a free source
        variable fans every binding out to every accepting source
        (results concatenated per binding).  Every call is one
        :meth:`SourceAtom.execute_batch_on` — a materialize step's batch
        is its one empty binding.  The calls are independent, so all of
        them go to :func:`run_calls` as one flat batch, a call waiting
        when its source is remote.  Returns, per ``work`` entry, the
        batches of each binding.
        """
        run.check()  # bind stages dispatch lazily, while later stages pull rows
        trace = run.trace
        results: list[list[list[BindingBatch]]] = [[[] for _ in bindings_list]
                                                   for _, bindings_list in work]
        calls: list[tuple[int, DataSource, list[int]]] = []
        for slot, (step, bindings_list) in enumerate(work):
            by_source: dict[int, tuple[DataSource, list[int]]] = {}
            for index, bindings in enumerate(bindings_list):
                for source in self._resolve_runtime_sources(step.atom, bindings):
                    by_source.setdefault(id(source), (source, []))[1].append(index)
            calls.extend((slot, source, indices)
                         for source, indices in by_source.values())

        def call(slot: int, source: DataSource, indices: list[int]):
            step, bindings_list = work[slot]
            atom = step.atom
            batch = [bindings_list[i] for i in indices]
            with _span("call", atom=atom.name, source=source.uri,
                       bindings=len(batch)) as sp:
                started = time.perf_counter()
                degraded = None
                try:
                    per_binding = atom.execute_batch_on(source, batch, probed)
                except Exception as exc:
                    per_binding, degraded = self._handle_dispatch_error(
                        exc, atom, source, batch, run)
                    if sp is not None:
                        sp.set(degraded=degraded)
                if sp is not None:
                    sp.set(rows=sum(map(row_count, per_binding)))
            return per_binding, time.perf_counter() - started, degraded

        outcomes = run_calls(
            [(lambda c=c: call(*c), c[1].cost_kind == "remote") for c in calls],
            timeout=run.remaining())
        for (slot, source, indices), (per_binding, elapsed, degraded) in zip(
                calls, outcomes):
            step = work[slot][0]
            atom = step.atom
            if len(per_binding) != len(indices):
                raise MixedQueryError(
                    f"source {source.uri!r} answered {len(per_binding)} bindings "
                    f"of a {len(indices)}-binding batch for atom {atom.name!r}"
                )
            total = 0
            for index, batches in zip(indices, per_binding):
                if atom.source_variable is not None:
                    # The source a row came from is one more column.
                    batches = [b if atom.source_variable in b.positions() else
                               BindingBatch(b.columns + (atom.source_variable,),
                                            [row + (source.uri,) for row in b.rows])
                               for b in batches]
                results[slot][index].extend(batches)
                total += row_count(batches)
            trace.calls.append(SubQueryCall(
                atom=atom.name, source_uri=source.uri,
                bindings_in=len(indices), rows_out=total, seconds=elapsed,
                batched=step.mode == "bind", atom_key=id(atom), degraded=degraded,
            ))
            if degraded is not None:
                trace.degraded = True
                trace.degraded_atoms.append((atom.name, source.uri, degraded))
        return results

    def _handle_dispatch_error(self, exc: Exception, atom: SourceAtom,
                               source: DataSource, batch: list[Row], run: _Execution,
                               ) -> tuple[list[list[BindingBatch]], str]:
        """Degrade or re-raise one failed dispatch.

        A typed :class:`~repro.errors.RemoteError` (the source is down
        past its retry budget) degrades: each binding is answered from
        the latest *stale* cached rows if any exist, else with no rows —
        and the call is flagged so the trace / EXPLAIN ANALYZE report
        the query as degraded rather than silently incomplete.  Any other repro error propagates unchanged;
        an unexpected (non-repro) exception is wrapped so the failed
        ticket carries the source URI and atom that caused it.
        """
        if isinstance(exc, RemoteError):
            per_binding: list[list[BindingBatch]] = []
            stale_hits = 0
            cache = self._result_cache
            for bindings in batch:
                stale = None if cache is None else cache.fetch_stale(
                    source, atom.query, atom.formal_bindings(bindings))
                if stale is None:
                    per_binding.append([])
                else:
                    stale_hits += 1
                    per_binding.append(atom.translate(stale))
            reason = "stale_cache" if stale_hits == len(batch) else "partial"
            logger.warning(
                "degrading atom %s on %s after %s: %s (%d/%d binding(s) "
                "served from stale cache)", atom.name, source.uri,
                type(exc).__name__, exc, stale_hits, len(batch))
            run.metrics.counter("executor_degraded_calls_total",
                                source=source.uri, reason=reason).inc()
            return per_binding, reason
        if isinstance(exc, ReproError):
            raise exc
        raise SourceDispatchError(
            f"source {source.uri!r} raised {type(exc).__name__} while "
            f"evaluating atom {atom.name!r}: {exc}",
            source_uri=source.uri, atom=atom.name) from exc

    def _resolve_runtime_sources(self, atom: SourceAtom,
                                 bindings: Row) -> list[DataSource]:
        if atom.is_glue():
            return [self._glue]
        if atom.source is not None:
            return [self._source(atom.source)]
        # Dynamic source: a bound source variable identifies one source;
        # a free source variable fans out to every accepting source.
        if atom.source_variable and atom.source_variable in bindings:
            uri = bindings[atom.source_variable]
            return [self._source(str(uri))]
        candidates = [s for s in self._sources.values() if s.accepts(atom.query)]
        if not candidates:
            raise UnknownSourceError(
                f"no registered source accepts the sub-query of atom {atom.name!r}"
            )
        return candidates

    def _source(self, uri: str) -> DataSource:
        source = self._sources.get(uri)
        if source is None:
            raise UnknownSourceError(f"no source registered under URI {uri!r}")
        return source

