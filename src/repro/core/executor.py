"""Evaluation of Conjunctive Mixed Queries over a mixed instance.

The executor walks a :class:`~repro.core.planner.QueryPlan` stage by
stage, and every sub-query reaches its source through one route,
:meth:`MixedQueryExecutor._dispatch`: lists of bindings are resolved to
their target sources (static, dynamically discovered or every accepting
source of a free source variable), shipped as one call per target
source — all calls of a stage in one flat parallel batch — and each call
is recorded on the trace.

* a ``materialize`` step dispatches the single empty binding, and its
  rows are hash-joined with the current intermediate result; the
  materialize steps of one stage are dispatched together;
* a ``bind`` step is a bind join: distinct bindings of the current
  intermediate result are collected into planner-sized batches, sieved
  against the source digests (when a catalog is available), and
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

With ``PlannerOptions(adaptive=True)`` (the default; the reference
plan of ``cost_based=False`` never re-plans) execution is **adaptive**:
the intermediate result materialises between stages, each step's
observed cardinality is compared with the planner's estimate, and when
the q-error exceeds :data:`~repro.core.planner.REPLAN_THRESHOLD` the
executor records feedback into the statistics layer, invalidates the
stale plan-cache entry and re-plans the remaining steps from the real
intermediate cardinality.  Calls are dispatched on up to
``max_workers`` threads; ``max_workers=1`` runs them serially.
"""

from __future__ import annotations

import logging
import threading
import time

from repro.cache.lru import CacheStats
from repro.cache.results import CachedSource
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
from repro.engine.parallel import run_tasks
from repro.errors import (
    MixedQueryError,
    QueryTimeoutError,
    RemoteError,
    ReproError,
    SourceDispatchError,
    UnknownSourceError,
)
from repro.obs.metrics import get_registry
from repro.obs.spans import SpanTracer, attach, current_span, detach, span as _span

logger = logging.getLogger("repro.core.executor")


class MixedQueryExecutor:
    """Evaluates CMQs against a catalog of wrapped data sources.

    ``digests`` is an optional :class:`repro.digest.graph.DigestCatalog`;
    when given, batched bind joins sieve their bindings through the
    target source's value-set summaries before shipping them.

    ``cache`` is an optional :class:`repro.cache.MediatorCache` (shared
    by every executor of an instance): sub-query results are then served
    from the cross-query result cache before any source dispatch —
    including one probe per flush inside batched bind joins, so a batch
    ships only cache misses — and plans are reused through the plan
    cache.  ``PlannerOptions(result_cache=False, plan_cache=False)``
    opts out per executor.
    """

    def __init__(self, sources: dict[str, DataSource], glue: DataSource,
                 options: PlannerOptions | None = None, max_workers: int = 4,
                 digests=None, cache=None, statistics=None,
                 cancel_check=None, task_pool=None,
                 metrics=None, deadline=None):
        self._sources = dict(sources)
        self._glue = glue
        self.options = options or PlannerOptions()
        self.max_workers = max_workers
        # Metrics sink; resolved lazily so tests that reset the global
        # registry see their fresh registry even on long-lived executors.
        self._metrics = metrics
        #: Optional callable invoked between stages; it raises (e.g.
        #: QueryCancelledError / QueryTimeoutError) to abort execution
        #: cooperatively — the mediator service wires it per ticket.
        self.cancel_check = cancel_check
        #: Optional callable returning the seconds left before this
        #: execution's deadline (None = unbounded).  Unlike the purely
        #: cooperative ``cancel_check``, the remaining budget bounds the
        #: *wait* on every pooled dispatch, so a single hung source call
        #: surfaces QueryTimeoutError mid-stage instead of stalling the
        #: ticket indefinitely.
        self.deadline = deadline
        # Service-owned shared pool (None = the process-wide one).
        self._task_pool = task_pool
        self.planner = QueryPlanner(self._sources, glue, self.options,
                                    plan_cache=cache.plans if cache is not None else None,
                                    statistics=statistics)
        self._sieve = None
        if digests is not None:
            from repro.digest.sieve import DigestSieve

            self._sieve = DigestSieve(digests)
        # Dispatch goes through caching proxies when a mediator cache is
        # configured; the planner (and the digest sieve) keep seeing the
        # raw sources.  ``_cache_stats`` collects this executor's own
        # hit/miss counts for the trace (the instance-wide counters are
        # shared with other executors).
        self._result_cache = None
        self._cache_stats = None
        self._targets: dict[str, DataSource] = self._sources
        self._target_glue: DataSource = glue
        if cache is not None and self.options.result_cache:
            self._result_cache = cache.results
            self._cache_stats = CacheStats()
            stats_lock = threading.Lock()
            repair = getattr(cache, "repair", None)

            def proxy(source: DataSource) -> CachedSource:
                return CachedSource(source, cache.results, stats=self._cache_stats,
                                    stats_lock=stats_lock, repair=repair)

            self._targets = {uri: proxy(source)
                             for uri, source in self._sources.items()}
            self._target_glue = proxy(glue)

    # ------------------------------------------------------------------
    def execute(self, query: ConjunctiveMixedQuery, plan: QueryPlan | None = None,
                distinct: bool = True, limit: int | None = None) -> MixedResult:
        """Evaluate ``query`` and return its :class:`MixedResult`.

        A pre-built ``plan`` may be supplied; it runs under the options
        it was planned with.

        With ``PlannerOptions(tracing=True)`` (the default) the whole
        evaluation is wrapped in an ``execute`` span — nested under the
        service's per-query root when one is active, otherwise the root
        of a fresh :class:`~repro.obs.spans.SpanTracer` — and the tracer
        lands on ``result.trace.spans``.
        """
        # The options of this execution, resolved once: a pre-built plan
        # runs under the options it was planned with, start to finish.
        options = (plan.options if plan is not None and plan.options is not None
                   else self.options)
        if not options.tracing:
            result = self._execute(query, plan, distinct, limit, options)
            self._record_metrics(result.trace)
            return result
        parent = current_span()
        if parent is not None:
            root = parent.tracer.start("execute", parent=parent, query=query.name)
        else:
            root = SpanTracer(f"execute:{query.name}").start(
                "execute", query=query.name)
        token = attach(root)
        try:
            result = self._execute(query, plan, distinct, limit, options)
        finally:
            detach(token)
        root.end(rows=len(result.rows), calls=len(result.trace.calls))
        result.trace.spans = root.tracer
        self._record_metrics(result.trace)
        return result

    def _execute(self, query: ConjunctiveMixedQuery, plan: QueryPlan | None,
                 distinct: bool, limit: int | None,
                 options: PlannerOptions) -> MixedResult:
        start = time.perf_counter()
        cache_stats = (self._cache_stats.snapshot()
                       if self._cache_stats is not None else None)
        plan = plan or self.planner.plan(query, options)
        trace = ExecutionTrace(atom_order=plan.atom_order(), plan_text=plan.explain(),
                               stages=[[plan.steps[i].atom.name for i in stage]
                                       for stage in plan.stages],
                               plan_cached=plan.cached)
        adaptive = options.adaptive and options.cost_based

        current: Operator | None = None
        #: The bind join of every executed bind step, by atom identity.
        joins: dict[int, BatchBindJoin] = {}
        executed: list[PlanStep] = []
        executed_stages: list[list[str]] = []
        replanned_after: set[int] = set()
        pending = [[plan.steps[i] for i in stage] for stage in plan.stages]
        max_replans = len(plan.steps)
        while pending:
            if self.cancel_check is not None:
                self.cancel_check()
            steps = pending.pop(0)
            if len(steps) == 1 and steps[0].mode == "bind" and current is not None:
                current = self._bind_step(current, steps[0], trace, options, joins)
            else:
                current = self._materialize_stage(current, steps, trace, options)
            executed.extend(steps)
            executed_stages.append([step.atom.name for step in steps])
            if not (adaptive and pending):
                continue
            # Materialise the intermediate result so the stage's source
            # calls have happened and actual cardinalities are known.
            current = MaterializedScan(list(current.batches()), name="intermediate")
            intermediate = current.estimated_size()
            trace.intermediate_sizes.append(intermediate)
            worst: tuple[float, PlanStep, StepObservation] | None = None
            for step in steps:
                observation = self._observe(step, trace, joins)
                if observation is None:
                    continue
                error = observation.q_error()
                if worst is None or error > worst[0]:
                    worst = (error, step, observation)
            if (worst is None or worst[0] <= REPLAN_THRESHOLD
                    or trace.replans >= max_replans):
                continue
            # The estimate was off: invalidate the stale cached plan
            # (computed under the *current* statistics revision, so drop
            # it before feedback bumps the revision), record what was
            # observed, and re-plan the remaining steps from the real
            # intermediate cardinality.
            self.planner.forget(query, options)
            self._record_feedback(steps, trace)
            logger.warning(
                "re-planning %s after step %s: estimated %.0f row(s), "
                "observed %d (q-error %.1f > threshold %.1f)",
                query.name, worst[1].atom.name, worst[2].estimate,
                worst[2].actual_rows, worst[0], REPLAN_THRESHOLD)
            replanned_after.add(id(worst[1]))
            bound: set[str] = set()
            for step in executed:
                bound |= step.atom.output_variables()
                if step.atom.source_variable is not None:
                    bound.add(step.atom.source_variable)
            tail = self.planner.plan_tail(query, [s.atom for s in executed], bound,
                                          float(intermediate), options)
            pending = [[tail.steps[i] for i in stage] for stage in tail.stages]
            trace.replanned = True
            trace.replans += 1
            trace.plan_text += (
                f"\nre-planned after {worst[1].atom.name} "
                f"(est. {worst[2].estimate:.0f}, actual {worst[2].actual_rows}):\n"
                + tail.explain())

        if current is None:
            raise MixedQueryError(f"query {query.name!r} produced an empty plan")
        if self.cancel_check is not None:
            self.cancel_check()

        output = list(query.output_variables())
        operator: Operator = Project(current, output)
        if distinct:
            operator = Distinct(operator)
        rows = operator.rows()
        if limit is not None:
            rows = rows[:limit]
        trace.total_seconds = time.perf_counter() - start
        trace.intermediate_sizes.append(len(rows))
        trace.sieved_bindings = sum(join.sieved_out for join in joins.values())
        if trace.replanned:
            # The executed schedule diverged from the planned one.
            trace.atom_order = [step.atom.name for step in executed]
            trace.stages = executed_stages
        for step in executed:
            observation = self._observe(step, trace, joins)
            if observation is not None:
                observation.replanned_after = id(step) in replanned_after
                trace.steps.append(observation)
        if cache_stats is not None:
            # Every probe is counted once, by this executor's own proxies.
            now = self._cache_stats
            trace.cache_hits = now.hits - cache_stats.hits
            trace.cache_misses = now.misses - cache_stats.misses
        return MixedResult(variables=output, rows=rows, trace=trace)

    # ------------------------------------------------------------------
    # Estimate-vs-actual bookkeeping (adaptive re-planning)
    # ------------------------------------------------------------------
    @staticmethod
    def _observe(step: PlanStep, trace: ExecutionTrace,
                 joins: dict[int, BatchBindJoin]) -> StepObservation | None:
        """What the trace knows about one step's calls so far.

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
            for source in self._step_sources(step):
                calls = [c for c in trace.calls if c.atom_key == id(step.atom)
                         and c.source_uri == source.uri]
                if calls:
                    statistics.record(
                        source, step.atom.query, bound_formals,
                        sum(c.rows_out for c in calls)
                        / sum(c.bindings_in for c in calls))

    def _step_sources(self, step: PlanStep) -> list[DataSource]:
        """The raw sources a step names, in this executor's own catalog."""
        if step.atom.is_glue():
            return [self._glue]
        return [self._sources[uri] for uri in step.sources]

    def _record_metrics(self, trace: ExecutionTrace) -> None:
        """Fold one execution's trace into the metrics registry."""
        registry = self._metrics if self._metrics is not None else get_registry()
        registry.counter("executor_queries_total").inc()
        registry.histogram("executor_query_seconds").observe(trace.total_seconds)
        if trace.replans:
            registry.counter("executor_replans_total").inc(trace.replans)
        if trace.sieved_bindings:
            registry.counter("sieve_sieved_bindings_total").inc(trace.sieved_bindings)
        if trace.cache_hits:
            registry.counter("result_cache_probe_hits_total").inc(trace.cache_hits)
        if trace.cache_misses:
            registry.counter("result_cache_probe_misses_total").inc(trace.cache_misses)
        shipped = sum(call.bindings_in for call in trace.calls if call.batched)
        if shipped:
            registry.counter("sieve_shipped_bindings_total").inc(shipped)

    # ------------------------------------------------------------------
    # Stage evaluation
    # ------------------------------------------------------------------
    def _remaining(self) -> float | None:
        """Seconds left before the execution deadline (None = unbounded).

        Raises :class:`~repro.errors.QueryTimeoutError` directly when the
        budget is already exhausted, so stages stop dispatching the
        moment the deadline passes.
        """
        if self.deadline is None:
            return None
        remaining = self.deadline()
        if remaining is None:
            return None
        if remaining <= 0:
            raise QueryTimeoutError("query deadline exceeded mid-stage")
        return remaining

    def _materialize_stage(self, current: Operator | None, steps: list[PlanStep],
                           trace: ExecutionTrace, options: PlannerOptions) -> Operator:
        with _span("stage:materialize",
                   atoms=[step.atom.name for step in steps]) as sp:
            fetched = self._dispatch([(step, [{}]) for step in steps], trace, options)
            if sp is not None:
                sp.set(rows=sum(row_count(batches) for (batches,) in fetched))
        operator = current
        for step, (batches,) in zip(steps, fetched):
            scan = MaterializedScan(batches, name=step.atom.name)
            operator = scan if operator is None else HashJoin(operator, scan)
        assert operator is not None
        return operator

    def _bind_step(self, current: Operator, step: PlanStep, trace: ExecutionTrace,
                   options: PlannerOptions,
                   joins: dict[int, BatchBindJoin]) -> Operator:
        atom = step.atom
        probed: list = [None]  # the last probe's misses, which ship next

        def fetch_batch(bindings: list[Row]) -> list[list[BindingBatch]]:
            found, probed[0] = probed[0], None
            with _span(f"bind:{atom.name}", bindings=len(bindings)) as sp:
                (per_binding,) = self._dispatch([(step, bindings)], trace, options, found)
                if sp is not None:
                    sp.set(rows=sum(map(row_count, per_binding)))
                return per_binding

        sieve = None
        if self._sieve is not None and options.digest_sieve and step.use_sieve:
            sieve = self._sieve.sieve_for(atom, self._step_sources(step))
        join = BatchBindJoin(current, fetch_batch, keys=sorted(atom.variables()),
                             batch_size=step.batch_size or DEFAULT_BATCH_SIZE,
                             sieve=sieve, probe=self._cache_probe(step, atom, probed),
                             name=f"bind:{atom.name}")
        joins[id(atom)] = join
        return join

    def _cache_probe(self, step: PlanStep, atom: SourceAtom, probed: list):
        """Result-cache probe for a static bind step: the sub-query is
        canonicalised once, a flush is one :meth:`CachedSource.peek`; a
        hit is never shipped, the misses' keys go to ``probed[0]`` for the
        dispatch that ships them.  Dynamic atoms rely on the proxy alone.
        """
        if self._result_cache is None or step.dynamic:
            return None
        target = self._target_glue if atom.is_glue() else self._targets.get(atom.source)
        canon = self._result_cache.canonicalize(atom.query)
        if not isinstance(target, CachedSource) or canon is None:
            return None

        def probe(bindings: list[tuple]) -> list[list[BindingBatch] | None]:
            answers, probed[0] = target.peek(atom, canon, bindings)
            return answers

        return probe

    # ------------------------------------------------------------------
    # Dispatch: the one route from a plan step to its source(s)
    # ------------------------------------------------------------------
    def _dispatch(self, work: list[tuple[PlanStep, list[Row]]],
                  trace: ExecutionTrace, options: PlannerOptions,
                  probed: tuple | None = None) -> list[list[list[BindingBatch]]]:
        """Ship each step's bindings; one call per (step, target source).

        Static atoms hit their single source; dynamic atoms group their
        bindings by the source URI each one resolves to; a free source
        variable fans every binding out to every accepting source
        (results concatenated per binding).  A materialize step passes
        the single empty binding and reaches ``source.execute``; a bind
        step's batch reaches ``source.execute_batch``.  The calls are
        independent, so all of them run as one flat parallel batch.
        Returns, per ``work`` entry, the batches of each binding.
        """
        results: list[list[list[BindingBatch]]] = [[[] for _ in bindings_list]
                                                   for _, bindings_list in work]
        calls: list[tuple[int, DataSource, list[int]]] = []
        for slot, (step, bindings_list) in enumerate(work):
            by_source: dict[str, tuple[DataSource, list[int]]] = {}
            for index, bindings in enumerate(bindings_list):
                for source in self._resolve_runtime_sources(step.atom, bindings):
                    by_source.setdefault(source.uri, (source, []))[1].append(index)
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
                    if step.mode == "bind":
                        per_binding = atom.execute_batch_on(source, batch, probed)
                    else:
                        per_binding = [atom.execute_on(source, bindings)
                                       for bindings in batch]
                except Exception as exc:
                    per_binding, degraded = self._handle_dispatch_error(
                        exc, atom, source, batch, options)
                    if sp is not None:
                        sp.set(degraded=degraded)
                if sp is not None:
                    sp.set(rows=sum(map(row_count, per_binding)))
            return per_binding, time.perf_counter() - started, degraded

        outcomes = run_tasks(
            [lambda c=c: call(*c) for c in calls],
            max_workers=self.max_workers, pool=self._task_pool,
            timeout=self._remaining())
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
                               source: DataSource, batch: list[Row],
                               options: PlannerOptions,
                               ) -> tuple[list[list[BindingBatch]], str]:
        """Degrade or re-raise one failed dispatch.

        A typed :class:`~repro.errors.RemoteError` (the source is down
        past its retry budget) degrades gracefully when the options allow
        it: each binding is answered from the latest *stale* cached rows
        if any exist, else with no rows — and the call is flagged so the
        trace / EXPLAIN ANALYZE report the query as degraded rather than
        silently incomplete.  Any other repro error propagates unchanged;
        an unexpected (non-repro) exception is wrapped so the failed
        ticket carries the source URI and atom that caused it.
        """
        if isinstance(exc, RemoteError):
            if not options.graceful_degradation:
                raise exc
            per_binding: list[list[BindingBatch]] = []
            stale_hits = 0
            peek_stale = getattr(source, "peek_stale", None)
            for bindings in batch:
                stale = None
                if peek_stale is not None:
                    stale = peek_stale(atom.query, atom.formal_bindings(bindings))
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
            registry = (self._metrics if self._metrics is not None
                        else get_registry())
            registry.counter("executor_degraded_calls_total",
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
            return [self._target_glue]
        if atom.source is not None:
            return [self._source(atom.source)]
        # Dynamic source: a bound source variable identifies one source;
        # a free source variable fans out to every accepting source.
        if atom.source_variable and atom.source_variable in bindings:
            uri = bindings[atom.source_variable]
            return [self._source(str(uri))]
        candidates = [s for s in self._targets.values() if s.accepts(atom.query)]
        if not candidates:
            raise UnknownSourceError(
                f"no registered source accepts the sub-query of atom {atom.name!r}"
            )
        return candidates

    def _source(self, uri: str) -> DataSource:
        source = self._targets.get(uri)
        if source is None:
            raise UnknownSourceError(f"no source registered under URI {uri!r}")
        return source

