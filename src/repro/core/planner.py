"""Planning the evaluation of a Conjunctive Mixed Query.

The paper (§2.3) orders sub-queries so that:

(i)   bindings for data sources must be obtained before the source can be
      queried (dependency constraints, including dynamically discovered
      sources),
(ii)  parallelism is exploited when possible (independent sub-queries are
      grouped into a common dispatch stage),
(iii) the most selective sub-queries are executed first, in classical
      mediator style.

The planner searches join orders and materialize-vs-bind mode
assignments **cost-based**: cardinalities come from the digest-backed
statistics layer (:mod:`repro.stats`), each candidate step is priced by
the per-source cost model (call setup + row transfer + binding push,
with a batching discount), and the enumerator runs dynamic
programming over atom subsets (a myopic one-step-at-a-time loop above
:data:`DP_ATOM_LIMIT` atoms).  ``PlannerOptions(cost_based=False)`` is
the *reference plan* the test and benchmark oracles evaluate: the same
loop picking the first ready atom in body order, binding only where a
required parameter or a dynamic source forces it, one step per stage.

The planner produces a :class:`QueryPlan`: an ordered list of
:class:`PlanStep` objects, each carrying the atom, the URI(s) of its
resolved source(s), its estimated cardinality, its modelled cost and its execution mode —
``materialize`` (fetch the whole sub-query result) or ``bind`` (dependent
evaluation, shipping the current bindings to the source, i.e. a bind
join).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.cache.plans import PlanCache, plan_cache_key
from repro.core.cmq import ConjunctiveMixedQuery, SourceAtom
from repro.core.sources import DataSource
from repro.errors import PlanningError
from repro.obs.spans import span as _span
from repro.stats.catalog import StatisticsCatalog
from repro.stats.cost import CostModel, MAX_BIND_BATCH, MIN_BIND_BATCH


@dataclass
class PlannerOptions:
    """How a CMQ is planned and executed."""

    #: Bindings per bind-join batch (one source call per batch of distinct
    #: bindings); 0 lets the planner pick a size per step from the atom's
    #: cardinality estimate, 1 is the classical one call per binding.
    bind_batch_size: int = 0
    #: Consult the instance's sub-query result cache before dispatching
    #: (only effective when the executor is given a mediator cache).
    result_cache: bool = True
    #: Reuse plans cached under the canonical CMQ signature, the reached
    #: sources' identities and the statistics revision (only effective
    #: when the planner is given a plan cache).
    plan_cache: bool = True
    #: Search join orders and materialize-vs-bind modes with the
    #: digest-backed cost model and group independent materialize steps
    #: into dispatch stages.  False plans the reference: body
    #: order, ``bind`` only where a required parameter or a dynamic
    #: source forces it, one step per stage, never retired on drift.
    cost_based: bool = True
    #: Collect a structured span tree for every execution (planning,
    #: stages, source calls); the tree lands on ``ExecutionTrace.spans``.
    #: Disabling skips all span allocation — the observability off
    #: switch benchmarked by ``bench_observability_overhead``.
    tracing: bool = True
    #: When a source fails with a typed RemoteError past its retry
    #: budget, answer its bindings from stale cached rows (or with no
    #: rows) and flag ``trace.degraded`` instead of failing the whole
    #: CMQ.  False restores fail-fast semantics.
    graceful_degradation: bool = True


#: Atom count above which the DP enumerator gives way to the myopic loop.
DP_ATOM_LIMIT = 10

#: Estimate-vs-actual q-error (max of the two ratios) of a step in a
#: non-final stage past which the executor retires the plan at the end
#: of the query: the next asking replans from the recorded feedback.
REPLAN_THRESHOLD = 4.0


def auto_batch_size(estimate: float, cost_model: CostModel | None = None,
                    models: Sequence[str] = ()) -> int:
    """Pick a bind-join batch size from the step's cardinality estimate.

    Delegates to the cost model, which decreases the size monotonically
    with the estimated per-binding transfer cost: selective sub-queries
    batch maximally (the round-trip saving dominates), expensive or
    unbounded ones get the minimum so results start streaming (and
    populating the bind-join cache) early.  ``models`` carries the
    target sources' cost kinds — network-far kinds (e.g. ``"remote"``)
    decay more slowly, preferring fewer bigger batches per round trip.
    """
    from repro.stats.cost import DEFAULT_COST_MODEL

    return (cost_model or DEFAULT_COST_MODEL).batch_size(estimate, models)


@dataclass
class PlanStep:
    """One planned sub-query evaluation.

    A step names its sources by URI and holds no wrapper: plans outlive
    the catalog they were built on (the plan cache, ``explain()`` output,
    pickles), and the executor resolves the URIs against its *own* pinned
    catalog — so a cached plan keeps no snapshot, store or graph alive.
    """

    atom: SourceAtom
    mode: str  # "materialize" | "bind"
    #: URIs of the resolved source (static atoms) or of every accepting
    #: candidate (dynamic atoms).
    sources: tuple[str, ...] = ()
    dynamic: bool = False
    #: Estimated rows fetched by this step (per input binding for bind
    #: steps, total for materialize steps).
    estimate: float = float("inf")
    #: Bindings per source call for bind steps (0 = executor default).
    batch_size: int = 0
    #: Modelled cost of the step (cost-model units; 0 when not costed).
    cost: float = 0.0
    #: Estimated rows of the intermediate result *after* this step.
    result_estimate: float = float("inf")
    #: CMQ variables already bound when this step runs (for feedback).
    bound_variables: frozenset = frozenset()

    def describe(self) -> str:
        """One-line description used in EXPLAIN output."""
        if self.dynamic:
            # Dynamic steps resolve their target at run time: show the
            # source *variable* rather than the candidate URIs (or the old
            # bare "?dynamic" placeholder).
            targets = f"?{self.atom.source_variable or 'dynamic'}"
        else:
            targets = ",".join(self.sources) if self.sources else "?dynamic"
        return (f"{self.mode:<11} {self.atom.describe():<50} -> {targets} "
                f"(cost {self.cost:.1f}, est. {self.estimate:.0f})")


@dataclass
class QueryPlan:
    """The full plan: ordered steps plus dispatch stages."""

    query: ConjunctiveMixedQuery
    steps: list[PlanStep]
    stages: list[list[int]]
    options: PlannerOptions
    #: True when this plan was served from the plan cache.
    cached: bool = False
    #: Total modelled cost of the plan (sum of the step costs).
    total_cost: float = 0.0

    def explain(self) -> str:
        """Render the plan as indented text."""
        suffix = " (cached plan)" if self.cached else ""
        lines = [f"plan for {self.query.name}: "
                 f"total cost {self.total_cost:.1f}{suffix}"]
        for stage_number, stage in enumerate(self.stages):
            lines.append(f"  stage {stage_number}:")
            for index in stage:
                lines.append(f"    {self.steps[index].describe()}")
        return "\n".join(lines)

    def atom_order(self) -> list[str]:
        """Atom names in execution order."""
        return [step.atom.name for step in self.steps]


class QueryPlanner:
    """Builds :class:`QueryPlan` objects for a given source catalog."""

    def __init__(self, sources: dict[str, DataSource], glue: DataSource,
                 options: PlannerOptions | None = None,
                 plan_cache: PlanCache | None = None,
                 statistics: StatisticsCatalog | None = None):
        self._sources = sources
        self._glue = glue
        self.options = options or PlannerOptions()
        self._plan_cache = plan_cache
        self._statistics = statistics

    @property
    def statistics(self) -> StatisticsCatalog:
        """The statistics layer backing cost-based estimates."""
        if self._statistics is None:
            self._statistics = StatisticsCatalog()
        return self._statistics

    # ------------------------------------------------------------------
    def plan(self, query: ConjunctiveMixedQuery,
             options: PlannerOptions | None = None) -> QueryPlan:
        """Produce an evaluation plan for ``query``.

        Structurally identical CMQs (equal up to variable renaming) are
        served from the plan cache when one is configured, across writes:
        a registration change among the sources their atoms can reach (or
        of the glue graph) or statistics feedback makes the key miss —
        feedback is how a plan whose estimates drifted is retired — and
        planning asks no other source for anything.
        """
        options = options or self.options
        with _span("plan", query=query.name) as sp:
            cache_key = self._cache_key(query, options)
            if cache_key is not None:
                hit = self._plan_cache.get(cache_key)
                if hit is not None:
                    if sp is not None:
                        sp.set(cached=True)
                    return self._rebind(hit, query, options)
            plan = self._build_plan(query, options)
            if cache_key is not None:
                # Remember which body atom each step executes so a hit can be
                # rebound to a renaming-equivalent query's own atoms.
                indices = [next(i for i, atom in enumerate(query.atoms)
                                if atom is step.atom) for step in plan.steps]
                self._plan_cache.put(cache_key, (plan, indices))
            if sp is not None:
                sp.set(cached=False, steps=len(plan.steps),
                       cost=round(plan.total_cost, 2))
            return plan

    def forget(self, query: ConjunctiveMixedQuery,
               options: PlannerOptions | None = None) -> bool:
        """Drop the cached plan of ``query`` under the current statistics."""
        cache_key = self._cache_key(query, options or self.options)
        if cache_key is None:
            return False
        return self._plan_cache.drop(cache_key)

    def _cache_key(self, query: ConjunctiveMixedQuery,
                   options: PlannerOptions) -> Optional[tuple]:
        if self._plan_cache is None or not options.plan_cache:
            return None
        revision = self._statistics.revision if self._statistics is not None else 0
        reached = {source.uri: source
                   for atom in query.atoms if not atom.is_glue()
                   for source in self._resolve_sources(atom)[0]}
        return plan_cache_key(query, reached, self._glue, options,
                              stats_revision=revision)

    @staticmethod
    def _rebind(hit: tuple, query: ConjunctiveMixedQuery,
                options: PlannerOptions) -> QueryPlan:
        """Re-anchor a cached plan on the requesting query's atoms.

        The cache key guarantees the queries are equal up to variable
        renaming, so step order, modes, sources and estimates carry over
        verbatim — only the atom objects (which hold the renaming) are
        substituted.
        """
        plan, indices = hit
        steps = []
        bound: set[str] = set()
        for step, index in zip(plan.steps, indices):
            atom = query.atoms[index]
            # bound_variables must carry the *requesting* query's names
            # (the renaming differs), or feedback recorded from this plan
            # would key on the cached query's variables.
            steps.append(replace(step, atom=atom, bound_variables=frozenset(bound)))
            bound.update(atom.output_variables())
            if atom.source_variable is not None:
                bound.add(atom.source_variable)
        return QueryPlan(query=query, steps=steps,
                         stages=[list(stage) for stage in plan.stages],
                         options=options, cached=True, total_cost=plan.total_cost)

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def _build_plan(self, query: ConjunctiveMixedQuery,
                    options: PlannerOptions) -> QueryPlan:
        atoms = list(query.atoms)
        produced_by = self._produced_by(atoms)
        memo: dict[tuple, float] = {}

        def estimate(index: int, bound_now: frozenset) -> float:
            key = (index, bound_now & frozenset(atoms[index].variables()))
            if key not in memo:
                memo[key] = self._stat_estimate(atoms[index], set(key[1]))
            return memo[key]

        if options.cost_based and len(atoms) <= DP_ATOM_LIMIT:
            steps = self._dp_steps(atoms, produced_by, options, estimate)
        else:
            steps = self._myopic_steps(atoms, produced_by, options, estimate)
        stages = self._group_stages(steps, options)
        total = sum(step.cost for step in steps)
        return QueryPlan(query=query, steps=steps, stages=stages, options=options,
                         total_cost=total)

    def _produced_by(self, atoms: list[SourceAtom]) -> dict[str, set[int]]:
        produced_by: dict[str, set[int]] = {}
        for index, atom in enumerate(atoms):
            for variable in atom.output_variables():
                produced_by.setdefault(variable, set()).add(index)
        return produced_by

    def _ready(self, atoms: list[SourceAtom], done, bound: set[str],
               produced_by: dict[str, set[int]]) -> list[int]:
        """Indices of the atoms not in ``done`` that can run given ``bound``."""
        ready = [i for i in range(len(atoms)) if i not in done
                 and self._is_ready(atoms[i], i, bound, produced_by)]
        if not ready:
            unresolved = [atoms[i].describe() for i in range(len(atoms)) if i not in done]
            raise PlanningError("cannot order sub-queries: unresolved dependencies in "
                                + "; ".join(unresolved))
        return ready

    def _dp_steps(self, atoms, produced_by, options, estimate) -> list[PlanStep]:
        """Cost-based enumeration: DP over atom subsets."""
        # State: subset of planned atom indices -> (cost, card, steps, bound).
        by_size: dict[int, dict[frozenset, tuple]] = defaultdict(dict)
        by_size[0][frozenset()] = (0.0, 1.0, (), frozenset())

        for size in range(len(atoms)):
            if not by_size[size]:
                break
            for key, (cost, card, steps, bound_now) in by_size[size].items():
                bound_set = set(bound_now)
                ready = self._ready(atoms, key, bound_set, produced_by)
                # Deterministic tie-break: equal-cost plans fall back to the
                # paper's preference (connected, then selective, then body order).
                ready.sort(key=lambda i: (
                    0 if (not bound_set or atoms[i].variables() & bound_set) else 1,
                    estimate(i, bound_now), i))
                for i in ready:
                    step, new_card = self._cost_step(
                        atoms[i], bound_set, not key, card, options, estimate, i,
                        bound_now)
                    new_bound = bound_now | frozenset(atoms[i].output_variables())
                    if atoms[i].source_variable is not None:
                        new_bound |= {atoms[i].source_variable}
                    next_key = key | {i}
                    current = by_size[size + 1].get(next_key)
                    candidate = (cost + step.cost, new_card, steps + (step,), new_bound)
                    # States are created in preference order, so a later
                    # candidate must be clearly (>1%) cheaper to displace
                    # one — near-ties keep the selective-first order.
                    if current is None or candidate[0] < current[0] * 0.99 - 1e-12:
                        by_size[size + 1][next_key] = candidate
        final = by_size[len(atoms)].get(frozenset(range(len(atoms))))
        assert final is not None
        return list(final[2])

    def _myopic_steps(self, atoms, produced_by, options,
                      estimate) -> list[PlanStep]:
        """One step at a time: the cheapest ready atom for a cost-based plan
        too large for the DP, the first ready one in body order for the
        reference plan."""
        planned: set[int] = set()
        bound: set[str] = set()
        cardinality = 1.0
        steps: list[PlanStep] = []
        while len(planned) < len(atoms):
            ready = self._ready(atoms, planned, bound, produced_by)
            bound_now = frozenset(bound)
            priced = []
            for i in ready if options.cost_based else ready[:1]:
                step, new_card = self._cost_step(atoms[i], bound, not planned,
                                                 cardinality, options, estimate, i,
                                                 bound_now)
                connected = 0 if (not bound or atoms[i].variables() & bound) else 1
                priced.append(((step.cost, connected, estimate(i, bound_now), i),
                               step, new_card))
            rank, step, cardinality = min(priced, key=lambda entry: entry[0])
            index = rank[-1]
            steps.append(step)
            planned.add(index)
            bound.update(atoms[index].output_variables())
            if atoms[index].source_variable is not None:
                bound.add(atoms[index].source_variable)
        return steps

    def _cost_step(self, atom: SourceAtom, bound: set[str], first: bool,
                   cardinality: float, options: PlannerOptions, estimate, index: int,
                   bound_now: frozenset) -> tuple[PlanStep, float]:
        """Price one candidate step and return it with the resulting card."""
        sources, dynamic = self._resolve_sources(atom)
        models = [source.cost_kind for source in sources]
        cost_model = self.statistics.cost_model
        est_bound = estimate(index, bound_now)
        est_full = estimate(index, frozenset())
        shares = bool(atom.variables() & bound)
        has_required = bool(atom.required_parameters())

        def joined_card(per_binding: float) -> float:
            """Join size under the containment assumption (System-R style).

            ``est_full / per_binding`` recovers the atom's distinct count
            on the join keys; once the intermediate result carries more
            distinct probe values than that, the join cannot exceed the
            atom's own size (|R||S| / max(dR, dS) with dR ~ |R|).  Atoms
            with required parameters are genuinely parameterised — each
            binding expands by ``per_binding`` — so no cap applies.
            """
            if (has_required or not shares or per_binding <= 0
                    or est_full <= 0 or est_full == float("inf")):
                return cardinality * per_binding
            distinct = est_full / per_binding
            return est_full * cardinality / max(cardinality, distinct)

        def bind_step() -> tuple[float, float, float, int]:
            batch = options.bind_batch_size or auto_batch_size(est_bound, cost_model,
                                                               models)
            cost = cost_model.bind_cost(models, cardinality, est_bound, batch)
            return cost, est_bound, joined_card(est_bound), batch

        def materialize_step() -> tuple[float, float, float, int]:
            cost = cost_model.materialize_cost(models, est_full)
            if shares:
                return cost, est_full, joined_card(est_bound), 0
            return cost, est_full, cardinality * est_full, 0

        if first:
            mode, (cost, est, new_card, batch) = "materialize", materialize_step()
        elif has_required or dynamic:
            mode, (cost, est, new_card, batch) = "bind", bind_step()
        elif options.cost_based and shares:
            bind_priced = bind_step()
            mat_priced = materialize_step()
            if mat_priced[0] < cost_model.mode_switch_margin * bind_priced[0]:
                mode, (cost, est, new_card, batch) = "materialize", mat_priced
            else:
                mode, (cost, est, new_card, batch) = "bind", bind_priced
        else:
            mode, (cost, est, new_card, batch) = "materialize", materialize_step()

        step = PlanStep(atom=atom, mode=mode,
                        sources=tuple(source.uri for source in sources),
                        dynamic=dynamic, estimate=est, batch_size=batch, cost=cost,
                        result_estimate=new_card,
                        bound_variables=frozenset(bound))
        return step, new_card

    # ------------------------------------------------------------------
    def _is_ready(self, atom: SourceAtom, index: int, bound: set[str],
                  produced_by: dict[str, set[int]]) -> bool:
        for variable in atom.required_parameters():
            if variable in bound:
                continue
            producers = produced_by.get(variable, set()) - {index}
            if variable == atom.source_variable and not producers:
                # Free source variable: the atom runs on every accepting
                # source, no dependency (paper: "evaluated on every data
                # source of the mixed instance that accepts it").
                continue
            if producers:
                return False
            raise PlanningError(
                f"variable {variable!r} required by {atom.name!r} is never produced "
                "by any other sub-query"
            )
        return True

    def _resolve_sources(self, atom: SourceAtom) -> tuple[list[DataSource], bool]:
        if atom.is_glue():
            return [self._glue], False
        if atom.source is not None:
            source = self._sources.get(atom.source)
            if source is None:
                raise PlanningError(f"atom {atom.name!r} targets unknown source {atom.source!r}")
            if not source.accepts(atom.query):
                raise PlanningError(
                    f"source {atom.source!r} ({source.model}) cannot evaluate the "
                    f"{type(atom.query).__name__} of atom {atom.name!r}"
                )
            return [source], False
        # Dynamic source: resolved at run time; candidates are every
        # accepting source (used for estimation and free-variable dispatch).
        candidates = [s for s in self._sources.values() if s.accepts(atom.query)]
        return candidates, True

    def _bound_formals(self, atom: SourceAtom, bound: set[str]) -> set[str]:
        bound_formals = {formal for formal in atom.query.output_variables()
                         if atom.renames.get(formal, formal) in bound}
        bound_formals.update(atom.constants)
        return bound_formals

    def _stat_estimate(self, atom: SourceAtom, bound: set[str]) -> float:
        """Digest-backed estimate through the statistics layer."""
        sources, dynamic = self._resolve_sources(atom)
        if not sources:
            return float("inf")
        bound_formals = self._bound_formals(atom, bound)
        estimates = [self.statistics.estimate(source, atom.query, bound_formals,
                                              atom.constants)
                     for source in sources]
        return sum(estimates) if dynamic else min(estimates)

    def _group_stages(self, steps: list[PlanStep], options: PlannerOptions) -> list[list[int]]:
        stages: list[list[int]] = []
        current: list[int] = []
        for index, step in enumerate(steps):
            if step.mode == "materialize" and options.cost_based:
                current.append(index)
                continue
            if current:
                stages.append(current)
                current = []
            stages.append([index])
        if current:
            stages.append(current)
        return stages
