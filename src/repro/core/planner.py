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
:data:`DP_ATOM_LIMIT` atoms).  What follows from the CMQ alone is
derived once per (immutable) CMQ object — its :class:`Layout`, each
variable one bit — and what depends on the catalog and the statistics
once per planning, in one price table: each atom's sources and one
estimate per (atom, bound variables ∩ its variables), from which the
search over bitmask states prices every step.

A bind step that no required parameter or dynamic source forces is
*covering* when its distinct shipped bindings times its per-binding
estimate reach the atom's whole estimate — the containment assumption
the join-size estimate makes too.  Such a join fetches every row
materialising fetches, plus one pushed binding each, so the step is
priced and planned as a materialise step and hash-joined.  Shipped
bindings are distinct values (the batched bind join dedups): per shared
variable, its distinct count among the atoms already joined.  A
covering step that ships a single binding costs the same either way and
keeps its bind.

``PlannerOptions(cost_based=False)`` is the *reference plan* the test
and benchmark oracles evaluate: the same loop picking the first ready
atom in body order, binding only where a required parameter or a
dynamic source forces it, one step per stage.

The planner produces a :class:`QueryPlan`: an ordered list of
:class:`PlanStep` objects, each carrying the atom, the URI(s) of its
resolved source(s), its estimated cardinality, its modelled cost and its execution mode —
``materialize`` (fetch the whole sub-query result) or ``bind`` (dependent
evaluation, shipping the current bindings to the source, i.e. a bind
join).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.cache.plans import PlanCache, plan_cache_key
from repro.core.cmq import ConjunctiveMixedQuery, SourceAtom
from repro.core.sources import DataSource
from repro.errors import PlanningError
from repro.obs.spans import span as _span
from repro.stats.catalog import StatisticsCatalog
from repro.stats.cost import MODE_SWITCH_MARGIN


@dataclass(frozen=True)
class PlannerOptions:
    """How a CMQ is planned and executed (immutable: derive variants with
    ``dataclasses.replace``).

    Tracing is not an option: an execution is traced when it runs inside
    an open trace (:func:`repro.obs.spans.trace`, a served query's root).
    """

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


#: Atom count above which the DP enumerator gives way to the myopic loop.
DP_ATOM_LIMIT = 10

_INF = float("inf")

#: Estimate-vs-actual q-error (max of the two ratios) of a step in a
#: non-final stage past which the executor retires the plan at the end
#: of the query: the next asking replans from the recorded feedback.
REPLAN_THRESHOLD = 4.0


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
            resolved = [self._resolve_sources(atom) for atom in query.atoms]
            cache_key = self._cache_key(query, options, resolved)
            if cache_key is not None:
                hit = self._plan_cache.get(cache_key)
                if hit is not None:
                    if sp is not None:
                        sp.set(cached=True)
                    return self._rebind(hit, query, options)
            plan, indices = self._build_plan(query, options, resolved)
            if cache_key is not None:
                # Remember which body atom each step executes so a hit can be
                # rebound to a renaming-equivalent query's own atoms.
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

    def _cache_key(self, query: ConjunctiveMixedQuery, options: PlannerOptions,
                   resolved: Optional[list] = None) -> Optional[tuple]:
        if self._plan_cache is None or not options.plan_cache:
            return None
        revision = self._statistics.revision if self._statistics is not None else 0
        reached = {source.uri: source for atom, (sources, _) in
                   zip(query.atoms, resolved or map(self._resolve_sources, query.atoms))
                   if not atom.is_glue() for source in sources}
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
        if plan.query is query:  # it shares the (never mutated) steps
            steps = list(plan.steps)
        else:
            layout, bound, steps = query.layout, 0, []
            for step, index in zip(plan.steps, indices):
                # bound_variables must carry the *requesting* query's names
                # (the renaming differs), or feedback recorded from this
                # plan would key on the cached query's variables.
                steps.append(replace(step, atom=layout.atoms[index],
                                     bound_variables=layout.names(bound)))
                bound |= layout.out[index]
        return QueryPlan(query=query, steps=steps,
                         stages=[list(stage) for stage in plan.stages],
                         options=options, cached=True, total_cost=plan.total_cost)

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def _build_plan(self, query: ConjunctiveMixedQuery, options: PlannerOptions,
                    resolved: list[tuple[list[DataSource], bool]]
                    ) -> tuple[QueryPlan, list[int]]:
        """The plan of ``query`` (its atoms' ``resolved`` sources) and the
        body index of each of its steps."""
        layout = query.layout
        price = _Prices(self.statistics, layout, resolved, options)
        if options.cost_based and len(layout.atoms) <= DP_ATOM_LIMIT:
            chain = self._dp_steps(layout, price)
        else:
            chain = self._myopic_steps(layout, options, price)
        steps = [PlanStep(atom=layout.atoms[i], mode=mode, sources=price.uris[i],
                          dynamic=price.dynamic[i], estimate=estimate, batch_size=batch,
                          cost=cost, result_estimate=card,
                          bound_variables=layout.names(bound))
                 for i, bound, (cost, card, mode, estimate, batch) in chain]
        plan = QueryPlan(query=query, steps=steps, stages=self._group_stages(steps, options),
                         options=options, total_cost=sum(step.cost for step in steps))
        return plan, [i for i, _, _ in chain]

    @staticmethod
    def _ready(layout: "Layout", done: int, bound: int) -> list[int]:
        """Indices of the atoms not in ``done`` that can run given ``bound``."""
        ready = [i for i, needs in enumerate(layout.needs)
                 if not done >> i & 1 and not needs & ~bound]
        if not ready:
            unresolved = [atom.describe() for i, atom in enumerate(layout.atoms)
                          if not done >> i & 1]
            raise PlanningError("cannot order sub-queries: unresolved dependencies in "
                                + "; ".join(unresolved))
        return ready

    def _dp_steps(self, layout: "Layout", price: "_Prices") -> list[tuple]:
        """Cost-based enumeration: DP over atom subsets.

        A state maps a bitmask of planned atoms to ``(cost, cardinality,
        steps, bound variables)``; a step is ``(index, bound, priced)``.
        """
        states: dict[int, tuple] = {0: (0.0, 1.0, (), 0)}
        for _ in layout.atoms:
            following: dict[int, tuple] = {}
            for done, (cost, card, steps, bound) in states.items():
                ready = self._ready(layout, done, bound)
                if len(ready) > 1:
                    # Deterministic tie-break: equal-cost plans fall back to the
                    # paper's preference (connected, then selective, then body order).
                    ready.sort(key=lambda i: (0 if not bound or bound & layout.vars[i] else 1,
                                              price.estimate(i, bound), i))
                for i in ready:
                    priced = price(i, bound, card, done)
                    key = done | 1 << i
                    current = following.get(key)
                    total = cost + priced[0]
                    # States are created in preference order, so a later
                    # candidate must be clearly (>1%) cheaper to displace
                    # one — near-ties keep the selective-first order.
                    if current is None or total < current[0] * 0.99 - 1e-12:
                        following[key] = (total, priced[1], steps + ((i, bound, priced),),
                                          bound | layout.out[i])
            states = following
        return list(states[(1 << len(layout.atoms)) - 1][2])

    def _myopic_steps(self, layout: "Layout", options: PlannerOptions,
                      price: "_Prices") -> list[tuple]:
        """One step at a time: the cheapest ready atom for a cost-based plan
        too large for the DP, the first ready one in body order for the
        reference plan."""
        done = bound = 0
        card = 1.0
        steps = []
        for _ in layout.atoms:
            ready = self._ready(layout, done, bound)
            ranked = []
            for i in ready if options.cost_based else ready[:1]:
                priced = price(i, bound, card, done)
                connected = 0 if not bound or bound & layout.vars[i] else 1
                ranked.append(((priced[0], connected, price.estimate(i, bound), i), priced))
            rank, priced = min(ranked, key=lambda entry: entry[0])
            i = rank[-1]
            steps.append((i, bound, priced))
            done |= 1 << i
            bound |= layout.out[i]
            card = priced[1]
        return steps

    # ------------------------------------------------------------------
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

    @staticmethod
    def _group_stages(steps: list[PlanStep], options: PlannerOptions) -> list[list[int]]:
        """A run of materialize steps of a cost-based plan is one stage;
        every other step is a stage of its own."""
        stages: list[list[int]] = []
        run = None
        for index, step in enumerate(steps):
            if not (options.cost_based and step.mode == "materialize"):
                run = None
                stages.append([index])
            elif run is None:
                run = [index]
                stages.append(run)
            else:
                run.append(index)
        return stages


class Layout:
    """The planner's view of a CMQ body, derived once per (immutable) CMQ
    object as ``query.layout``.

    Each variable is one bit.  Per atom: the variables it mentions
    (``vars``), binds when it runs — outputs and source variable —
    (``out``) and needs another atom to bind first (``needs``; a free
    source variable is none of them: the atom is "evaluated on every data
    source of the mixed instance that accepts it"), whether it has
    required parameters, and ``(formal, bit)`` per output formal.
    """

    def __init__(self, query: ConjunctiveMixedQuery):
        atoms = self.atoms = query.atoms
        bits = self.bits = {name: 1 << k for k, name in enumerate(
            dict.fromkeys(v for atom in atoms for v in atom.variables()))}
        self.vars = [sum(bits[v] for v in atom.variables()) for atom in atoms]
        self.out = [sum(bits[v] for v in atom.output_variables())
                    | bits.get(atom.source_variable, 0) for atom in atoms]
        self.required = [bool(atom.required_parameters()) for atom in atoms]
        self.needs = []
        for index, atom in enumerate(atoms):
            needs = 0
            for variable in atom.required_parameters():
                if any(variable in other.output_variables()
                       for j, other in enumerate(atoms) if j != index):
                    needs |= bits[variable]
                elif variable != atom.source_variable:
                    raise PlanningError(
                        f"variable {variable!r} required by {atom.name!r} is never "
                        "produced by any other sub-query")
            self.needs.append(needs)
        self.formals = [[(formal, bits[atom.renames.get(formal, formal)])
                         for formal in atom.query.output_variables()
                         if formal not in atom.constants] for atom in atoms]

    def names(self, mask: int) -> frozenset[str]:
        """The variables of a bitmask."""
        return frozenset(name for name, bit in self.bits.items() if mask & bit)


class _Prices:
    """The price table of one planning: each atom's resolved sources and
    cost kinds, each (atom, bound variables ∩ its variables) estimated
    once, and every candidate step priced from them."""

    def __init__(self, statistics: StatisticsCatalog, layout: Layout,
                 resolved: list[tuple[list[DataSource], bool]], options: PlannerOptions):
        self.statistics = statistics
        self.cost_model = statistics.cost_model
        self.layout = layout
        self.batch_size, self.cost_based = options.bind_batch_size, options.cost_based
        self.sources, self.dynamic = zip(*resolved)
        self.uris = [tuple(source.uri for source in sources) for sources in self.sources]
        self.models = [[source.cost_kind for source in sources] for sources in self.sources]
        #: ``(index, bound ∩ vars)`` -> estimated rows (per binding when bound).
        self.table: dict[tuple[int, int], float] = {}
        self.full = [self.estimate(i, 0) for i in range(len(resolved))]
        self.materialize = [self.cost_model.materialize_cost(models, full)
                            for models, full in zip(self.models, self.full)]

    def estimate(self, i: int, bound: int) -> float:
        """Digest-backed rows per binding of atom ``i`` under ``bound``."""
        key = (i, bound & self.layout.vars[i])
        estimate = self.table.get(key)
        if estimate is None:
            atom = self.layout.atoms[i]
            formals = {formal for formal, bit in self.layout.formals[i] if key[1] & bit}
            formals.update(atom.constants)
            estimates = [self.statistics.estimate(source, atom.query, formals,
                                                  atom.constants)
                         for source in self.sources[i]]
            estimate = self.table[key] = (
                _INF if not estimates else
                sum(estimates) if self.dynamic[i] else min(estimates))
        return estimate

    def shipped(self, shares: int, card: float, done: int) -> float:
        """Distinct bindings a bind join on the ``shares`` variables ships
        after ``card`` rows of the atoms in ``done``: the batched bind join
        dedups, so at most the product over those variables of each one's
        distinct count among the joined atoms (``full_j / estimate(j, v)``,
        capped at ``full_j``)."""
        distinct = 1.0
        while shares:
            bit = shares & -shares
            shares ^= bit
            distinct *= min(self.full[j] / max(1.0, self.estimate(j, bit))
                            for j, out in enumerate(self.layout.out)
                            if done >> j & 1 and out & bit)
        return min(card, distinct)

    def __call__(self, i: int, bound: int, card: float, done: int) -> tuple:
        """Price atom ``i`` run after ``card`` rows of the atoms in ``done``
        with ``bound`` bound: ``(cost, cardinality after it, mode,
        estimate, batch size)``."""
        shares = bound & self.layout.vars[i]
        estimate = self.table.get((i, shares))
        if estimate is None:
            estimate = self.estimate(i, bound)
        full, materialize = self.full[i], self.materialize[i]
        required = self.layout.required[i]
        # Join size under the containment assumption (System-R style):
        # ``full / estimate`` recovers the atom's distinct count on the
        # join keys; once the intermediate result carries more distinct
        # probe values than that, the join cannot exceed the atom's own
        # size (|R||S| / max(dR, dS) with dR ~ |R|).  Atoms with required
        # parameters are genuinely parameterised — each binding expands
        # by ``estimate`` — so no cap applies.
        if required or not shares or estimate <= 0 or full <= 0 or full == _INF:
            joined = card * estimate
        else:
            joined = full * card / max(card, full / estimate)
        forced = required or self.dynamic[i]
        if not done or not (forced or self.cost_based and shares):
            return materialize, joined if shares else card * full, "materialize", full, 0
        if not forced:
            # A covering step (see the module docstring) is materialised;
            # one shipped binding keeps the bind, and an atom of unknown
            # size (a dark source) covers nothing.
            shipped = self.shipped(shares, card, done)
            if shipped > 1 and full < _INF and shipped * estimate >= full:
                return materialize, joined, "materialize", full, 0
        batch = self.batch_size or self.cost_model.batch_size(estimate, self.models[i])
        bind = (self.cost_model.bind_cost(self.models[i], card, estimate, batch),
                joined, "bind", estimate, batch)
        if not forced and materialize < MODE_SWITCH_MARGIN * bind[0]:
            return materialize, joined, "materialize", full, 0
        return bind
