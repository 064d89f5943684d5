"""RDFS entailment: computing the saturation G∞ of an RDF graph.

The paper answers BGP queries against the *saturation* of the custom graph
(all explicit plus derivable implicit triples).  We implement the standard
RDFS entailment rules the paper cites:

==========  ================================================================
rule        derivation
==========  ================================================================
rdfs2       ``p rdfs:domain c`` and ``s p o``        ⇒ ``s rdf:type c``
rdfs3       ``p rdfs:range c`` and ``s p o``         ⇒ ``o rdf:type c``
rdfs5       ``p rdfs:subPropertyOf q`` and ``q rdfs:subPropertyOf r``
            ⇒ ``p rdfs:subPropertyOf r``
rdfs7       ``p rdfs:subPropertyOf q`` and ``s p o`` ⇒ ``s q o``
rdfs9       ``c rdfs:subClassOf d`` and ``s rdf:type c`` ⇒ ``s rdf:type d``
rdfs11      ``c rdfs:subClassOf d`` and ``d rdfs:subClassOf e``
            ⇒ ``c rdfs:subClassOf e``
==========  ================================================================

Saturation is computed by a semi-naive fixpoint: only the triples derived
at the previous round are re-examined at the next one, so the cost is
proportional to the number of derived triples rather than to the square of
the graph size.  Each round is one write batch of G∞ — one version and
one journal record — so what a delta derives, ΔG∞, is a short record
chain of G∞'s own journal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.rdf.graph import Graph
from repro.rdf.schema import RDFSchema
from repro.rdf.terms import (
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASS,
    RDFS_SUBPROPERTY,
    Literal,
    Term,
    Triple,
    TriplePattern,
    Variable,
)


@dataclass
class SaturationStats:
    """Bookkeeping returned together with a saturated graph."""

    explicit_triples: int = 0
    implicit_triples: int = 0
    rounds: int = 0
    rule_applications: dict[str, int] = field(default_factory=dict)

    @property
    def total_triples(self) -> int:
        return self.explicit_triples + self.implicit_triples

    def record(self, rule: str, count: int = 1) -> None:
        """Increment the application counter of ``rule``."""
        if count:
            self.rule_applications[rule] = self.rule_applications.get(rule, 0) + count


def saturate(graph: Graph, schema: RDFSchema | None = None) -> tuple[Graph, SaturationStats]:
    """Return ``(G∞, stats)`` for ``graph``.

    ``schema`` may be provided when the schema triples live outside the
    data graph (e.g. a shared ontology); it is merged with the schema
    statements found in ``graph`` itself.
    """
    stats = SaturationStats(explicit_triples=len(graph))
    saturated = graph.copy(name=f"{graph.name}∞")

    merged_schema = RDFSchema.from_graph(graph)
    if schema is not None:
        _merge_schema(merged_schema, schema)
        saturated.add_all(schema.triples())

    # rdfs5 / rdfs11: close the schema hierarchies first, they are small.
    _close_hierarchy(saturated, merged_schema.subclasses, merged_schema.superclasses,
                     RDFS_SUBCLASS, "rdfs11", stats)
    _close_hierarchy(saturated, merged_schema.subproperties, merged_schema.superproperties,
                     RDFS_SUBPROPERTY, "rdfs5", stats)
    # Re-extract so that the closures below see the transitive edges.
    merged_schema = RDFSchema.from_graph(saturated)

    frontier: list[Triple] = list(saturated)
    rounds = 0
    while frontier:
        rounds += 1
        derived: list[Triple] = []
        for t in frontier:
            derived.extend(_apply_instance_rules(t, merged_schema, stats))
        frontier = saturated.add_batch(derived)
    stats.rounds = rounds
    stats.implicit_triples = len(saturated) - stats.explicit_triples
    return saturated, stats


def saturate_delta(saturated: Graph, new_triples: Iterable[Triple],
                   schema: RDFSchema | None = None) -> SaturationStats:
    """Bring a saturation up to date after adding ``new_triples``.

    ``saturated`` must be a graph closed under the RDFS rules (the
    output of :func:`saturate`, or of earlier :func:`saturate_delta`
    calls); it is mutated **in place** so that afterwards it equals
    ``saturate(G ∪ Δ)`` — without copying or re-deriving anything from
    the unchanged part of the graph.  The semi-naive fixpoint starts
    from the *delta frontier* only: triples of ``Δ`` already present in
    G∞ cannot change the closure and are skipped outright.

    Schema statements in the delta are handled incrementally too: a new
    ``rdfs:subPropertyOf`` / ``rdfs:subClassOf`` / ``rdfs:domain`` /
    ``rdfs:range`` edge re-examines exactly the existing triples it
    activates (found through the graph's permutation indexes), not the
    whole graph.  Removals are **not** supported — callers must fall
    back to a full :func:`saturate` after deleting triples.

    ``schema`` may be the schema extracted from ``saturated`` (it is
    updated in place with statements discovered in the delta, so the
    same object can be threaded through successive deltas); when
    omitted it is re-extracted from the graph.
    """
    if schema is None:
        schema = RDFSchema.from_graph(saturated)
    stats = SaturationStats()
    frontier = saturated.add_batch(new_triples)
    stats.explicit_triples = len(saturated)
    rounds = 0
    while frontier:
        rounds += 1
        derived: list[Triple] = []
        for t in frontier:
            schema.observe(t)
        for t in frontier:
            derived.extend(_apply_instance_rules(t, schema, stats))
            derived.extend(_apply_schema_activations(t, saturated, stats))
        frontier = saturated.add_batch(derived)
    stats.rounds = rounds
    stats.implicit_triples = len(saturated) - stats.explicit_triples
    return stats


def implicit_triples(graph: Graph, schema: RDFSchema | None = None) -> set[Triple]:
    """Return only the implicit triples of ``graph`` (G∞ minus G)."""
    saturated, _ = saturate(graph, schema)
    return {t for t in saturated if t not in graph}


def _apply_instance_rules(t: Triple, schema: RDFSchema, stats: SaturationStats) -> Iterable[Triple]:
    """Yield the triples directly derivable from ``t`` under ``schema``."""
    out: list[Triple] = []
    # rdfs7: propagate along super-properties.
    superproperties = schema.superproperties(t.predicate)
    for parent in superproperties:
        out.append(Triple(t.subject, parent, t.obj))
    stats.record("rdfs7", len(superproperties))

    # rdfs2 / rdfs3: typing from domain and range, for the predicate and
    # every super-property (the closure above will re-derive types anyway,
    # doing it here shortens the fixpoint).
    predicates = {t.predicate} | superproperties
    domain_types: set[Term] = set()
    range_types: set[Term] = set()
    for predicate in predicates:
        domain_types.update(schema.domains.get(predicate, ()))
        range_types.update(schema.ranges.get(predicate, ()))
    for rdf_class in domain_types:
        out.append(Triple(t.subject, RDF_TYPE, rdf_class))
    stats.record("rdfs2", len(domain_types))
    if not isinstance(t.obj, Literal):
        for rdf_class in range_types:
            out.append(Triple(t.obj, RDF_TYPE, rdf_class))
        stats.record("rdfs3", len(range_types))

    # rdfs9: propagate rdf:type along the subclass hierarchy.
    if t.predicate == RDF_TYPE:
        superclasses = schema.superclasses(t.obj)
        for parent in superclasses:
            out.append(Triple(t.subject, RDF_TYPE, parent))
        stats.record("rdfs9", len(superclasses))
    return out


#: Fresh pattern variables for the delta activations (never user-visible).
_DELTA_S = Variable("__delta_s__")
_DELTA_O = Variable("__delta_o__")


def _apply_schema_activations(t: Triple, graph: Graph,
                              stats: SaturationStats) -> list[Triple]:
    """Derivations a *new schema triple* ``t`` activates over ``graph``.

    The full fixpoint pairs every schema edge with every instance triple
    up front; when an edge arrives incrementally, only its own joins are
    missing — both transitivity directions against the existing
    hierarchy, and the rule body over the triples it governs.
    """
    out: list[Triple] = []
    if t.predicate == RDFS_SUBPROPERTY:
        child, parent = t.subject, t.obj
        grandparents = graph.objects(subject=parent, predicate=RDFS_SUBPROPERTY)
        out.extend(Triple(child, RDFS_SUBPROPERTY, gp) for gp in grandparents)
        grandchildren = graph.subjects(predicate=RDFS_SUBPROPERTY, obj=child)
        out.extend(Triple(gc, RDFS_SUBPROPERTY, parent) for gc in grandchildren)
        stats.record("rdfs5", len(grandparents) + len(grandchildren))
        uses = list(graph.match(TriplePattern(_DELTA_S, child, _DELTA_O)))
        out.extend(Triple(u.subject, parent, u.obj) for u in uses)
        stats.record("rdfs7", len(uses))
    elif t.predicate == RDFS_SUBCLASS:
        child, parent = t.subject, t.obj
        grandparents = graph.objects(subject=parent, predicate=RDFS_SUBCLASS)
        out.extend(Triple(child, RDFS_SUBCLASS, gp) for gp in grandparents)
        grandchildren = graph.subjects(predicate=RDFS_SUBCLASS, obj=child)
        out.extend(Triple(gc, RDFS_SUBCLASS, parent) for gc in grandchildren)
        stats.record("rdfs11", len(grandparents) + len(grandchildren))
        instances = graph.subjects(predicate=RDF_TYPE, obj=child)
        out.extend(Triple(i, RDF_TYPE, parent) for i in instances)
        stats.record("rdfs9", len(instances))
    elif t.predicate == RDFS_DOMAIN:
        uses = list(graph.match(TriplePattern(_DELTA_S, t.subject, _DELTA_O)))
        out.extend(Triple(u.subject, RDF_TYPE, t.obj) for u in uses)
        stats.record("rdfs2", len(uses))
    elif t.predicate == RDFS_RANGE:
        typed = [u for u in graph.match(TriplePattern(_DELTA_S, t.subject, _DELTA_O))
                 if not isinstance(u.obj, Literal)]
        out.extend(Triple(u.obj, RDF_TYPE, t.obj) for u in typed)
        stats.record("rdfs3", len(typed))
    return out


def _close_hierarchy(graph: Graph, edges: dict[Term, set[Term]], closure, predicate,
                     rule: str, stats: SaturationStats) -> None:
    """Add the transitive ``closure`` of ``edges`` to ``graph`` as ``predicate``
    triples, in one batch."""
    stats.record(rule, graph.add_all(
        Triple(child, predicate, parent) for child in list(edges) for parent in closure(child)))


def _merge_schema(target: RDFSchema, extra: RDFSchema) -> None:
    for child, parents in extra.subclasses.items():
        target.subclasses[child].update(parents)
    for child, parents in extra.subproperties.items():
        target.subproperties[child].update(parents)
    for prop, classes in extra.domains.items():
        target.domains[prop].update(classes)
    for prop, classes in extra.ranges.items():
        target.ranges[prop].update(classes)
