"""RDF Schema (RDFS) extraction and reasoning helpers.

The paper relies on the four central RDFS properties — ``rdfs:subClassOf``,
``rdfs:subPropertyOf``, ``rdfs:domain`` and ``rdfs:range`` — to derive the
implicit triples of a graph.  :class:`RDFSchema` extracts those statements
from a graph and exposes the transitive closures the entailment engine and
the digests need.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.rdf.graph import Graph
from repro.rdf.terms import (
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASS,
    RDFS_SUBPROPERTY,
    Term,
    Triple,
    TriplePattern,
    URI,
    Variable,
)


class RDFSchema:
    """The schema-level statements of an RDF graph.

    The schema is represented by four dictionaries:

    ``subclasses``
        direct ``rdfs:subClassOf`` edges, child -> set of parents,
    ``subproperties``
        direct ``rdfs:subPropertyOf`` edges, child -> set of parents,
    ``domains`` / ``ranges``
        property -> set of classes typing its subjects / objects.
    """

    def __init__(self) -> None:
        self.subclasses: dict[Term, set[Term]] = defaultdict(set)
        self.subproperties: dict[Term, set[Term]] = defaultdict(set)
        self.domains: dict[Term, set[Term]] = defaultdict(set)
        self.ranges: dict[Term, set[Term]] = defaultdict(set)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "RDFSchema":
        """Extract schema statements from ``graph``.

        Read through the graph's predicate index: only the triples of the
        four RDFS properties are touched, not the whole graph.
        """
        subject, obj = Variable("s"), Variable("o")
        return cls.from_triples(
            t for predicate in (RDFS_SUBCLASS, RDFS_SUBPROPERTY, RDFS_DOMAIN, RDFS_RANGE)
            for t in graph.match(TriplePattern(subject, predicate, obj)))

    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "RDFSchema":
        """Extract schema statements from an iterable of triples."""
        schema = cls()
        for t in triples:
            schema.observe(t)
        return schema

    def observe(self, t: Triple) -> bool:
        """Record ``t`` if it is a schema triple; return True if it was."""
        if t.predicate == RDFS_SUBCLASS:
            self.subclasses[t.subject].add(t.obj)
        elif t.predicate == RDFS_SUBPROPERTY:
            self.subproperties[t.subject].add(t.obj)
        elif t.predicate == RDFS_DOMAIN:
            self.domains[t.subject].add(t.obj)
        elif t.predicate == RDFS_RANGE:
            self.ranges[t.subject].add(t.obj)
        else:
            return False
        return True

    def add_subclass(self, child: URI, parent: URI) -> None:
        """Declare ``child rdfs:subClassOf parent``."""
        self.subclasses[child].add(parent)

    def add_subproperty(self, child: URI, parent: URI) -> None:
        """Declare ``child rdfs:subPropertyOf parent``."""
        self.subproperties[child].add(parent)

    def add_domain(self, prop: URI, rdf_class: URI) -> None:
        """Declare ``prop rdfs:domain rdf_class``."""
        self.domains[prop].add(rdf_class)

    def add_range(self, prop: URI, rdf_class: URI) -> None:
        """Declare ``prop rdfs:range rdf_class``."""
        self.ranges[prop].add(rdf_class)

    # ------------------------------------------------------------------
    # Closures
    # ------------------------------------------------------------------
    def superclasses(self, rdf_class: Term) -> set[Term]:
        """Return every (transitive) superclass of ``rdf_class``."""
        return _transitive(self.subclasses, rdf_class, False)

    def superproperties(self, prop: Term) -> set[Term]:
        """Return every (transitive) superproperty of ``prop``."""
        return _transitive(self.subproperties, prop, False)

    def subclasses_of(self, rdf_class: Term) -> set[Term]:
        """Return ``rdf_class`` and every (transitive) subclass of it."""
        return _transitive(_invert(self.subclasses), rdf_class, True)

    def classes(self) -> set[Term]:
        """Return every class mentioned by the schema."""
        out: set[Term] = set()
        for child, parents in self.subclasses.items():
            out.add(child)
            out.update(parents)
        for classes in self.domains.values():
            out.update(classes)
        for classes in self.ranges.values():
            out.update(classes)
        return out

    def properties(self) -> set[Term]:
        """Return every property mentioned by the schema."""
        out: set[Term] = set()
        for child, parents in self.subproperties.items():
            out.add(child)
            out.update(parents)
        out.update(self.domains.keys())
        out.update(self.ranges.keys())
        return out

    def is_empty(self) -> bool:
        """True when no schema statement has been recorded."""
        return not (self.subclasses or self.subproperties or self.domains or self.ranges)

    def triples(self) -> list[Triple]:
        """Serialise the schema back into RDF triples."""
        out: list[Triple] = []
        for child, parents in self.subclasses.items():
            out.extend(Triple(child, RDFS_SUBCLASS, parent) for parent in parents)
        for child, parents in self.subproperties.items():
            out.extend(Triple(child, RDFS_SUBPROPERTY, parent) for parent in parents)
        for prop, classes in self.domains.items():
            out.extend(Triple(prop, RDFS_DOMAIN, c) for c in classes)
        for prop, classes in self.ranges.items():
            out.extend(Triple(prop, RDFS_RANGE, c) for c in classes)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RDFSchema(classes={len(self.classes())}, "
            f"properties={len(self.properties())})"
        )


def _transitive(edges: dict[Term, set[Term]], start: Term, include_self: bool) -> set[Term]:
    """Breadth-first transitive closure of ``edges`` from ``start``."""
    seen: set[Term] = set()
    frontier = list(edges.get(start, ()))
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(edges.get(node, ()))
    if include_self:
        seen.add(start)
    return seen


def _invert(edges: dict[Term, set[Term]]) -> dict[Term, set[Term]]:
    inverted: dict[Term, set[Term]] = defaultdict(set)
    for child, parents in edges.items():
        for parent in parents:
            inverted[parent].add(child)
    return inverted
