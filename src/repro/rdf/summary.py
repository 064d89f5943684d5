"""Query-oriented RDF graph summaries (digest support).

The paper builds digests from "RDF summaries [3]" (Cebirić, Goasdoué,
Manolescu, PVLDB 2015).  We implement a property-based structural summary:
resources are grouped into equivalence classes by their set of outgoing
properties (their *property clique*), and the summary graph records one
node per class plus, per property, the edges between classes.  Each
summary node keeps the set of atomic values observed at that position so
the keyword search can look keywords up.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.rdf.graph import Graph
from repro.rdf.terms import RDF_TYPE, Literal, Term, URI

#: Member resources a summary node keeps as samples.
MAX_SAMPLES = 5


@dataclass
class SummaryNode:
    """One equivalence class of resources in the summary."""

    node_id: str
    properties: frozenset[Term]
    classes: set[Term] = field(default_factory=set)
    member_count: int = 0
    sample_members: list[Term] = field(default_factory=list)

    def describe(self) -> str:
        """Human-readable description used in digests and debugging."""
        labels = sorted(_short(c) for c in self.classes) or sorted(
            _short(p) for p in self.properties
        )
        return f"{self.node_id}[{', '.join(labels[:4])}]"


@dataclass
class SummaryEdge:
    """An edge of the summary graph: ``source --property--> target``."""

    source: str
    prop: Term
    target: str
    triple_count: int = 0


class RDFSummary:
    """Structural summary of an RDF graph.

    Attributes
    ----------
    nodes:
        Mapping node id -> :class:`SummaryNode`.
    edges:
        List of :class:`SummaryEdge`.
    values:
        Mapping ``(node_id, property)`` -> set of literal/URI values
        observed in the object position (the digest's value sets).
    """

    def __init__(self, graph_name: str = "graph"):
        self.graph_name = graph_name
        self.nodes: dict[str, SummaryNode] = {}
        self.edges: list[SummaryEdge] = []
        self.values: dict[tuple[str, Term], set[Term]] = defaultdict(set)
        self._node_of_resource: dict[Term, str] = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: Graph) -> "RDFSummary":
        """Build the summary of ``graph``."""
        summary = cls(graph_name=graph.name)
        outgoing: dict[Term, set[Term]] = defaultdict(set)
        classes: dict[Term, set[Term]] = defaultdict(set)
        for t in graph:
            outgoing[t.subject].add(t.predicate)
            if t.predicate == RDF_TYPE:
                classes[t.subject].add(t.obj)

        # Group resources by their outgoing property set.
        by_signature: dict[frozenset[Term], list[Term]] = defaultdict(list)
        for resource, props in outgoing.items():
            by_signature[frozenset(props)].append(resource)

        for index, (signature, members) in enumerate(
            sorted(by_signature.items(), key=lambda kv: -len(kv[1]))
        ):
            node_id = f"{graph.name}#n{index}"
            node = SummaryNode(
                node_id=node_id,
                properties=signature,
                member_count=len(members),
                sample_members=members[:MAX_SAMPLES],
            )
            for member in members:
                node.classes.update(classes.get(member, ()))
                summary._node_of_resource[member] = node_id
            summary.nodes[node_id] = node

        edge_counts: dict[tuple[str, Term, str], int] = defaultdict(int)
        for t in graph:
            source_id = summary._node_of_resource.get(t.subject)
            if source_id is None:
                continue
            target_id = summary._node_of_resource.get(t.obj)
            summary.values[(source_id, t.predicate)].add(t.obj)
            if target_id is not None:
                edge_counts[(source_id, t.predicate, target_id)] += 1
        summary.edges = [
            SummaryEdge(source=s, prop=p, target=o, triple_count=count)
            for (s, p, o), count in sorted(edge_counts.items(), key=lambda kv: str(kv[0]))
        ]
        return summary

    # ------------------------------------------------------------------
    def node_of(self, resource: Term) -> SummaryNode | None:
        """Return the summary node a resource was assigned to."""
        node_id = self._node_of_resource.get(resource)
        return self.nodes.get(node_id) if node_id else None

    def properties(self) -> set[Term]:
        """Every property observed in the summarised graph."""
        out: set[Term] = set()
        for node in self.nodes.values():
            out.update(node.properties)
        return out

    def literal_values(self, prop: Term) -> set[str]:
        """Return the string forms of literal values of ``prop`` anywhere."""
        out: set[str] = set()
        for (_, p), values in self.values.items():
            if p == prop:
                out.update(v.value for v in values if isinstance(v, Literal))
        return out

    def compression_ratio(self, graph: Graph) -> float:
        """Summary nodes per graph resource — lower is more compact."""
        resources = len({t.subject for t in graph})
        if resources == 0:
            return 0.0
        return len(self.nodes) / resources

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RDFSummary(graph={self.graph_name!r}, nodes={len(self.nodes)}, "
            f"edges={len(self.edges)})"
        )


def _short(term: Term) -> str:
    if isinstance(term, URI):
        return term.local_name
    return str(term)
