"""Digest graphs: the structural + value-set summaries of sources.

The paper views all digests "as directed graphs (e.g., for a relational
database, there is one node per attribute, one edge per key-foreign key
constraint, etc.), and to each node we attach the representation of the
set of data values corresponding to it" (§2.2).

A :class:`SourceDigest` is the digest of one source; a
:class:`DigestCatalog` gathers the digests of one pin of a mixed instance
(every source at one version) plus the *cross-source join edges*
discovered by probing value sets against each other — those edges are
what the keyword engine's shortest join paths traverse to bridge sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.digest.valueset import ValueSetSummary
from repro.errors import DigestError


@dataclass(frozen=True)
class DigestNode:
    """One value position of a source digest.

    ``container`` identifies the record/entity the position belongs to
    (table name, document collection, RDF summary class), ``position`` the
    attribute / field path / property within that container.
    """

    source_uri: str
    container: str
    position: str
    kind: str  # "column" | "field" | "rdf-property" | "rdf-class"

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.source_uri, self.container, self.position)

    def label(self) -> str:
        """Short human-readable label."""
        return f"{self.container}.{self.position}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.source_uri}::{self.container}.{self.position}"


@dataclass(frozen=True)
class DigestEdge:
    """A directed edge of a digest graph."""

    source: DigestNode
    target: DigestNode
    kind: str  # "same-container" | "foreign-key" | "reference" | "join-candidate"
    weight: float = 1.0


@dataclass
class SourceDigest:
    """The digest of one data source."""

    source_uri: str
    model: str
    nodes: list[DigestNode] = field(default_factory=list)
    edges: list[DigestEdge] = field(default_factory=list)
    value_sets: dict[tuple[str, str, str], ValueSetSummary] = field(default_factory=dict)
    metadata: dict[str, object] = field(default_factory=dict)
    #: The source version the digest was built at (None: unknown).
    version: Optional[int] = None

    # ------------------------------------------------------------------
    def add_node(self, node: DigestNode, values: ValueSetSummary | None = None) -> DigestNode:
        """Register a node and (optionally) its value-set summary."""
        self.nodes.append(node)
        if values is not None:
            self.value_sets[node.key] = values
        return node

    def add_edge(self, source: DigestNode, target: DigestNode, kind: str,
                 weight: float = 1.0) -> DigestEdge:
        """Register an intra-source edge."""
        edge = DigestEdge(source=source, target=target, kind=kind, weight=weight)
        self.edges.append(edge)
        return edge

    def link_all(self, nodes: list[DigestNode]) -> None:
        """Join every pair of ``nodes``, the positions of one container."""
        for i, left in enumerate(nodes):
            for right in nodes[i + 1:]:
                self.add_edge(left, right, kind="same-container")

    def node(self, container: str, position: str) -> DigestNode:
        """Return the node for ``container.position``."""
        for candidate in self.nodes:
            if candidate.container == container and candidate.position == position:
                return candidate
        raise DigestError(
            f"digest of {self.source_uri!r} has no node {container}.{position}"
        )

    def values_of(self, node: DigestNode) -> ValueSetSummary | None:
        """Return the value-set summary attached to ``node`` (if any)."""
        return self.value_sets.get(node.key)

    def lookup_keyword(self, keyword: str) -> list[DigestNode]:
        """Nodes whose value set or whose name matches ``keyword``."""
        matches = []
        needle = keyword.strip().lower()
        for node in self.nodes:
            values = self.value_sets.get(node.key)
            if values is not None and values.matches_keyword(keyword):
                matches.append(node)
                continue
            if needle and (needle in node.position.lower() or needle in node.container.lower()):
                matches.append(node)
        return matches

    def size_in_bytes(self) -> int:
        """Approximate memory footprint of all value-set summaries."""
        return sum(summary.stats().bytes_used for summary in self.value_sets.values())

    def __len__(self) -> int:
        return len(self.nodes)


#: Least estimated overlap for two positions of different sources to be
#: join candidates.
MIN_JOIN_OVERLAP = 0.05


class DigestCatalog:
    """The digests of one pin of a mixed instance plus the cross-source
    join edges between them.  Its maps, edges, graph and digests never
    change once built (a later pin's inserts are absorbed into a copy of
    a digest).

    ``digests`` maps each pinned source (the glue graph included) to its
    digest, ``None`` for a source without one (a remote wrapper: its
    peer holds the data).  The join edges are discovered once, here.
    """

    def __init__(self, digests: dict[str, Optional[SourceDigest]]) -> None:
        self.digests = {uri: digest for uri, digest in digests.items() if digest is not None}
        #: Sources without a digest, whose values keyword search does not see.
        self.undigested = [uri for uri, digest in digests.items() if digest is None]
        self.join_edges = self.discover_join_edges()
        self._adjacency = self._graph()

    # ------------------------------------------------------------------
    def digest(self, source_uri: str) -> SourceDigest:
        """Return the digest of ``source_uri``."""
        if source_uri not in self.digests:
            raise DigestError(f"no digest built for source {source_uri!r}")
        return self.digests[source_uri]

    def all_nodes(self) -> Iterator[DigestNode]:
        """Every node of every digest."""
        for digest in self.digests.values():
            yield from digest.nodes

    def values_of(self, node: DigestNode) -> ValueSetSummary | None:
        """Value-set summary of ``node`` wherever it lives."""
        digest = self.digests.get(node.source_uri)
        return digest.values_of(node) if digest else None

    # ------------------------------------------------------------------
    # Cross-source join discovery
    # ------------------------------------------------------------------
    def discover_join_edges(self) -> list[DigestEdge]:
        """Probe value sets across sources for join-candidate edges.

        Two positions from *different* sources are connected when a sample
        of one side's values hits the other side's value summary with
        frequency at least :data:`MIN_JOIN_OVERLAP`.  The edge weight is
        ``1 - overlap`` so that stronger joins yield shorter paths.
        """
        edges = []
        nodes = [(n, v) for n in self.all_nodes() if (v := self.values_of(n)) is not None]
        for i, (left, left_values) in enumerate(nodes):
            for right, right_values in nodes[i + 1:]:
                if left.source_uri == right.source_uri:
                    continue
                overlap = max(left_values.overlap_estimate(right_values),
                              right_values.overlap_estimate(left_values))
                if overlap >= MIN_JOIN_OVERLAP:
                    # Stronger overlap and more identifier-like positions
                    # (many distinct values) make better join keys, hence
                    # shorter path weights.
                    distinct = min(left_values.distinct_values, right_values.distinct_values)
                    weight = max(0.05, 1.0 - overlap) + 1.0 / (1.0 + distinct)
                    edges.append(DigestEdge(source=left, target=right,
                                            kind="join-candidate", weight=weight))
        return edges

    # ------------------------------------------------------------------
    # Graph view
    # ------------------------------------------------------------------
    def _graph(self) -> dict[DigestNode, dict[DigestNode, DigestEdge]]:
        graph: dict[DigestNode, dict[DigestNode, DigestEdge]] = {}
        for digest in self.digests.values():
            for node in digest.nodes:
                graph.setdefault(node, {})
        edges = [edge for digest in self.digests.values() for edge in digest.edges]
        for edge in edges + self.join_edges:
            graph.setdefault(edge.source, {})[edge.target] = edge
            graph.setdefault(edge.target, {})[edge.source] = edge
        return graph

    def adjacency(self) -> dict[DigestNode, dict[DigestNode, DigestEdge]]:
        """The combined (undirected) digest graph for path search: node ->
        neighbour -> the edge joining them, neighbours in edge-insertion
        order (a repeated pair keeps its first position and its last edge)."""
        return self._adjacency

    def lookup_keyword(self, keyword: str) -> list[DigestNode]:
        """Nodes of any digest matching ``keyword``."""
        matches: list[DigestNode] = []
        for digest in self.digests.values():
            matches.extend(digest.lookup_keyword(keyword))
        return matches

    def total_size_in_bytes(self) -> int:
        """Total footprint of every digest's value summaries."""
        return sum(d.size_in_bytes() for d in self.digests.values())

    def __len__(self) -> int:
        return len(self.digests)


def safe_name(text: str) -> str:
    """``text`` as an identifier fragment of a generated query."""
    return "".join(ch if ch.isalnum() else "_" for ch in text.strip().lower()).strip("_") or "x"
