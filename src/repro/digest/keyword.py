"""Keyword-based querying over a mixed instance.

Given search keywords (e.g. ``"head of state"`` and ``"SIA2016"``), the
engine (paper §2.2):

1. looks the keywords up in the value-set representations of the source
   digests (and in position/schema names),
2. identifies the shortest join paths connecting the keyword hits in the
   combined digest graph (following the approach of Le et al. [9]), where
   cross-source join-candidate edges come from value-set overlap probing,
3. generates one Conjunctive Mixed Query per retained join path, and
4. evaluates the most promising generated queries over the instance.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, TYPE_CHECKING

from repro.core.cmq import ConjunctiveMixedQuery, SourceAtom
from repro.core.results import MixedResult
from repro.digest.graph import DigestCatalog, DigestNode, refresh_catalog, safe_name
from repro.errors import KeywordSearchError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import MixedInstance

#: Digest hits kept per keyword, best first.
MAX_HITS_PER_KEYWORD = 5
#: Ranked candidates evaluated at most when the cheapest come back empty.
MAX_EVALUATED_CANDIDATES = 12


@dataclass
class KeywordHit:
    """One digest node matching one keyword."""

    keyword: str
    node: DigestNode
    matched_values: list[str] = field(default_factory=list)
    #: The keyword matched the position's name only, none of its values.
    name_only: bool = False

    @property
    def value(self) -> object:
        """The first stored value the keyword matched, or the keyword."""
        return self.matched_values[0] if self.matched_values else self.keyword

    def describe(self) -> str:
        return f"{self.keyword!r} @ {self.node.source_uri}:{self.node.label()}"


@dataclass
class GeneratedQuery:
    """A candidate CMQ generated from one join path."""

    query: ConjunctiveMixedQuery
    path: list[DigestNode]
    hits: list[KeywordHit]
    cost: float

    def describe(self) -> str:
        steps = " -> ".join(f"{n.source_uri.split('/')[-1]}:{n.label()}" for n in self.path)
        return f"[cost {self.cost:.2f}] {self.query}  via  {steps}"


@dataclass
class KeywordSearchOutcome:
    """Everything the keyword engine produced for one keyword query."""

    keywords: list[str]
    hits: list[KeywordHit]
    candidates: list[GeneratedQuery]
    best: Optional[GeneratedQuery] = None
    result: Optional[MixedResult] = None
    #: Sources without a digest, whose data the keywords were not looked up in.
    undigested: list[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"keywords: {self.keywords}",
                 f"digest hits: {len(self.hits)}",
                 f"candidate queries: {len(self.candidates)}"]
        if self.undigested:
            lines.append(f"sources without a digest: {', '.join(self.undigested)}")
        if self.best is not None:
            lines.append(f"best: {self.best.describe()}")
        if self.result is not None:
            lines.append(f"answers: {len(self.result)}")
        return "\n".join(lines)


class KeywordQueryEngine:
    """Generates and evaluates CMQs from keyword queries."""

    def __init__(self, instance: "MixedInstance", catalog: DigestCatalog | None = None):
        self.instance = instance
        self.catalog = catalog if catalog is not None else instance.build_digests()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def search(self, keywords: Sequence[str], max_queries: int = 3,
               evaluate: bool = True, limit: int | None = None) -> KeywordSearchOutcome:
        """Run the full keyword-query pipeline."""
        keywords = [k for k in keywords if k and k.strip()]
        if not keywords:
            raise KeywordSearchError("keyword query needs at least one keyword")
        hits_per_keyword = self.lookup(keywords)
        all_hits = [hit for hits in hits_per_keyword for hit in hits]
        ranked = self.generate_queries(hits_per_keyword, max_queries=None)
        candidates = ranked[:max_queries]
        outcome = KeywordSearchOutcome(keywords=list(keywords), hits=all_hits,
                                       candidates=candidates,
                                       undigested=self.catalog.undigested)
        if evaluate:
            # Walk beyond the displayed top-k when the cheapest join paths
            # all come back empty (frequent in instances where one source
            # offers many cheap same-container paths).
            for candidate in ranked[:max(max_queries, MAX_EVALUATED_CANDIDATES)]:
                try:
                    result = self.instance.execute(candidate.query, limit=limit)
                except ReproError:  # a candidate its sources cannot run is skipped
                    continue
                if outcome.best is None:
                    outcome.best, outcome.result = candidate, result
                if result:
                    outcome.best, outcome.result = candidate, result
                    if candidate not in candidates:
                        outcome.candidates.append(candidate)
                    break
        return outcome

    # ------------------------------------------------------------------
    # Step 1: keyword lookup in the digests
    # ------------------------------------------------------------------
    def lookup(self, keywords: Sequence[str]) -> list[list[KeywordHit]]:
        """Return, per keyword, its matching digest nodes (best first),
        after filing again the digests of the sources that moved since the
        catalog stamped them (:func:`~repro.digest.graph.refresh_catalog`)."""
        refresh_catalog(self.instance, self.catalog)
        hits_per_keyword: list[list[KeywordHit]] = []
        for keyword in keywords:
            nodes = self.catalog.lookup_keyword(keyword)
            hits = []
            for node in nodes:
                values = self.catalog.values_of(node)
                matched = values.matching_values(keyword) if values is not None else []
                name_only = not matched and (values is None or not values.matches_keyword(keyword))
                hits.append(KeywordHit(keyword=keyword, node=node, matched_values=matched,
                                       name_only=name_only))
            hits.sort(key=lambda h: (not h.matched_values, h.node.label()))
            hits_per_keyword.append(hits[:MAX_HITS_PER_KEYWORD])
            if not hits:
                unseen = self.catalog.undigested
                raise KeywordSearchError(
                    f"keyword {keyword!r} matches no digest position"
                    + (f" (sources without a digest: {', '.join(unseen)})" if unseen else ""))
        return hits_per_keyword

    # ------------------------------------------------------------------
    # Step 2 + 3: join paths and query generation
    # ------------------------------------------------------------------
    def generate_queries(self, hits_per_keyword: list[list[KeywordHit]],
                         max_queries: int | None = 3) -> list[GeneratedQuery]:
        """Enumerate join paths between keyword hits and build CMQs."""
        candidates: list[GeneratedQuery] = []
        seen_paths: set[tuple] = set()
        for combination in itertools.product(*hits_per_keyword):
            path, cost = self._connect([hit.node for hit in combination])
            if path is None:
                continue
            key = tuple(sorted(str(node) for node in path))
            if key in seen_paths:
                continue
            seen_paths.add(key)
            try:
                query = self._build_query(path, list(combination))
            except KeywordSearchError:
                continue
            if self._provably_empty(query):
                continue
            candidates.append(GeneratedQuery(query=query, path=path,
                                             hits=list(combination), cost=cost))
        candidates.sort(key=lambda c: c.cost)
        if max_queries is None:
            return candidates
        return candidates[:max_queries]

    def _provably_empty(self, query: ConjunctiveMixedQuery) -> bool:
        """True when source statistics prove an atom returns nothing.

        Cheap same-container join paths (frequent in document sources,
        where every dotted path is a digest position) often pair keyword
        constants that never co-occur; the per-path indexes answer that
        conjunction exactly, so such candidates are dropped before they
        are ranked or evaluated.
        """
        for atom in query.atoms:
            if atom.source is None:
                continue
            try:
                source = self.instance.source(atom.source)
            except Exception:  # noqa: BLE001 - unresolvable sources fail later
                continue
            if source.estimate(atom.query) == 0.0:
                return True
        return False

    def _connect(self, nodes: list[DigestNode]) -> tuple[Optional[list[DigestNode]], float]:
        """Connect hit nodes with shortest paths (greedy Steiner heuristic)."""
        if not nodes:
            return None, float("inf")
        if len(nodes) == 1:
            return list(nodes), 0.0
        graph = self.catalog.adjacency()
        for node in nodes:
            if node not in graph:
                return None, float("inf")
        covered: list[DigestNode] = [nodes[0]]
        total_cost = 0.0
        path_nodes: list[DigestNode] = [nodes[0]]
        for target in nodes[1:]:
            best_path = None
            best_cost = float("inf")
            for start in covered:
                cost, path = shortest_path(graph, start, target)
                if cost < best_cost:
                    best_cost, best_path = cost, path
            if best_path is None:
                return None, float("inf")
            total_cost += best_cost
            for node in best_path:
                if node not in path_nodes:
                    path_nodes.append(node)
            covered.append(target)
        return path_nodes, total_cost

    # ------------------------------------------------------------------
    def _build_query(self, path: list[DigestNode], hits: list[KeywordHit]) -> ConjunctiveMixedQuery:
        """Generate a CMQ from the nodes of one join path (a hit on a
        position's name alone constrains no value)."""
        variables = self._assign_variables(path)
        hit_by_node = {hit.node: hit for hit in hits if not hit.name_only}

        atoms: list[SourceAtom] = []
        head: list[str] = []
        by_source: dict[str, list[DigestNode]] = {}
        for node in path:
            by_source.setdefault(node.source_uri, []).append(node)

        for source_uri, nodes in by_source.items():
            name, query, constants = self.instance.source(source_uri).keyword_atom(
                nodes, variables, hit_by_node)
            atom = SourceAtom(name=name, query=query, source=source_uri, constants=constants)
            atoms.append(atom)
            head.extend(v for v in sorted(atom.output_variables()) if v not in head)

        if not atoms:
            raise KeywordSearchError("join path produced no sub-query")
        name = "kw_" + "_".join(safe_name(hit.keyword) for hit in hits)
        return ConjunctiveMixedQuery(name=name, head=tuple(head), atoms=atoms)

    def _assign_variables(self, path: list[DigestNode]) -> dict[DigestNode, str]:
        """One CMQ variable per path node; join-candidate edges share a variable."""
        parent: dict[DigestNode, DigestNode] = {node: node for node in path}

        def find(node: DigestNode) -> DigestNode:
            while parent[node] is not node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        def union(a: DigestNode, b: DigestNode) -> None:
            parent[find(a)] = find(b)

        graph = self.catalog.adjacency()
        for i, left in enumerate(path):
            for right in path[i + 1:]:
                edge = graph[left].get(right)
                if edge is not None and edge.kind == "join-candidate":
                    union(left, right)

        variables: dict[DigestNode, str] = {}
        names: dict[DigestNode, str] = {}
        counter = 0
        for node in path:
            root = find(node)
            if root not in names:
                names[root] = f"v{counter}"
                counter += 1
            variables[node] = names[root]
        return variables


def shortest_path(graph: dict, start: DigestNode,
                  target: DigestNode) -> tuple[float, Optional[list[DigestNode]]]:
    """The cost of the cheapest path ``start`` -> ``target`` over an
    :meth:`~repro.digest.graph.DigestCatalog.adjacency` map and the path
    (``(inf, None)``: none), ties broken as networkx's Dijkstra breaks
    them: neighbours in insertion order, equal costs in push order."""
    done: dict[DigestNode, float] = {}
    seen, paths = {start: 0}, {start: [start]}
    pushes = itertools.count()
    fringe = [(0, next(pushes), start)]
    while fringe:
        cost, _, node = heapq.heappop(fringe)
        if node in done:
            continue
        done[node] = cost
        if node == target:
            return cost, paths[node]
        for neighbour, edge in graph[node].items():
            further = cost + edge.weight
            if neighbour not in done and (neighbour not in seen or further < seen[neighbour]):
                seen[neighbour] = further
                heapq.heappush(fringe, (further, next(pushes), neighbour))
                paths[neighbour] = paths[node] + [neighbour]
    return float("inf"), None
