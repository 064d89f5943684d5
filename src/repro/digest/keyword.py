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

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, TYPE_CHECKING

import networkx as nx

from repro.core.cmq import ConjunctiveMixedQuery, GLUE_SOURCE, SourceAtom
from repro.core.results import MixedResult
from repro.core.sources import DataSource
from repro.fulltext.source import FullTextQuery, FullTextSource
from repro.json.source import JSONQuery, JSONSource
from repro.rdf.source import RDFQuery, RDFSource
from repro.relational.source import RelationalSource, SQLQuery
from repro.digest.graph import DigestCatalog, DigestNode
from repro.errors import KeywordSearchError, ReproError
from repro.json.pattern import PatternLeaf, Predicate, TreePattern
from repro.rdf.bgp import BGPQuery
from repro.rdf.terms import Literal, Term, TriplePattern, URI, Variable
from repro.relational.database import Database

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import MixedInstance


@dataclass
class KeywordHit:
    """One digest node matching one keyword."""

    keyword: str
    node: DigestNode
    matched_values: list[str] = field(default_factory=list)

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

    def summary(self) -> str:
        lines = [f"keywords: {self.keywords}",
                 f"digest hits: {len(self.hits)}",
                 f"candidate queries: {len(self.candidates)}"]
        if self.best is not None:
            lines.append(f"best: {self.best.describe()}")
        if self.result is not None:
            lines.append(f"answers: {len(self.result)}")
        return "\n".join(lines)


class KeywordQueryEngine:
    """Generates and evaluates CMQs from keyword queries."""

    def __init__(self, instance: "MixedInstance", catalog: DigestCatalog | None = None,
                 max_hits_per_keyword: int = 5, max_evaluated_candidates: int = 12):
        self.instance = instance
        self.catalog = catalog if catalog is not None else instance.build_digests()
        self.max_hits_per_keyword = max_hits_per_keyword
        self.max_evaluated_candidates = max_evaluated_candidates
        self._graph = self.catalog.to_networkx()

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
                                       candidates=candidates)
        if evaluate:
            # Walk beyond the displayed top-k when the cheapest join paths
            # all come back empty (frequent in instances where one source
            # offers many cheap same-container paths).
            for candidate in ranked[:max(max_queries, self.max_evaluated_candidates)]:
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
        """Return, per keyword, its matching digest nodes (best first)."""
        hits_per_keyword: list[list[KeywordHit]] = []
        for keyword in keywords:
            nodes = self.catalog.lookup_keyword(keyword)
            hits = []
            for node in nodes:
                values = self.catalog.values_of(node)
                matched = values.matching_values(keyword) if values is not None else []
                hits.append(KeywordHit(keyword=keyword, node=node, matched_values=matched))
            hits.sort(key=lambda h: (not h.matched_values, h.node.label()))
            hits_per_keyword.append(hits[: self.max_hits_per_keyword])
            if not hits:
                raise KeywordSearchError(f"keyword {keyword!r} matches no digest position")
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
        graph = self._graph
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
                try:
                    cost, path = nx.single_source_dijkstra(graph, start, target, weight="weight")
                except nx.NetworkXNoPath:
                    continue
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
        """Generate a CMQ from the nodes of one join path."""
        variables = self._assign_variables(path)
        hit_by_node = {hit.node: hit for hit in hits}

        atoms: list[SourceAtom] = []
        head: list[str] = []
        by_source: dict[str, list[DigestNode]] = {}
        for node in path:
            by_source.setdefault(node.source_uri, []).append(node)

        for source_uri, nodes in by_source.items():
            source = self.instance.source(source_uri)
            if isinstance(source, RDFSource):
                atom = self._rdf_atom(source, source_uri, nodes, variables, hit_by_node)
            elif isinstance(source, FullTextSource):
                atom = self._fulltext_atom(source, source_uri, nodes, variables, hit_by_node)
            elif isinstance(source, RelationalSource):
                atom = self._sql_atom(source, source_uri, nodes, variables, hit_by_node)
            elif isinstance(source, JSONSource):
                atom = self._json_atom(source, source_uri, nodes, variables, hit_by_node)
            else:
                raise KeywordSearchError(
                    f"cannot generate a sub-query for source model {source.model!r}"
                )
            atoms.append(atom)
            head.extend(v for v in sorted(atom.output_variables()) if v not in head)

        if not atoms:
            raise KeywordSearchError("join path produced no sub-query")
        name = "kw_" + "_".join(_safe(hit.keyword) for hit in hits)
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

        graph = self._graph
        for i, left in enumerate(path):
            for right in path[i + 1:]:
                data = graph.get_edge_data(left, right)
                if data and data.get("kind") == "join-candidate":
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

    # ------------------------------------------------------------------
    # Per-model atom generation
    # ------------------------------------------------------------------
    def _rdf_atom(self, source: RDFSource, source_uri: str, nodes: list[DigestNode],
                  variables: dict[DigestNode, str],
                  hit_by_node: dict[DigestNode, KeywordHit]) -> SourceAtom:
        graph = source.graph
        predicates = {p.local_name if isinstance(p, URI) else str(p): p
                      for p in graph.predicates()}
        patterns: list[TriplePattern] = []
        output: list[Variable] = []
        for node in nodes:
            prop = predicates.get(node.position)
            if prop is None:
                raise KeywordSearchError(
                    f"property {node.position!r} not found in RDF source {source_uri!r}"
                )
            subject = Variable(f"e_{_safe(node.container)}")
            hit = hit_by_node.get(node)
            if hit is not None:
                term = self._find_rdf_constant(graph, prop, hit.keyword)
                if term is not None:
                    patterns.append(TriplePattern(subject, prop, term))
                    continue
            value_var = Variable(variables[node])
            patterns.append(TriplePattern(subject, prop, value_var))
            if value_var not in output:
                output.append(value_var)
        if not patterns:
            raise KeywordSearchError("RDF join-path segment produced no triple pattern")
        if not output:
            # Every position was constrained to a constant: expose the subject.
            output = [patterns[0].subject] if isinstance(patterns[0].subject, Variable) else []
        bgp = BGPQuery(head=tuple(output), patterns=tuple(patterns), name="qG")
        atom_source = GLUE_SOURCE if source_uri == GLUE_SOURCE else source_uri
        return SourceAtom(name=f"rdf_{_safe(nodes[0].container)}", query=RDFQuery(bgp=bgp),
                          source=atom_source)

    def _fulltext_atom(self, source: FullTextSource, source_uri: str,
                       nodes: list[DigestNode], variables: dict[DigestNode, str],
                       hit_by_node: dict[DigestNode, KeywordHit]) -> SourceAtom:
        clauses: list[str] = []
        constants: dict[str, object] = {}
        fields: dict[str, str] = {}
        for node in nodes:
            hit = hit_by_node.get(node)
            if hit is not None:
                parameter = f"k{len(constants)}"
                constants[parameter] = hit.matched_values[0] if hit.matched_values \
                    else hit.keyword
                clauses.append(f"{node.position}:{{{parameter}}}")
            fields[variables[node]] = node.position
        # Always expose the default text field so journalists see the content.
        if source.store.default_field and source.store.default_field not in fields.values():
            fields[f"txt_{_safe(source.store.name)}"] = source.store.default_field
        query_text = " AND ".join(clauses) if clauses else "*:*"
        query = FullTextQuery.create(query_text, fields, limit=None)
        return SourceAtom(name=f"ft_{_safe(source.store.name)}", query=query,
                          source=source_uri, constants=constants)

    def _json_atom(self, source: JSONSource, source_uri: str,
                   nodes: list[DigestNode], variables: dict[DigestNode, str],
                   hit_by_node: dict[DigestNode, KeywordHit]) -> SourceAtom:
        leaves: list[PatternLeaf] = []
        for node in nodes:
            hit = hit_by_node.get(node)
            predicates: tuple[Predicate, ...] = ()
            if hit is not None:
                value = hit.matched_values[0] if hit.matched_values else hit.keyword
                predicates = (Predicate("=", value),)
            leaves.append(PatternLeaf(path=node.position, variable=variables[node],
                                      predicates=predicates))
        # Always expose the main content path so journalists see the text.
        text_path = source.store.text_path
        if text_path and all(leaf.path != text_path for leaf in leaves):
            leaves.append(PatternLeaf(path=text_path,
                                      variable=f"txt_{_safe(source.store.name)}"))
        pattern = TreePattern(leaves=tuple(leaves))
        return SourceAtom(name=f"json_{_safe(source.store.name)}",
                          query=JSONQuery(pattern=pattern), source=source_uri)

    def _sql_atom(self, source: RelationalSource, source_uri: str,
                  nodes: list[DigestNode], variables: dict[DigestNode, str],
                  hit_by_node: dict[DigestNode, KeywordHit]) -> SourceAtom:
        by_table: dict[str, list[DigestNode]] = {}
        for node in nodes:
            by_table.setdefault(node.container, []).append(node)
        if len(by_table) > 1:
            # Keep the generated SQL simple: restrict to the table holding a
            # keyword hit (or the first one), other tables reached through
            # separate atoms would need FK traversal.
            hit_tables = [t for t, ns in by_table.items() if any(n in hit_by_node for n in ns)]
            table = hit_tables[0] if hit_tables else next(iter(by_table))
            nodes = by_table[table]
        else:
            table = next(iter(by_table))
        select_items = []
        conditions = []
        constants: dict[str, object] = {}
        for node in nodes:
            select_items.append(f"{node.position} AS {variables[node]}")
            hit = hit_by_node.get(node)
            if hit is not None:
                value = hit.matched_values[0] if hit.matched_values else hit.keyword
                # Bound as a value, never pasted into the SQL text; the
                # value's own ``%`` / ``_`` match only themselves.
                escaped = (str(value).replace("\\", "\\\\").replace("%", "\\%")
                           .replace("_", "\\_"))
                parameter = f"k{len(constants)}"
                constants[parameter] = f"%{escaped}%"
                conditions.append(f"{node.position} LIKE {{{parameter}}} ESCAPE '\\'")
        sql = f"SELECT {', '.join(select_items)} FROM {table}"
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        return SourceAtom(name=f"sql_{_safe(table)}", query=SQLQuery(sql=sql),
                          source=source_uri, constants=constants)

    # ------------------------------------------------------------------
    @staticmethod
    def _find_rdf_constant(graph, prop: URI, keyword: str) -> Term | None:
        """Find the concrete RDF term whose display form matches ``keyword``."""
        needle = _squeeze(keyword)
        for triple_ in graph.match(TriplePattern(Variable("s"), prop, Variable("o"))):
            obj = triple_.obj
            display = obj.local_name if isinstance(obj, URI) else (
                obj.value if isinstance(obj, Literal) else str(obj)
            )
            if _squeeze(display) == needle or needle in _squeeze(display):
                return obj
        return None


def _safe(text: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in text.strip().lower()).strip("_") or "x"


def _squeeze(text: str) -> str:
    return "".join(ch for ch in str(text).lower() if ch.isalnum())
