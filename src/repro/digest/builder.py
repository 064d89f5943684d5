"""Building digests from the sources of a mixed instance.

TATOOINE "computes data source digests from the sources": the schema (or a
data-derived structural summary) plus value-set representations per
position.  One builder per data model:

* relational sources: one node per attribute, one edge per key/foreign-key
  constraint, plus same-table edges;
* RDF sources (and the glue graph): nodes derived from the RDF summary
  (one node per property of each property-clique class), reference edges
  following summary edges;
* full-text sources: nodes from the JSON dataguide paths; analysed text
  fields contribute their token sets as values;
* JSON document sources: nodes from the dataguide paths, values from the
  store's per-path indexes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.cmq import GLUE_SOURCE
from repro.core.sources import DataSource
from repro.fulltext.source import FullTextSource
from repro.json.source import JSONSource
from repro.rdf.source import RDFSource
from repro.relational.source import RelationalSource
from repro.digest.dataguide import JSONDataguide
from repro.digest.graph import DigestCatalog, DigestNode, SourceDigest
from repro.digest.valueset import ValueSetSummary
from repro.errors import DigestError
from repro.rdf.summary import RDFSummary
from repro.rdf.terms import Literal, URI

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import MixedInstance


class DigestBuilder:
    """Builds :class:`SourceDigest` objects for wrapped sources."""

    def __init__(self, bloom_bits_per_value: int = 16, histogram_buckets: int = 16,
                 exact_limit: int = 512):
        self.bloom_bits_per_value = bloom_bits_per_value
        self.histogram_buckets = histogram_buckets
        self.exact_limit = exact_limit

    # ------------------------------------------------------------------
    def build(self, source: DataSource) -> SourceDigest:
        """Build the digest of any supported source wrapper."""
        if isinstance(source, RelationalSource):
            return self.build_relational(source)
        if isinstance(source, FullTextSource):
            return self.build_fulltext(source)
        if isinstance(source, JSONSource):
            return self.build_json(source)
        if isinstance(source, RDFSource):
            return self.build_rdf(source)
        raise DigestError(f"cannot build a digest for source model {source.model!r}")

    # ------------------------------------------------------------------
    def build_relational(self, source: RelationalSource) -> SourceDigest:
        """Digest of a relational source: one node per attribute."""
        digest = SourceDigest(source_uri=source.uri, model=source.model)
        nodes_by_column: dict[tuple[str, str], DigestNode] = {}
        for table in source.database.tables():
            table_nodes = []
            for column in table.schema.columns:
                node = DigestNode(source_uri=source.uri, container=table.name,
                                  position=column.name, kind="column")
                summary = self._summary(table.column_values(column.name))
                digest.add_node(node, summary)
                nodes_by_column[(table.name.lower(), column.name.lower())] = node
                table_nodes.append(node)
            for i, left in enumerate(table_nodes):
                for right in table_nodes[i + 1:]:
                    digest.add_edge(left, right, kind="same-container")
        for table in source.database.tables():
            for fk in table.schema.foreign_keys:
                left = nodes_by_column.get((table.name.lower(), fk.column.lower()))
                right = nodes_by_column.get((fk.referenced_table.lower(),
                                             fk.referenced_column.lower()))
                if left is not None and right is not None:
                    digest.add_edge(left, right, kind="foreign-key", weight=0.5)
        digest.metadata["tables"] = source.database.table_names()
        return digest

    # ------------------------------------------------------------------
    def build_rdf(self, source: RDFSource) -> SourceDigest:
        """Digest of an RDF source from its structural summary."""
        digest = SourceDigest(source_uri=source.uri, model=source.model)
        summary = RDFSummary.build(source.graph)
        nodes_by_summary: dict[str, list[DigestNode]] = {}
        for node_id, summary_node in summary.nodes.items():
            container = _container_label(summary_node)
            property_nodes = []
            for prop in sorted(summary_node.properties, key=str):
                values = summary.values.get((node_id, prop), set())
                joinable = [_joinable(v) for v in values]
                aliases = [_alias(v) for v in values if isinstance(v, URI)]
                position = prop.local_name if isinstance(prop, URI) else str(prop)
                node = DigestNode(source_uri=source.uri, container=container,
                                  position=position, kind="rdf-property")
                digest.add_node(node, self._summary(joinable, aliases))
                property_nodes.append(node)
            nodes_by_summary[node_id] = property_nodes
            for i, left in enumerate(property_nodes):
                for right in property_nodes[i + 1:]:
                    digest.add_edge(left, right, kind="same-container")
        for edge in summary.edges:
            for left in nodes_by_summary.get(edge.source, []):
                prop_name = edge.prop.local_name if isinstance(edge.prop, URI) else str(edge.prop)
                if left.position != prop_name:
                    continue
                for right in nodes_by_summary.get(edge.target, []):
                    digest.add_edge(left, right, kind="reference", weight=0.5)
        digest.metadata["summary_nodes"] = len(summary.nodes)
        digest.metadata["triples"] = len(source.graph)
        return digest

    # ------------------------------------------------------------------
    def build_fulltext(self, source: FullTextSource) -> SourceDigest:
        """Digest of a Solr-like source from its JSON dataguide."""
        digest = SourceDigest(source_uri=source.uri, model=source.model)
        store = source.store
        dataguide = JSONDataguide.build(store.documents(), name=store.name)
        container = store.name
        nodes = []
        for path in dataguide.path_names():
            config = store.field_config(path)
            if config is not None and config.field_type == "text":
                # Analysed field: the atomic values are its (unstemmed) tokens,
                # so digest keyword lookups see the same surface forms users type.
                values: list[object] = []
                for text in store.field_values(path):
                    values.extend(store.analyzer.analyze(str(text)).tokens)
            else:
                values = store.field_values(path)
                if not values:
                    values = [v for d in store.documents() for v in _leaf_values(d, path)]
            node = DigestNode(source_uri=source.uri, container=container,
                              position=path, kind="field")
            digest.add_node(node, self._summary(values))
            nodes.append(node)
        for i, left in enumerate(nodes):
            for right in nodes[i + 1:]:
                digest.add_edge(left, right, kind="same-container")
        digest.metadata["dataguide_paths"] = len(dataguide)
        digest.metadata["documents"] = len(store)
        return digest

    # ------------------------------------------------------------------
    def build_json(self, source: JSONSource) -> SourceDigest:
        """Digest of a JSON document source from its dataguide and indexes."""
        digest = SourceDigest(source_uri=source.uri, model=source.model)
        store = source.store
        dataguide = store.dataguide()
        container = store.name
        values_by_path = store.values_by_path()
        nodes = []
        for path in dataguide.path_names():
            node = DigestNode(source_uri=source.uri, container=container,
                              position=path, kind="field")
            digest.add_node(node, self._summary(values_by_path.get(path, [])))
            nodes.append(node)
        for i, left in enumerate(nodes):
            for right in nodes[i + 1:]:
                digest.add_edge(left, right, kind="same-container")
        digest.metadata["dataguide_paths"] = len(dataguide)
        digest.metadata["documents"] = len(store)
        return digest

    # ------------------------------------------------------------------
    def _summary(self, values: list[object],
                 keyword_aliases: list[object] | None = None) -> ValueSetSummary:
        return ValueSetSummary(values, bloom_bits_per_value=self.bloom_bits_per_value,
                               histogram_buckets=self.histogram_buckets,
                               exact_limit=self.exact_limit,
                               keyword_aliases=keyword_aliases)


def build_catalog(instance: "MixedInstance", bloom_bits_per_value: int = 16,
                  histogram_buckets: int = 16, min_overlap: float = 0.05) -> DigestCatalog:
    """Build the digest catalog of a mixed instance.

    Returns a :class:`DigestCatalog` holding one digest per registered
    source plus one for the glue graph, each stamped with its source's
    version, with cross-source join-candidate edges already discovered.
    """
    catalog = DigestCatalog()
    catalog.builder = DigestBuilder(bloom_bits_per_value=bloom_bits_per_value,
                                    histogram_buckets=histogram_buckets)
    catalog.min_overlap = min_overlap
    refresh_catalog(instance, catalog)
    return catalog


def refresh_catalog(instance: "MixedInstance", catalog: DigestCatalog) -> bool:
    """Rebuild each digest of ``catalog`` not stamped with its source's
    current version (read before the build: a racing write leaves it
    stale), then rediscover the join edges; True when any was rebuilt.
    A catalog :func:`build_catalog` did not make is left as it is."""
    builder = catalog.builder
    if builder is None:
        return False
    moved = False
    for source in [instance.glue_source, *instance.sources()]:
        version = source.version()
        digest = catalog.digests.get(source.uri)
        if digest is None or digest.version != version:
            digest = catalog.add(builder.build(source))
            digest.version, moved = version, True
    if moved:
        catalog.discover_join_edges(min_overlap=catalog.min_overlap)
    return moved


def _joinable(term: object) -> object:
    """The value a source wrapper would return at query time for ``term``."""
    if isinstance(term, URI):
        return term.value
    if isinstance(term, Literal):
        return term.to_python()
    return term


def _alias(term: object) -> object:
    """Display form of ``term`` indexed for keyword matching only."""
    if isinstance(term, URI):
        return term.local_name
    if isinstance(term, Literal):
        return term.value
    return term


def _container_label(summary_node) -> str:
    classes = sorted(c.local_name if isinstance(c, URI) else str(c)
                     for c in summary_node.classes)
    if classes:
        return classes[0]
    return summary_node.node_id.split("#", 1)[-1]


def _leaf_values(document, path: str) -> list[object]:
    value = document.get(path)
    if value is None:
        return []
    if isinstance(value, list):
        return list(value)
    return [value]
