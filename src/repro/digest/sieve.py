"""Digest-backed semi-join sieve for batched bind joins.

Before a batch of bindings ships to a source, each binding is probed
against the source digest's value-set summaries (exact sets and Bloom
filters, :mod:`repro.digest.valueset`).  Bloom filters have **no false
negatives**, so a binding is only dropped when the digest *proves* that
no source row can match it — the sieve may let useless bindings through
(false positives) but never loses a true match.

The mapping from sub-query variables to digest positions is deliberately
conservative: a variable is only probed when the digest position is
guaranteed to hold a superset of the values the source could return or
accept for it.  Cases where that cannot be guaranteed (entailment-backed
RDF sources, analysed full-text fields, SQL expressions, missing
digests) disable the probe — or the whole sieve — rather than risk
dropping answers.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.cmq import SourceAtom
from repro.core.sources import (
    DataSource,
    FullTextQuery,
    FullTextSource,
    JSONQuery,
    JSONSource,
    RDFQuery,
    RDFSource,
    RelationalSource,
    Row,
    SourceQuery,
    SQLQuery,
)
from repro.digest.graph import DigestCatalog
from repro.digest.valueset import ValueSetSummary
from repro.rdf.terms import URI, Variable

#: Variable name -> the value summaries its bindings may be probed against.
PositionMap = dict[str, list[ValueSetSummary]]


class DigestSieve:
    """Builds per-atom sieve predicates from a :class:`DigestCatalog`."""

    def __init__(self, catalog: DigestCatalog):
        self.catalog = catalog

    # ------------------------------------------------------------------
    def sieve_for(self, atom: SourceAtom,
                  sources: list[DataSource]) -> Optional[Callable[[Row], bool]]:
        """A predicate keeping only bindings that may match at a source.

        Returns ``None`` when no safe probe exists (no digest, an
        unsieveable source, or simply nothing to check).  With several
        candidate sources (dynamic atoms) a binding survives when *any*
        source might match it.
        """
        per_source: list[PositionMap] = []
        for source in sources:
            position_map = self._positions_for(atom.query, source)
            if position_map is None:
                # One source we cannot reason about makes every binding
                # potentially matchable: the sieve would be vacuous.
                return None
            per_source.append(position_map)
        if not any(per_source):
            return None

        def keep(binding: Row) -> bool:
            formal = atom.formal_bindings(binding)
            return any(_might_match(formal, position_map)
                       for position_map in per_source)

        return keep

    # ------------------------------------------------------------------
    def _positions_for(self, query: SourceQuery,
                       source: DataSource) -> Optional[PositionMap]:
        digest = self.catalog.digests.get(source.uri)
        if digest is None:
            return None
        if isinstance(source, RDFSource) and isinstance(query, RDFQuery):
            if source.entailment:
                # The digest summarises the raw graph; entailment could
                # surface values at properties the digest never saw.
                return None
            return self._rdf_positions(query, digest)
        if isinstance(source, RelationalSource) and isinstance(query, SQLQuery):
            return self._sql_positions(query, digest)
        if isinstance(source, FullTextSource) and isinstance(query, FullTextQuery):
            return self._fulltext_positions(query, source, digest)
        if isinstance(source, JSONSource) and isinstance(query, JSONQuery):
            return self._json_positions(query, digest)
        return None

    def _rdf_positions(self, query: RDFQuery, digest) -> PositionMap:
        # A variable in object position of a constant property must take
        # one of that property's values; digest nodes are keyed by the
        # property's local name (unioned over every summary container).
        position_map: PositionMap = {}
        for pattern in query.bgp.patterns:
            if not isinstance(pattern.predicate, URI):
                continue
            if not isinstance(pattern.obj, Variable):
                continue
            summaries = _summaries_at(digest, pattern.predicate.local_name)
            if summaries:
                position_map.setdefault(pattern.obj.name, []).extend(summaries)
        return position_map

    def _sql_positions(self, query: SQLQuery, digest) -> PositionMap:
        template = query.template
        tables = {t.lower() for t in template.tables}
        position_map: PositionMap = {}
        # Output variables that are plain (possibly aliased) columns.
        for variable, column in template.plain_outputs.items():
            summaries = _summaries_at(digest, column.name, containers=tables)
            if summaries:
                position_map[variable] = summaries
        # Parameters a top-level conjunct compares with a column by equality.
        for variable, column in template.equality_parameters.items():
            summaries = _summaries_at(digest, column.name, containers=tables)
            if summaries:
                position_map.setdefault(variable, []).extend(summaries)
        return position_map

    def _fulltext_positions(self, query: FullTextQuery, source: FullTextSource,
                            digest) -> PositionMap:
        position_map: PositionMap = {}
        for variable, path in query.fields().items():
            if path == "_score":
                continue
            config = source.store.field_config(path)
            if config is None or config.field_type == "text":
                # Analysed fields are digested token-wise; probing a full
                # string against tokens could drop true matches.
                continue
            summaries = _summaries_at(digest, path)
            if summaries:
                position_map[variable] = summaries
        for variable, path in query.template.clause_parameters.items():
            config = source.store.field_config(path)
            if config is None or config.field_type != "keyword":
                continue
            summaries = _summaries_at(digest, path)
            if summaries:
                position_map.setdefault(variable, []).extend(summaries)
        return position_map

    def _json_positions(self, query: JSONQuery, digest) -> PositionMap:
        from repro.json.pattern import Parameter as JSONParameter

        position_map: PositionMap = {}
        for leaf in query.pattern.leaves:
            summaries = _summaries_at(digest, leaf.path)
            if not summaries:
                continue
            if leaf.variable is not None:
                position_map.setdefault(leaf.variable, []).extend(summaries)
            for predicate in leaf.predicates:
                if predicate.op == "=" and isinstance(predicate.value, JSONParameter):
                    position_map.setdefault(predicate.value.name, []).extend(summaries)
        return position_map


def _summaries_at(digest, position: str,
                  containers: set[str] | None = None) -> list[ValueSetSummary]:
    """Every value summary stored at ``position`` (optionally filtered)."""
    summaries = []
    for node in digest.nodes:
        if node.position.lower() != position.lower():
            continue
        if containers and node.container.lower() not in containers:
            continue
        summary = digest.values_of(node)
        if summary is not None:
            summaries.append(summary)
    return summaries


def _might_match(formal: Row, position_map: PositionMap) -> bool:
    """False only when some probed variable is provably absent everywhere."""
    for variable, summaries in position_map.items():
        value = formal.get(variable)
        if value is None or isinstance(value, bool) or not isinstance(value, (str, int, float)):
            continue
        variants = _probe_variants(value)
        if summaries and not any(summary.might_contain(variant)
                                 for summary in summaries
                                 for variant in variants):
            return False
    return True


def _probe_variants(value: object) -> list[object]:
    """Every canonical form a source's ``==`` could accept for ``value``.

    Value summaries normalise through ``str()``, under which ``5`` and
    ``5.0`` differ even though the sources compare them equal — probe
    both spellings so a numeric binding never sieves out a true match.
    """
    variants: list[object] = [value]
    if isinstance(value, float) and value.is_integer():
        variants.append(int(value))
    elif isinstance(value, int):
        variants.append(float(value))
    if isinstance(value, (int, float)) and value in (0, 1):
        # Sources compare 1 == True and 0 == False; digests spell the
        # stored booleans "true"/"false".
        variants.append(bool(value))
    return variants
