"""Canonical, variable-renaming-invariant cache keys for sub-queries.

Two sub-queries that differ only in the *names* of their variables ask
the source for exactly the same rows, so they must share one cache
entry.  :func:`canonical_query` therefore rewrites every query shape
(BGP, SQL, full-text, JSON tree pattern) into a canonical structure in
which variables are numbered by order of appearance, together with the
renaming that maps the query's own variable names onto the canonical
ones.  Binding tuples and the *headers* of cached batches are translated
through that renaming on the way in and out of the cache (the row lists
are shared, never copied), so a hit produced under one spelling is
served verbatim under another.

Canonicalisation is conservative: only the positions the mediator
treats as variables are renamed (BGP variables, SQL and full-text
``{var}`` parameter nodes, full-text output fields, tree-pattern
variables).  SQL output *columns* are part of the
statement and stay structural.
"""

from __future__ import annotations

from typing import Optional

from repro.core.sources import (
    FullTextQuery,
    JSONQuery,
    RDFQuery,
    Row,
    SourceQuery,
    SQLQuery,
)
from repro.engine.batch import BindingBatch
from repro.json.pattern import Parameter as JSONParameter
from repro.rdf.terms import Variable


class CanonicalQuery:
    """A query's canonical cache structure plus its variable renaming.

    ``key``
        hashable canonical representation (identical for queries equal
        up to variable renaming);
    ``rename``
        query variable name -> canonical name (``?0``, ``?1``, ...);
    ``inverse``
        canonical name -> query variable name (always a bijection, the
        canonical names are allocated one per distinct original name).
    """

    __slots__ = ("model", "key", "rename", "inverse")

    def __init__(self, model: str, key: tuple, rename: dict[str, str]):
        self.model = model
        self.key = (model,) + key
        self.rename = rename
        self.inverse = {canonical: original for original, canonical in rename.items()}

    def binding_key(self, bindings: Row) -> Optional[tuple]:
        """Canonical, hashable form of a binding tuple (None = uncacheable).

        Values are type-tagged: ``True``, ``1`` and ``1.0`` are equal
        (and hash alike) in Python, yet the wrappers render them
        differently at the source (``TRUE`` vs ``1`` in SQL, ``True``
        vs ``1`` in a query template) — they must never share an entry.
        """
        try:
            items = sorted((self.rename.get(name, name), _tagged(value))
                           for name, value in bindings.items())
            key = tuple(items)
            hash(key)
        except TypeError:
            return None
        return key

    def canonical_batches(self, batches: list[BindingBatch]) -> list[BindingBatch]:
        """Batches under canonical variable names (for storage)."""
        return [batch.renamed(self.rename) for batch in batches]

    def original_batches(self, batches: list[BindingBatch]) -> list[BindingBatch]:
        """Stored batches under this query's own names, rows shared."""
        return [batch.renamed(self.inverse) for batch in batches]


def canonical_query(query: SourceQuery) -> Optional[CanonicalQuery]:
    """Canonicalise ``query``; ``None`` for unknown query types."""
    if isinstance(query, RDFQuery):
        return _canonical_rdf(query)
    if isinstance(query, SQLQuery):
        return _canonical_sql(query)
    if isinstance(query, FullTextQuery):
        return _canonical_fulltext(query)
    if isinstance(query, JSONQuery):
        return _canonical_json(query)
    return None


class _Namer:
    """Allocates ``?0``, ``?1``, ... per distinct original name."""

    def __init__(self) -> None:
        self.mapping: dict[str, str] = {}

    def __call__(self, name: str) -> str:
        return self.mapping.setdefault(name, f"?{len(self.mapping)}")


def _canonical_rdf(query: RDFQuery) -> CanonicalQuery:
    canon = _Namer()
    patterns = []
    for pattern in query.bgp.patterns:
        patterns.append(tuple(("v", canon(term.name)) if isinstance(term, Variable)
                              else term for term in pattern))
    head = tuple(canon(v.name) for v in query.bgp.head)
    return CanonicalQuery("rdf", (tuple(patterns), head, bool(query.bgp.head)),
                          canon.mapping)


def _canonical_sql(query: SQLQuery) -> CanonicalQuery:
    # Keyed on the parsed statement: ``{x}`` inside a quoted string is a
    # literal, not a parameter, and must neither be renamed nor shared.
    template = query.template
    return CanonicalQuery("sql", (template.canonical_text, query.output_columns),
                          template.canonical_names)


def _canonical_fulltext(query: FullTextQuery) -> CanonicalQuery:
    # Keyed on the parsed query: ``{x}`` inside a phrase is literal text,
    # not a parameter, and must neither be renamed nor shared.
    template = query.template
    canon = _Namer()
    canon.mapping.update(template.canonical_names)
    # Output variables are canonicalised in (path, name) order so that the
    # assignment does not depend on how the variables were spelled (two
    # variables on one path receive symmetric names — and identical values).
    fields = tuple((canon(variable), path)
                   for variable, path in sorted(query.output_fields,
                                                key=lambda pair: (pair[1], pair[0])))
    return CanonicalQuery("fulltext", (template.canonical_text, fields, query.limit,
                                       query.sort_by), canon.mapping)


def _canonical_json(query: JSONQuery) -> CanonicalQuery:
    canon = _Namer()
    leaves = []
    for leaf in query.pattern.leaves:
        predicates = []
        for predicate in leaf.predicates:
            if isinstance(predicate.value, JSONParameter):
                predicates.append((predicate.op, ("param", canon(predicate.value.name))))
            else:
                # Tag constants with their type: 1 == True == 1.0 under
                # Python equality, but the pattern's comparison semantics
                # may distinguish them.
                predicates.append((predicate.op,
                                   ("const", type(predicate.value).__name__,
                                    predicate.value)))
        variable = canon(leaf.variable) if leaf.variable is not None else None
        leaves.append((leaf.path, variable, tuple(predicates)))
    return CanonicalQuery("json", (tuple(leaves), query.limit), canon.mapping)


def _tagged(value: object) -> tuple:
    """Recursively hashable form of a binding value, tagged by type.

    Raises ``TypeError`` (caught by :meth:`CanonicalQuery.binding_key`)
    for values that cannot be keyed deterministically.
    """
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(_tagged(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted((_tagged(item) for item in value), key=repr))
    if isinstance(value, dict):
        return ("dict",) + tuple(sorted((key, _tagged(item))
                                        for key, item in value.items()))
    return (type(value).__name__, value)
