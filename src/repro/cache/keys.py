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

from dataclasses import astuple
from operator import itemgetter
from typing import Iterable, Optional

from repro.core.sources import Row, SourceQuery
from repro.fulltext.source import FullTextQuery
from repro.json.source import JSONQuery
from repro.rdf.source import RDFQuery
from repro.relational.source import SQLQuery
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

    __slots__ = ("model", "key", "rename", "inverse", "_keyers")

    def __init__(self, model: str, key: tuple, rename: dict[str, str]):
        self.model = model
        self.key = (model,) + key
        self.rename = rename
        self.inverse = {canonical: original for original, canonical in rename.items()}
        self._keyers: dict[tuple, BindingKeyer] = {}  # memo of :meth:`key_of`

    def keyer(self, slots: Iterable[tuple[str, int]],
              constants: Row | None = None) -> "BindingKeyer":
        """The one binding-key function, compiled for bindings whose value
        at position ``i`` binds formal ``name`` for each ``(name, i)`` of
        ``slots``, ``constants`` binding the formals fixed in advance."""
        rename = self.rename
        order = [(rename.get(name, name), i, None) for name, i in slots]
        try:
            order += [(rename.get(name, name), None, _tagged(value))
                      for name, value in (constants or {}).items()]
        except TypeError:
            return BindingKeyer(None)
        return BindingKeyer(tuple(sorted(order, key=itemgetter(0))))

    def key_of(self, bindings: Row) -> Optional[tuple]:
        """The key of a binding dict in the query's own names."""
        if not bindings:
            return ()
        names = tuple(bindings)
        keyer = self._keyers.get(names)
        if keyer is None:
            keyer = self._keyers[names] = self.keyer(zip(names, range(len(names))))
        return keyer(tuple(bindings.values()))

    def canonical_batches(self, batches: list[BindingBatch]) -> list[BindingBatch]:
        """Batches under canonical variable names (for storage)."""
        return [batch.renamed(self.rename) for batch in batches]

    def original_batches(self, batches: list[BindingBatch]) -> list[BindingBatch]:
        """Stored batches under this query's own names, rows shared."""
        return [batch.renamed(self.inverse) for batch in batches]


class BindingKeyer:
    """A binding's value tuple -> its key, ``(canonical name, tagged value)``
    pairs by name (``None``: uncacheable); tags keep ``True``, ``1``, ``1.0``
    apart, as sources render them.  Data, no closure: holders reach no more."""

    __slots__ = ("order",)

    def __init__(self, order: Optional[tuple]):
        self.order = order  # (name, value position or None, tagged constant)

    def __call__(self, values: tuple) -> Optional[tuple]:
        try:
            return tuple([(name, tagged if i is None else _tagged(values[i]))
                          for name, i, tagged in self.order])
        except TypeError:  # an unhashable value, or no order at all
            return None


def canonical_query(query: SourceQuery) -> Optional[CanonicalQuery]:
    """The canonical form of ``query`` (``None`` for unknown query types),
    derived once per (immutable) query object and kept on it."""
    return query.canonical if isinstance(query, SourceQuery) else None


def canonicalise(query: SourceQuery) -> Optional[CanonicalQuery]:
    """Derive the canonical form of ``query`` (use :func:`canonical_query`)."""
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
    # Constant terms enter as plain tuples (type name, fields): the key
    # then hashes without a Python-level ``__hash__`` per term.
    canon = _Namer()
    patterns = []
    for pattern in query.bgp.patterns:
        patterns.append(tuple(("v", canon(term.name)) if isinstance(term, Variable)
                              else (type(term).__name__,) + astuple(term)
                              for term in pattern))
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


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _tagged(value: object) -> tuple:
    """Recursively hashable form of a binding value, tagged by type;
    ``TypeError`` for a value that cannot be keyed deterministically."""
    if type(value) in _SCALARS:
        return (type(value).__name__, value)
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(_tagged(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted((_tagged(item) for item in value), key=repr))
    if isinstance(value, dict):
        return ("dict",) + tuple(sorted((key, _tagged(item))
                                        for key, item in value.items()))
    hash(value)
    return (type(value).__name__, value)
