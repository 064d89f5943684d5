"""Tree-pattern evaluation: the index-assisted walk and its naive reference.

:func:`match_document` is the reference (naive) semantics: evaluate a
pattern against one document and produce its binding rows.
:class:`TreePatternMatcher` is the one matcher the JSON source uses:
equality and comparison predicates (including pushed-down bindings from a
bind join) are first answered from the store's per-path indexes, and the
surviving candidates are verified by walking each document's tree with
the pattern compiled once per call (:class:`_Walk`: paths split,
parameters resolved, a pushed-down value folded into its leaf's test).
The test suite holds the matcher to per-document :func:`match_document`
scans.

:func:`iter_child_items` defines the node model the wildcard walk
follows: object members become child nodes under their key; a list value
*fans out* — each element becomes a node under the list's key (nested
lists stay opaque); empty lists contribute no nodes.
"""

from __future__ import annotations

from typing import Any, Collection, Iterable, Iterator, TYPE_CHECKING

from repro.engine.batch import BindingBatch, Row
from repro.errors import JSONError
from repro.json.index import compare, normalize
from repro.json.pattern import (
    Parameter,
    Predicate,
    TreePattern,
    _nfa_advance,
    _nfa_closure,
    is_wildcard_path,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.json.store import JSONDocumentStore

_MISSING = object()


def iter_child_items(value: Any) -> Iterator[tuple[str, Any]]:
    """The ``(key, raw)`` child nodes of one raw value, in document order
    (the node model of the module docstring)."""
    if not isinstance(value, dict):
        return
    for key, child in value.items():
        if isinstance(child, list):
            for item in child:
                yield key, item
        else:
            yield key, child


def leaf_values(document: dict, path: str) -> list[object]:
    """Every value reachable at ``path``, fanning out over arrays.

    Wildcard segments (``*``/``**``) walk the node model with an NFA
    over the path's segments; concrete paths keep the historical
    level-by-level walk (both emit values in document pre-order).
    """
    if is_wildcard_path(path):
        return _wildcard_leaf_values(document, path.split("."))
    return _fanned_values([document], path.split("."))


def _fanned_values(current: list[object], segments: Iterable[str]) -> list[object]:
    """The level-by-level walk of a concrete path from the nodes ``current``."""
    for part in segments:
        next_level: list[object] = []
        for value in current:
            if isinstance(value, list):
                value_items = value
            else:
                value_items = [value]
            for item in value_items:
                if isinstance(item, dict) and part in item:
                    next_level.append(item[part])
        current = next_level
        if not current:
            return []
    # Fan out over a trailing array value (e.g. entities.hashtags).
    flattened: list[object] = []
    for value in current:
        if isinstance(value, list):
            flattened.extend(value)
        else:
            flattened.append(value)
    return flattened


def _wildcard_leaf_values(document: dict, segments: list[str]) -> list[object]:
    """Values of the nodes a wildcard path matches, in pre-order.

    An explicit stack carries ``(raw, NFA positions, emit)``: children
    are pushed reversed so nodes pop in document order, each emitted
    before its subtree — genuine pre-order without recursion.
    """
    length = len(segments)
    out: list[object] = []
    stack: list[tuple[object, set[int], bool]] = [
        (document, _nfa_closure(segments, {0}), False)]
    while stack:
        raw, positions, emit = stack.pop()
        if emit:
            out.append(raw)
        children = list(iter_child_items(raw))
        for key, child in reversed(children):
            advanced = _nfa_advance(segments, positions, key)
            if advanced:
                stack.append((child, advanced, length in advanced))
    return out


def match_document(pattern: TreePattern, document: dict,
                   parameters: dict[str, object] | None = None,
                   pushdown: Row | None = None) -> list[Row]:
    """Naive tree-pattern semantics: the binding rows of one document.

    ``parameters`` fills ``{param}`` predicate values; ``pushdown`` maps
    output variables to values already bound by the mediator (a bind
    join) — matching rows are aligned to the pushed value so the
    mediator's exact-equality joins accept them.
    """
    keeps: list[list[object]] = []
    for leaf in pattern.leaves:
        values = leaf_values(document, leaf.path)
        if not values:
            return []
        predicates = [p.resolve(parameters) for p in leaf.predicates]
        keep = [v for v in values
                if all(compare(p.op, v, p.value) for p in predicates)]
        if not keep:
            return []
        keeps.append(keep)
    return BindingBatch(pattern.columns,
                        _tuples_from_keeps(pattern, keeps, pushdown or {})).dicts()


def _tuples_from_keeps(pattern: TreePattern, keeps: list[list[object]],
                       pushdown: Row) -> list[tuple]:
    """Binding tuples over ``pattern.columns`` from per-leaf kept values;
    a variable's later leaves must agree."""
    rows: list[tuple] = [()]
    for leaf, keep in zip(pattern.leaves, keeps):
        if leaf.variable is None:
            continue
        bound = pushdown.get(leaf.variable, _MISSING)
        if bound is not _MISSING:
            if not any(compare("=", v, bound) for v in keep):
                return []
            keep = [bound]
        values, i = _dedupe(keep), pattern.columns.index(leaf.variable)
        if i < len(rows[0]):
            rows = [row for row in rows
                    if any(normalize(row[i]) == normalize(v) for v in values)]
        else:
            rows = [row + (value,) for row in rows for value in values]
        if not rows:
            return []
    return rows


def _dedupe(values: Iterable[object]) -> list[object]:
    seen: set[object] = set()
    out: list[object] = []
    for value in values:
        key = normalize(value)
        try:
            new = key not in seen
        except TypeError:
            new = True
        else:
            seen.add(key)
        if new:
            out.append(value)
    return out


def _path_values(document: dict, segments: list[str]) -> list[object]:
    """:func:`leaf_values` of a concrete path already split: dicts are
    followed key by key until a list fans the walk out."""
    current: Any = document
    for depth, part in enumerate(segments):
        if isinstance(current, dict):
            current = current.get(part, _MISSING)
            if current is _MISSING:
                return []
        elif isinstance(current, list):
            return _fanned_values([current], segments[depth:])
        else:
            return []
    return list(current) if isinstance(current, list) else [current]


def _equal_to(value: object):
    key = normalize(value)
    return lambda v: normalize(v) == key


def _compared(predicate: Predicate):
    if predicate.op == "=":
        return _equal_to(predicate.value)
    op, value = predicate.op, predicate.value
    return lambda v: compare(op, v, value)


def _all_of(tests: list):
    """The conjunction of ``tests`` (None when there is none)."""
    if len(tests) <= 1:
        return tests[0] if tests else None
    return lambda v: all(test(v) for test in tests)


class _Walk:
    """A pattern compiled for one call of the matcher.

    Per leaf: its path split once (a wildcard path is walked through its
    NFA), its predicates resolved once into one test,
    the value pushed down on its variable folded in as one more equality
    (the leaf then binds that value), and the column its variable
    extends or, on a later leaf of the same variable, must agree with.
    """

    __slots__ = ("leaves",)

    def __init__(self, pattern: TreePattern, parameters: dict[str, object] | None,
                 pushdown: Row):
        self.leaves = []
        columns, seen = pattern.columns, set()
        for leaf in pattern.leaves:
            tests = [_compared(p.resolve(parameters)) for p in leaf.predicates]
            bound, column, extends = _MISSING, None, False
            if leaf.variable is not None:
                bound = pushdown.get(leaf.variable, _MISSING)
                if bound is not _MISSING:
                    tests.append(_equal_to(bound))
                column, extends = columns.index(leaf.variable), leaf.variable not in seen
                seen.add(leaf.variable)
            self.leaves.append((leaf.path.split("."), is_wildcard_path(leaf.path),
                                _all_of(tests), bound, column, extends))

    def rows(self, document: dict) -> list[tuple]:
        """The document's binding tuples (what :func:`match_document` gives)."""
        rows: list[tuple] = [()]
        for segments, wildcard, test, bound, column, extends in self.leaves:
            if wildcard:
                values = _wildcard_leaf_values(document, segments)
            else:
                values = _path_values(document, segments)
            if test is not None:
                values = [v for v in values if test(v)]
            if not values:
                return []
            if column is None:
                continue
            if bound is not _MISSING:
                values = [bound]
            elif len(values) > 1:
                values = _dedupe(values)
            if extends:
                rows = [row + (value,) for row in rows for value in values]
            else:
                rows = [row for row in rows
                        if any(normalize(row[column]) == normalize(v) for v in values)]
                if not rows:
                    return []
        return rows


class TreePatternMatcher:
    """Evaluates tree patterns over a :class:`JSONDocumentStore`."""

    def __init__(self, store: "JSONDocumentStore"):
        self.store = store

    # ------------------------------------------------------------------
    def match(self, pattern: TreePattern,
              parameters: dict[str, object] | None = None,
              pushdown: Row | None = None,
              limit: int | None = None) -> list[Row]:
        """Binding rows of every matching document (index-pruned)."""
        return BindingBatch(pattern.columns, self.match_batch(
            pattern, [(parameters, pushdown)], limit)[0]).dicts()

    # ------------------------------------------------------------------
    def match_batch(self, pattern: TreePattern,
                    calls: list[tuple[dict[str, object], Row]],
                    limit: int | None = None,
                    _within: Collection[str] | None = None) -> list[list[tuple]]:
        """Answer many ``(parameters, pushdown)`` calls in one pass, as tuples.

        The candidate set of the pattern's *constant* predicates is
        computed once; each call then only adds its own index lookups
        (resolved parameters and pushed-down bindings) before the
        surviving candidates are verified.  The result list is aligned
        with ``calls`` and each entry is what that call alone answers.
        ``_within``, cache repair's, restricts the candidates to the ids
        it holds (see :meth:`_intersection`).
        """
        if len(calls) <= 1:
            return [self._verify(pattern, self.candidates(pattern, parameters, pushdown or {},
                                                          _within),
                                 parameters, pushdown or {}, limit)
                    for parameters, pushdown in calls]
        base = set(self.candidates(pattern, _within=_within))
        results: list[list[tuple]] = []
        for parameters, pushdown in calls:
            pushdown = pushdown or {}
            restriction = base
            for leaf in pattern.leaves:
                index = self.store.index_for(leaf.path)
                if index is None:
                    continue
                for predicate in leaf.predicates:
                    if not isinstance(predicate.value, Parameter):
                        continue  # constants already pruned in the base set
                    resolved = _resolve_quietly(predicate, parameters)
                    if resolved is None or resolved.op == "!=":
                        continue
                    restriction = restriction.intersection(_lookup(index, resolved))
                if leaf.variable is not None and leaf.variable in pushdown:
                    restriction = restriction.intersection(
                        index.bucket(pushdown[leaf.variable]))
            ordered = sorted(restriction, key=self.store.insertion_rank)
            results.append(self._verify(pattern, ordered, parameters,
                                        pushdown, limit))
        return results

    # ------------------------------------------------------------------
    def _verify(self, pattern: TreePattern, doc_ids: list[str],
                parameters: dict[str, object] | None,
                pushdown: Row, limit: int | None) -> list[tuple]:
        """The rows of the candidates, walked in order, up to ``limit``."""
        if not doc_ids:
            return []
        walk, get = _Walk(pattern, parameters, pushdown).rows, self.store.get
        rows: list[tuple] = []
        for doc_id in doc_ids:
            document = get(doc_id)
            if document is None:  # pragma: no cover - defensive
                continue
            rows.extend(walk(document))
            if limit is not None and len(rows) >= limit:
                return rows[:limit]
        return rows

    # ------------------------------------------------------------------
    def candidates(self, pattern: TreePattern,
                   parameters: dict[str, object] | None = None,
                   pushdown: Row | None = None,
                   _within: Collection[str] | None = None) -> list[str]:
        """Candidate document ids after index-based predicate pushdown.

        The result is a superset of the matching documents (``!=``
        predicates are not pruned; everything is re-verified),
        in insertion order so results stay deterministic.
        """
        matched = self._intersection(pattern, parameters, pushdown or {}, _within)
        if matched is None:
            return [doc_id for doc_id, _ in self.store.items()]
        return sorted(matched, key=self.store.insertion_rank)

    def candidate_count(self, pattern: TreePattern) -> int:
        """``len(self.candidates(pattern))``, counted without copying a
        bucket or ranking a candidate."""
        matched = self._intersection(pattern, None, {})
        return len(self.store) if matched is None else len(matched)

    def _intersection(self, pattern: TreePattern, parameters: dict[str, object] | None,
                      pushdown: Row, within: Collection[str] | None = None
                      ) -> Collection[str] | None:
        """The ids every leaf's index lookups admit, read-only (a lone
        restriction as it is), or None when no leaf prunes.  ``within``
        is one more restriction, and the first: the presence sets, each
        as large as the documents holding a path, are then not built, as
        the walk verifies presence anyway."""
        store = self.store
        restrictions: list[Collection[str]] = [] if within is None else [within]
        for leaf in pattern.leaves:
            index = store.index_for(leaf.path)
            if index is None or store.holds_below(leaf.path):
                # Interior (non-leaf) or wildcard path, or a leaf path that is
                # an interior node in some documents (which its value index
                # cannot see): presence alone prunes, through the indexes of
                # the paths it matches or prefixes (none: nothing matches).
                if within is None:
                    restrictions.append(store.doc_ids_with_path(leaf.path))
                continue
            lookups = [_lookup(index, resolved) for resolved in
                       (_resolve_quietly(predicate, parameters) for predicate in leaf.predicates)
                       if resolved is not None and resolved.op != "!="]
            if leaf.variable is not None and leaf.variable in pushdown:
                lookups.append(index.bucket(pushdown[leaf.variable]))
            if not lookups and within is None and index.document_count < len(store):
                lookups.append(index.documents())  # not in every document: the path prunes
            restrictions.extend(lookups)
        if not restrictions:
            return None
        # Set & set walks the smaller side, so the smallest restriction
        # first keeps a selective chain cheap.
        first, *rest = sorted(restrictions, key=len)
        if not rest:
            return first
        return (set(first) if type(first) is tuple else first).intersection(*rest)

    def selectivity(self, pattern: TreePattern) -> float:
        """Fraction of the store the index pruning retains (1.0 = no pruning)."""
        if len(self.store) == 0:
            return 1.0
        return self.candidate_count(pattern) / len(self.store)


def _lookup(index, resolved: Predicate) -> Collection[str]:
    """The ids ``index`` admits under a resolved predicate, read-only (an
    equality's bucket as it is)."""
    if resolved.op == "=":
        return index.bucket(resolved.value)
    return index.lookup_cmp(resolved.op, resolved.value)


def _resolve_quietly(predicate: Predicate,
                     parameters: dict[str, object] | None) -> Predicate | None:
    """Resolve a predicate's parameter, or None when it is unbound."""
    if not isinstance(predicate.value, Parameter):
        return predicate
    try:
        return predicate.resolve(parameters)
    except JSONError:
        return None
