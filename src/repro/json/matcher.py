"""Tree-pattern evaluation: accelerated matching with a naive core.

:func:`match_document` is the reference (naive) semantics: evaluate a
pattern against one document and produce its binding rows.
:class:`TreePatternMatcher` wraps it with index-based candidate pruning —
equality and comparison predicates (including pushed-down bindings from a
bind join) are first answered from the store's per-path indexes — and,
by default (``accel=True``), verifies the surviving candidates against
the store's XPath-accelerator encoding (:mod:`repro.json.accel`): each
pattern leaf compiles to structural range probes over the columnar
``(pre, post, level, path-id, value-id)`` arrays, so the per-document
hot path is a handful of :mod:`bisect` calls instead of a tree walk.
With ``accel=False`` candidates are verified by walking the document
tree (:func:`match_document`).  The two paths must agree; the test
suite checks them against each other.
"""

from __future__ import annotations

from typing import Iterable, Optional, TYPE_CHECKING

from repro.engine.batch import BindingBatch, Row
from repro.errors import JSONError
from repro.json.accel import CompiledPattern, iter_child_items
from repro.json.index import compare, normalize
from repro.json.pattern import (
    Parameter,
    Predicate,
    TreePattern,
    _nfa_advance,
    _nfa_closure,
    is_wildcard_path,
)
from repro.obs.metrics import get_registry
from repro.obs.spans import span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.json.store import JSONDocumentStore

_MISSING = object()


def leaf_values(document: dict, path: str) -> list[object]:
    """Every value reachable at ``path``, fanning out over arrays.

    Wildcard segments (``*``/``**``) walk the node model with an NFA
    over the path's segments; concrete paths keep the historical
    level-by-level walk (both emit values in document pre-order).
    """
    if is_wildcard_path(path):
        return _wildcard_leaf_values(document, path.split("."))
    current: list[object] = [document]
    for part in path.split("."):
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
    return BindingBatch(pattern.columns,
                        _document_tuples(pattern, document, parameters, pushdown)).dicts()


def _document_tuples(pattern: TreePattern, document: dict, parameters: dict[str, object] | None,
                     pushdown: Row | None) -> list[tuple]:
    """:func:`match_document`'s rows as value tuples over ``pattern.columns``."""
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
    return _tuples_from_keeps(pattern, keeps, pushdown or {})


def _tuples_from_keeps(pattern: TreePattern, keeps: list[list[object]],
                       pushdown: Row) -> list[tuple]:
    """Binding tuples over ``pattern.columns`` from per-leaf kept values
    (shared by both matchers); a variable's later leaves must agree."""
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


class TreePatternMatcher:
    """Evaluates tree patterns over a :class:`JSONDocumentStore`."""

    def __init__(self, store: "JSONDocumentStore", accel: bool = True):
        self.store = store
        #: Verify candidates against the columnar encoding (False = walk
        #: the document trees; kept as the reference semantics).
        self.accel = accel

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
                    limit: int | None = None) -> list[list[tuple]]:
        """Answer many ``(parameters, pushdown)`` calls in one pass, as tuples.

        The candidate set of the pattern's *constant* predicates is
        computed once; each call then only adds its own index lookups
        (resolved parameters and pushed-down bindings) before the
        surviving candidates are verified.  The result list is aligned
        with ``calls`` and each entry is what that call alone answers.
        """
        if len(calls) <= 1:
            return [self._verify(pattern, self.candidates(pattern, parameters, pushdown or {}),
                                 parameters, pushdown or {}, limit)
                    for parameters, pushdown in calls]
        base = set(self.candidates(pattern))
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
                    restriction = restriction & index.lookup_cmp(resolved.op,
                                                                 resolved.value)
                if leaf.variable is not None and leaf.variable in pushdown:
                    restriction = restriction & index.lookup_eq(pushdown[leaf.variable])
            ordered = sorted(restriction, key=self.store.insertion_rank)
            results.append(self._verify(pattern, ordered, parameters,
                                        pushdown, limit))
        return results

    # ------------------------------------------------------------------
    def _verify(self, pattern: TreePattern, doc_ids: list[str],
                parameters: dict[str, object] | None,
                pushdown: Row, limit: int | None) -> list[tuple]:
        """Verify candidate documents, accelerated when possible."""
        if not doc_ids:
            return []
        compiled = self._compile(pattern, parameters)
        if compiled is None:
            rows: list[tuple] = []
            for doc_id in doc_ids:
                document = self.store.get(doc_id)
                if document is None:  # pragma: no cover - defensive
                    continue
                rows.extend(_document_tuples(pattern, document, parameters, pushdown))
                if limit is not None and len(rows) >= limit:
                    return rows[:limit]
            return rows
        return self._verify_accel(compiled, pattern, doc_ids, parameters,
                                  pushdown, limit)

    def _verify_accel(self, compiled: CompiledPattern, pattern: TreePattern,
                      doc_ids: list[str], parameters, pushdown: Row,
                      limit: int | None) -> list[tuple]:
        view = compiled.view
        rows: list[tuple] = []
        with span("json.accel.probe", leaves=len(pattern.leaves),
                  candidates=len(doc_ids)) as sp:
            matched = [0] * len(pattern.leaves) if sp is not None else None
            for doc_id in doc_ids:
                document = self.store.get(doc_id)
                ordinal = view.ordinal(doc_id, document)
                if ordinal is None:
                    # Outside the pinned view (or an upsert repointed the
                    # shared ordinal past our watermark): walk the tree.
                    if document is None:  # pragma: no cover - defensive
                        continue
                    doc_rows = _document_tuples(pattern, document, parameters, pushdown)
                else:
                    keeps = compiled.leaf_keeps(ordinal)
                    if matched is not None and keeps is not None:
                        for index in range(len(keeps)):
                            matched[index] += 1
                    if keeps is None:
                        continue
                    doc_rows = _tuples_from_keeps(pattern, keeps, pushdown)
                rows.extend(doc_rows)
                if limit is not None and len(rows) >= limit:
                    rows = rows[:limit]
                    break
            if sp is not None:
                stats = view.encoding.axis_stats(pattern, view.node_limit)
                axes = []
                for index, leaf in enumerate(pattern.leaves):
                    estimated = (stats["leaves"][index]["documents"]
                                 if stats is not None else None)
                    axes.append({"path": leaf.path, "estimated": estimated,
                                 "actual": matched[index]})
                sp.set(axes=axes, rows=len(rows))
        get_registry().counter("json.accel.probe_rows").inc(len(rows))
        return rows

    def _compile(self, pattern: TreePattern,
                 parameters: dict[str, object] | None) -> Optional[CompiledPattern]:
        """Compile against the store's encoding (None = reference path)."""
        if not self.accel:
            return None
        getter = getattr(self.store, "encoding_view", None)
        if getter is None:
            return None
        view = getter()
        resolved = [[p.resolve(parameters) for p in leaf.predicates]
                    for leaf in pattern.leaves]
        return view.compile(pattern, resolved)

    # ------------------------------------------------------------------
    def candidates(self, pattern: TreePattern,
                   parameters: dict[str, object] | None = None,
                   pushdown: Row | None = None) -> list[str]:
        """Candidate document ids after index-based predicate pushdown.

        The result is a superset of the matching documents (``!=``
        predicates are not pruned; everything is re-verified),
        in insertion order so results stay deterministic.
        """
        pushdown = pushdown or {}
        restrictions: list[set[str]] = []
        for leaf in pattern.leaves:
            index = self.store.index_for(leaf.path)
            if index is None:
                # Interior (non-leaf) or wildcard path: no value index, but
                # presence can still prune through the indexes of the leaf
                # paths it matches (or prefixes).
                restriction = self.store.doc_ids_with_path(leaf.path)
                if not restriction:
                    # The path was never observed: nothing can match.
                    return []
                restrictions.append(restriction)
                continue
            # Each lookup is a fresh set within the path's documents; the
            # smallest starts the intersection (set & set walks the smaller
            # side, so a selective predicate keeps the chain cheap).
            lookups = [index.lookup_cmp(resolved.op, resolved.value) for resolved in
                       (_resolve_quietly(predicate, parameters) for predicate in leaf.predicates)
                       if resolved is not None and resolved.op != "!="]
            if leaf.variable is not None and leaf.variable in pushdown:
                lookups.append(index.lookup_eq(pushdown[leaf.variable]))
            if not lookups and index.document_count < len(self.store):
                lookups.append(index.documents())  # not in every document: the path prunes
            restrictions.extend(lookups)
        if not restrictions:
            return [doc_id for doc_id, _ in self.store.items()]
        restrictions.sort(key=len)
        candidates = restrictions[0]
        for restriction in restrictions[1:]:
            candidates = candidates & restriction
            if not candidates:
                return []
        return sorted(candidates, key=self.store.insertion_rank)

    def selectivity(self, pattern: TreePattern) -> float:
        """Fraction of the store the index pruning retains (1.0 = no pruning)."""
        if len(self.store) == 0:
            return 1.0
        return len(self.candidates(pattern)) / len(self.store)


def _resolve_quietly(predicate: Predicate,
                     parameters: dict[str, object] | None) -> Predicate | None:
    """Resolve a predicate's parameter, or None when it is unbound."""
    if not isinstance(predicate.value, Parameter):
        return predicate
    try:
        return predicate.resolve(parameters)
    except JSONError:
        return None
