"""The JSON source wrapper: tree-pattern sub-queries over a document
store, for the mediator (:mod:`repro.core.sources`)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.sources import DataSource, SourceQuery, _instrumented
from repro.engine.batch import BindingBatch, Row, as_answer, dict_rows
from repro.errors import MixedQueryError
from repro.json.accel import structural_row_estimate as accel_structural_row_estimate
from repro.json.matcher import TreePatternMatcher
from repro.json.parser import parse_pattern
from repro.json.pattern import Parameter as JSONParameter, TreePattern
from repro.json.store import JSONDocumentStore


@dataclass(frozen=True)
class JSONQuery(SourceQuery):
    """A tree pattern over a JSON document source.

    The pattern's ``?variables`` become mediator variables of the same
    name; its ``{parameters}`` are required parameters, filled with the
    current binding before evaluation (like ``{var}`` placeholders in SQL
    and full-text sub-queries).  Bindings on plain output variables are
    *pushed down* to the source's path indexes instead of being
    post-filtered.
    """

    pattern: TreePattern
    limit: Optional[int] = None
    model = "json"

    @classmethod
    def from_text(cls, pattern_text: str, limit: int | None = None) -> "JSONQuery":
        """Build from the textual tree-pattern syntax."""
        return cls(pattern=parse_pattern(pattern_text), limit=limit)

    def output_variables(self) -> set[str]:
        return self.pattern.variables()

    def required_parameters(self) -> set[str]:
        return self.pattern.parameters()

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.pattern.to_text()


class JSONSource(DataSource):
    """Wrapper around a JSON document store queried with tree patterns."""

    model = "json"
    store_attribute = "store"

    def __init__(self, source_uri: str, store: JSONDocumentStore,
                 name: str | None = None, description: str = ""):
        super().__init__(source_uri, name or store.name, description)
        self.store = store
        self.matcher = TreePatternMatcher(store)

    @property
    def cost_kind(self) -> str:
        """The cost-model kind: structural range joins when accelerated."""
        return "json_accel" if getattr(self.matcher, "accel", False) else self.model

    def _over_snapshot(self, frozen: JSONDocumentStore) -> "JSONSource":
        """The wrapper over a snapshot of the store, with its own matcher."""
        return self._pinned_copy(store=frozen, matcher=TreePatternMatcher(frozen))

    def execute(self, query: SourceQuery, bindings: Row | None = None) -> list[Row]:
        return dict_rows(self.execute_batch(query, [bindings or {}])[0])

    @staticmethod
    def _split_bindings(query: JSONQuery, bindings: Row) -> tuple[Row, Row]:
        """Split bindings into pattern parameters and index pushdowns.

        Bindings on plain output variables become index-backed equality
        pushdowns (matching rows are aligned to the incoming value, so
        the mediator's exact-equality joins accept them).
        """
        parameters: Row = {}
        for name in query.required_parameters():
            if name not in bindings:
                raise MixedQueryError(
                    f"sub-query parameter {{{name}}} is not bound; required parameters "
                    "must be produced by an earlier sub-query or a constant"
                )
            parameters[name] = bindings[name]
        pushdown = {variable: value for variable, value in bindings.items()
                    if variable in query.output_variables()
                    and variable not in parameters}
        return parameters, pushdown

    @_instrumented
    def execute_batch(self, query: SourceQuery,
                      bindings_batch: Sequence[Row]) -> list[list[BindingBatch]]:
        """Batched tree-pattern evaluation, in one read of the store.

        The candidate set of the pattern's constant predicates is
        computed once (:meth:`TreePatternMatcher.match_batch`); each
        binding only adds its own per-path index lookups on top.
        """
        calls = [self._split_bindings(query, bindings or {}) for bindings in bindings_batch]
        # A pin's snapshot yields the store at its version: match on that.
        with self.store.reading() as store:
            return [as_answer(query.pattern.columns, rows)
                    for rows in TreePatternMatcher(store, self.matcher.accel).match_batch(
                        query.pattern, calls, limit=query.limit)]

    def estimate(self, query: SourceQuery, bound_variables: set[str] | None = None,
                 values: dict[str, object] | None = None) -> float:
        """Path-index estimate of a tree pattern (the one JSON estimator).

        Every number is read off what a write already maintains — the
        per-path indexes and, for purely structural patterns, the
        accelerator encoding — so the first estimate after a write costs
        no pass over the documents.  ``values`` carries the bindings whose
        constant value is known at plan time (the statistics catalog
        passes the atom's constants): those are priced from the exact
        postings of the value instead of the path's average.
        """
        if not isinstance(query, JSONQuery):
            return float("inf")
        bound = bound_variables or set()
        values = values or {}
        pattern = query.pattern
        limit = float("inf") if query.limit is None else float(query.limit)
        with self.store.reading() as store:
            if (self.matcher.accel
                    and all(not leaf.predicates for leaf in pattern.leaves)
                    and not (pattern.variables() & bound)):
                # Purely structural pattern: the accelerator encoding answers
                # the per-axis cardinalities exactly (documents *and* fan-out).
                rows = accel_structural_row_estimate(store.encoding_view(), pattern)
                if rows is not None:
                    return min(rows, limit)
            estimate = float(len(store))
            for leaf in pattern.leaves:
                index = store.index_for(leaf.path)
                if index is None:
                    # Interior (non-leaf) path: only presence statistics exist.
                    present = len(store.doc_ids_with_path(leaf.path))
                    if present == 0:
                        # Never observed anywhere: nothing can match.
                        return 0.0
                    estimate = min(estimate, float(present))
                    continue
                # Structural selectivity (documents exhibiting the path),
                # refined by value-level index statistics below.
                leaf_estimate = float(index.document_count)
                for predicate in leaf.predicates:
                    known = predicate.value
                    if isinstance(known, JSONParameter):
                        if predicate.op != "=" or known.name not in values:
                            leaf_estimate = min(leaf_estimate, index.average_postings())
                            continue
                        known = values[known.name]
                    if predicate.op == "=":
                        leaf_estimate = min(leaf_estimate, float(len(index.lookup_eq(known))))
                    elif predicate.op != "!=":
                        leaf_estimate = min(leaf_estimate,
                                            float(len(index.lookup_cmp(predicate.op, known))))
                if leaf.variable is not None and leaf.variable in bound:
                    if leaf.variable in values:
                        leaf_estimate = min(leaf_estimate,
                                            float(len(index.lookup_eq(values[leaf.variable]))))
                    else:
                        leaf_estimate = min(leaf_estimate, index.average_postings())
                estimate = min(estimate, leaf_estimate)
            if any(leaf.constant_equality() is not None for leaf in pattern.leaves):
                # The per-path indexes can answer the conjunction of constant
                # predicates exactly (candidate-set intersection), which beats
                # the independent per-leaf minima above.
                estimate = min(estimate, float(len(
                    TreePatternMatcher(store, self.matcher.accel).candidates(pattern))))
            return min(estimate, limit)
