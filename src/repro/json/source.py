"""The JSON source wrapper: tree-pattern sub-queries over a document
store, for the mediator (:mod:`repro.core.sources`)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cache.keys import CanonicalQuery, Namer
from repro.core.deltas import document_deltas
from repro.core.sources import DataSource, SourceQuery, _instrumented
from repro.digest.graph import DigestNode, SourceDigest, safe_name
from repro.digest.valueset import ValueSetSummary
from repro.engine.batch import BindingBatch, Row, as_answer, dict_rows
from repro.errors import MixedQueryError
from repro.json.matcher import TreePatternMatcher
from repro.json.parser import parse_pattern
from repro.json.pattern import Parameter as JSONParameter, PatternLeaf, Predicate, TreePattern
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

    def derive_canonical(self) -> CanonicalQuery:
        canon = Namer()
        leaves = []
        for leaf in self.pattern.leaves:
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
        return CanonicalQuery("json", (tuple(leaves), self.limit), canon.mapping)

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
                    for rows in TreePatternMatcher(store).match_batch(
                        query.pattern, calls, limit=query.limit)]

    def derive_estimate(self, query: JSONQuery, bound: set[str], values: Row) -> float:
        """The path-index estimate, priced with the atom's constants."""
        return self.estimate(query, bound, values)

    def derive_digest(self, summarize=ValueSetSummary) -> SourceDigest:
        """One node per dataguide path, all joined, valued with the
        path's index keys, each once per document filed under it; read
        off what every write maintains."""
        with self.store.reading() as store:
            digest = SourceDigest(self.uri, self.model, version=self.version())
            dataguide = store.dataguide()
            digest.link_all([digest.add_node(
                DigestNode(self.uri, store.name, path, kind="field"),
                summarize([key for key, ids in store.index_for(path).postings.items()
                           for _ in ids])) for path in dataguide.path_names()])
        digest.metadata["dataguide_paths"] = len(dataguide)
        digest.metadata["documents"] = dataguide.document_count
        return digest

    def keyword_atom(self, nodes: list[DigestNode], variables: dict, hits: dict) -> tuple:
        """A tree pattern with one leaf per path position, a hit's leaf
        constrained to equal its value, plus the text path's leaf."""
        leaves = [PatternLeaf(path=node.position, variable=variables[node],
                              predicates=(Predicate("=", hits[node].value),) if node in hits
                              else ())
                  for node in nodes]
        # Always expose the main content path so journalists see the text.
        text_path = self.store.text_path
        if text_path and all(leaf.path != text_path for leaf in leaves):
            leaves.append(PatternLeaf(path=text_path,
                                      variable=f"txt_{safe_name(self.store.name)}"))
        query = JSONQuery(pattern=TreePattern(leaves=tuple(leaves)))
        return f"json_{safe_name(self.store.name)}", query, {}

    def repair_delta(self, query: JSONQuery, records: list, engine):
        """A query without ``limit`` repairs.  A document's rows are its
        own, so inserts, upserts and removals all do: an entry gains the
        rows of the copies the chain wrote and loses those of the copies
        it replaced (:meth:`_delta_sources`)."""
        if query.limit is not None:
            return "shape"
        return engine.spanned(self, records, self._delta_sources)

    def _delta_sources(self, records: list):
        """Wrappers over delta stores of the chain's net written and
        replaced copies (:func:`~repro.core.deltas.document_deltas`)."""
        store = self.store

        def over(documents):
            delta = JSONDocumentStore(f"{store.name}+delta", store.id_field, store.text_path)
            delta.add_all(documents)
            return JSONSource(self.uri, delta, name=self.name)

        return document_deltas(records, store.id_of, over)

    def estimate(self, query: SourceQuery, bound_variables: set[str] | None = None,
                 values: dict[str, object] | None = None) -> float:
        """Path-index estimate of a tree pattern (the one JSON estimator).

        Every number is read off what a write already maintains, the
        per-path indexes, so the first estimate after a write costs no
        pass over the documents.  ``values`` carries the bindings whose
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
                        leaf_estimate = min(leaf_estimate, float(len(index.bucket(known))))
                    elif predicate.op != "!=":
                        leaf_estimate = min(leaf_estimate,
                                            float(len(index.lookup_cmp(predicate.op, known))))
                if leaf.variable is not None and leaf.variable in bound:
                    if leaf.variable in values:
                        leaf_estimate = min(leaf_estimate,
                                            float(len(index.bucket(values[leaf.variable]))))
                    else:
                        leaf_estimate = min(leaf_estimate, index.average_postings())
                estimate = min(estimate, leaf_estimate)
            if not pattern.variables() & bound and not any(leaf.predicates
                                                          for leaf in pattern.leaves):
                # A purely structural pattern binds every value a document
                # holds at a variable's path: scale by each path's fan-out.
                for leaf in pattern.leaves:
                    index = store.index_for(leaf.path)
                    if leaf.variable is not None and index is not None and index.document_count:
                        estimate *= max(1.0, index.occurrences / index.document_count)
            if any(leaf.constant_equality() is not None for leaf in pattern.leaves):
                # The per-path indexes can answer the conjunction of constant
                # predicates exactly (candidate-set intersection), which beats
                # the independent per-leaf minima above.
                estimate = min(estimate, float(TreePatternMatcher(store).candidate_count(pattern)))
            return min(estimate, limit)
