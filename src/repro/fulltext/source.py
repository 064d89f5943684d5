"""The full-text source wrapper: Solr-like sub-queries over a full-text
store, for the mediator (:mod:`repro.core.sources`)."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from repro.cache.keys import CanonicalQuery, Namer
from repro.core.deltas import document_deltas
from repro.core.sources import DataSource, SourceQuery, _instrumented
from repro.digest.dataguide import JSONDataguide
from repro.digest.graph import DigestNode, SourceDigest, safe_name
from repro.digest.valueset import ValueSetSummary
from repro.engine.batch import BindingBatch, Row, as_answer, dict_rows, tuple_getter
from repro.fulltext.document import row_builder
from repro.fulltext.query import MatchAllQuery, Parameter, TermQuery
from repro.fulltext.store import FullTextStore, empty_like
from repro.fulltext.template import FullTextTemplate, fulltext_template


@dataclass(frozen=True)
class FullTextQuery(SourceQuery):
    """A Solr-like query over a full-text source.

    ``query_template`` is the query as written: the form that travels
    over the remote wire and prints.  What the mediator *knows* about it
    comes from :attr:`template`, the text parsed once by the store's own
    parser: each ``{var}`` — a parameter node standing where a term may,
    not text inside a ``"phrase"`` or a ``[range]`` — is a *required
    parameter*, bound by value at each call.  ``output_fields`` maps
    mediator variables to dotted document paths; bindings on them narrow
    the search where the index can and are post-filtered by the wrapper.
    Text the parser rejects raises :class:`~repro.errors.ParseError` the
    first time the query is analysed, i.e. at planning.
    """

    query_template: str
    output_fields: tuple[tuple[str, str], ...]
    limit: Optional[int] = None
    sort_by: Optional[str] = None
    model = "fulltext"

    @classmethod
    def create(cls, query_template: str, output_fields: dict[str, str],
               limit: int | None = None, sort_by: str | None = None) -> "FullTextQuery":
        """Convenience constructor accepting a dict of output fields."""
        return cls(query_template=query_template,
                   output_fields=tuple(sorted(output_fields.items())),
                   limit=limit, sort_by=sort_by)

    @property
    def template(self) -> FullTextTemplate:
        """The parsed query (memoised per query text)."""
        return fulltext_template(self.query_template)

    def fields(self) -> dict[str, str]:
        """Output fields as a dict (variable -> document path)."""
        return dict(self.output_fields)

    def output_variables(self) -> set[str]:
        return {variable for variable, _ in self.output_fields}

    def required_parameters(self) -> set[str]:
        return set(self.template.parameters)

    def derive_canonical(self) -> CanonicalQuery:
        # Keyed on the parsed query: ``{x}`` inside a phrase is literal text,
        # not a parameter, and must neither be renamed nor shared.
        template = self.template
        canon = Namer()
        canon.mapping.update(template.canonical_names)
        # Output variables are canonicalised in (path, name) order so that the
        # assignment does not depend on how the variables were spelled (two
        # variables on one path receive symmetric names — and identical values).
        fields = tuple((canon(variable), path)
                       for variable, path in sorted(self.output_fields,
                                                    key=lambda pair: (pair[1], pair[0])))
        return CanonicalQuery("fulltext", (template.canonical_text, fields, self.limit,
                                           self.sort_by), canon.mapping)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.query_template


class FullTextSource(DataSource):
    """Wrapper around a Solr-like full-text store (tweets, Facebook posts)."""

    model = "fulltext"
    store_attribute = "store"

    def __init__(self, source_uri: str, store: FullTextStore, name: str | None = None,
                 description: str = ""):
        super().__init__(source_uri, name or store.name, description)
        self.store = store

    def execute(self, query: SourceQuery, bindings: Row | None = None) -> list[Row]:
        return dict_rows(self.execute_batch(query, [bindings or {}])[0])

    @_instrumented
    def execute_batch(self, query: SourceQuery,
                      bindings_batch: Sequence[Row]) -> list[list[BindingBatch]]:
        """Batched full-text evaluation: one match set per group of bindings.

        Bindings that bind the template's parameters alike form a group,
        and a parameter whose only occurrence is a top-level ``path:{var}``
        clause over a ``keyword`` field is pooled — bound to the OR of the
        whole batch's values — so that, as for a parameter-free template,
        the batch is one group.  A group binds the template once and asks
        the store for its match set once; each binding then intersects
        that set with the keyword buckets of its pooled values and of its
        ``str`` bindings on ``keyword`` outputs (the store files a value
        as ``str(v).lower()``, exactly what ``_loose_equal`` accepts from
        a ``str``), and ranks only what is left, through the store's own
        :meth:`~repro.fulltext.store.FullTextStore.rank`.  Keyword terms
        carry no BM25 weight, so a hit scores as under its own binding
        alone.  Under a ``limit`` nothing narrows (top-k-then-filter is
        not filter-then-top-k): every binding filters the group's top-k.

        A hit is projected off its stored row (:func:`_row_projector`: a
        dict lookup and an ``itemgetter``) into a value tuple; the bindings
        left over — non-``str`` values, ``text`` / ``numeric`` / ``date`` /
        ``_score`` outputs — are checked with ``_loose_equal`` on its
        columns, and a binding's tuples are its batch.  The whole call is
        one read of the store.
        """
        with self.store.reading() as store:
            template, limit = query.template, query.limit
            batch = [b or {} for b in bindings_batch]
            paths = {variable: path for variable, path in query.output_fields}

            def keyword(path: str) -> bool:
                config = store.field_config(path)
                return limit is None and config is not None and config.field_type == "keyword"

            pooled = {var: path for var, path in template.clause_parameters.items()
                      if keyword(path) and all(var in b for b in batch)}
            in_lists = {var: [b[var] for b in batch] for var in pooled}
            others = sorted(template.parameters - set(pooled))
            post = {variable: (path if keyword(path) else None, i) for i, (variable, path)
                    in enumerate(paths.items()) if variable not in template.parameters}
            groups: dict[tuple, list[int]] = {}
            for index, b in enumerate(batch):
                key = tuple([str(b[var]) if var in b else None for var in others])
                groups.setdefault(key, []).append(index)
            results: list[list[BindingBatch]] = [[] for _ in batch]
            project, header = _row_projector(store, paths.values()), tuple(paths)
            rank, bucket, sort_by = store.rank, store.keyword_documents, query.sort_by
            for indices in groups.values():
                bound = template.bind(batch[indices[0]], in_lists)
                matches, score = store.matches(bound), store.scorer(bound)
                top = None if limit is None else rank(matches, score, sort_by, limit=limit)
                for index in indices:
                    b = batch[index]
                    buckets = [bucket(path, str(b[var]).lower()) for var, path in pooled.items()]
                    checks = []
                    for variable, value in b.items():
                        if (spec := post.get(variable)) is None:
                            continue
                        if spec[0] is not None and isinstance(value, str):
                            buckets.append(bucket(spec[0], value.lower()))
                        else:
                            checks.append((spec[1], value))
                    if top is None:
                        found = matches
                        buckets.sort(key=len)  # each ``&`` costs the smaller operand
                        for ids in buckets:
                            found = ids & found
                        if not found:
                            continue
                        ranked = rank(found, score, sort_by)
                    else:
                        ranked = top
                    if not ranked:
                        continue
                    rows = project(ranked)
                    if checks:
                        rows = [values for values in rows if all(
                            _loose_equal(values[i], value) for i, value in checks)]
                    results[index] = as_answer(header, rows)
            return results

    def estimate(self, query: SourceQuery, bound_variables: set[str] | None = None) -> float:
        if not isinstance(query, FullTextQuery):
            return float("inf")
        bound_variables = bound_variables or set()
        base = float(self.size() if query.limit is None else query.limit)
        # One factor per distinct parameter and per constant clause naming
        # its field (a bare default-field term is not counted).
        restrictions = len(query.template.parameters) + sum(
            1 for clause in query.template.conjuncts
            if not isinstance(clause, (Parameter, MatchAllQuery))
            and getattr(clause, "field", "") is not None)
        for _ in range(restrictions):
            base = max(1.0, base / 20.0)
        for _ in query.output_variables() & bound_variables:
            base = max(1.0, base / 10.0)
        return base

    def derive_estimate(self, query: FullTextQuery, bound: set[str],
                        values: Row) -> Optional[float]:
        """Document-frequency estimate of a conjunctive template over the
        inverted index; ``None`` for a clause it cannot price."""
        with self.store.reading() as store:
            total = len(store)
            if total == 0:
                return 0.0
            # Constant clauses intersect their postings *exactly* (the indexes
            # are in memory), so correlated or disjoint terms are priced right;
            # only run-time parameters fall back to selectivity arithmetic.
            matched: Optional[set] = None
            selectivity = 1.0
            for clause in query.template.conjuncts:
                if isinstance(clause, MatchAllQuery):
                    continue
                if not isinstance(clause, (TermQuery, Parameter)):
                    return None
                path = clause.field or store.default_field
                if path is None:
                    return None
                if isinstance(clause, TermQuery):
                    term = clause.term
                elif clause.name in values:
                    term = str(values[clause.name])
                else:
                    average = store.average_document_frequency(path)
                    if average is None:
                        return None
                    selectivity *= min(1.0, average / total)
                    continue
                documents = store.term_documents(path, term)
                if documents is None:
                    return None
                matched = documents if matched is None else matched & documents
            base = float(len(matched)) if matched is not None else float(total)
            cardinality = base * selectivity
            fields = query.fields()
            required = query.required_parameters()
            for variable in (query.output_variables() & bound) - required:
                path = fields.get(variable)
                if path is None or path == "_score":
                    cardinality *= 0.1
                    continue
                if variable in values:
                    frequency = store.document_frequency(path, str(values[variable]))
                    if frequency is not None:
                        cardinality *= frequency / total
                        continue
                distinct = store.distinct_term_count(path)
                if distinct:
                    cardinality /= distinct
                else:
                    cardinality *= 0.1
            if query.limit is not None:
                cardinality = min(cardinality, float(query.limit))
            return max(0.0, cardinality)

    def derive_digest(self, summarize=ValueSetSummary) -> SourceDigest:
        """One node per dataguide path of the collection, all joined: an
        analysed text field is valued with its (unstemmed) tokens, the
        surface forms users type; any other with its stored values."""
        with self.store.reading() as store:
            digest = SourceDigest(self.uri, self.model, version=self.version())
            documents = store.documents()
            dataguide = JSONDataguide.build(documents, name=store.name)
            nodes = []
            for path in dataguide.path_names():
                config = store.field_config(path)
                if config is not None and config.field_type == "text":
                    values = [token for text in store.field_values(path)
                              for token in store.analyzer.analyze(str(text)).tokens]
                else:
                    values = store.field_values(path) or [
                        v for document in documents for v in _leaf_values(document, path)]
                nodes.append(digest.add_node(DigestNode(self.uri, store.name, path, kind="field"),
                                             summarize(values)))
        digest.link_all(nodes)
        digest.metadata["dataguide_paths"] = len(dataguide)
        digest.metadata["documents"] = len(documents)
        return digest

    def keyword_atom(self, nodes: list[DigestNode], variables: dict, hits: dict) -> tuple:
        """A conjunction of ``path:{k}`` clauses, one bound constant per
        hit, projecting the path's fields and the default text field."""
        store = self.store
        clauses: list[str] = []
        constants: dict[str, object] = {}
        fields: dict[str, str] = {}
        for node in nodes:
            hit = hits.get(node)
            if hit is not None:
                parameter = f"k{len(constants)}"
                constants[parameter] = hit.value
                clauses.append(f"{node.position}:{{{parameter}}}")
            fields[variables[node]] = node.position
        # Always expose the default text field so journalists see the content.
        if store.default_field and store.default_field not in fields.values():
            fields[f"txt_{safe_name(store.name)}"] = store.default_field
        query = FullTextQuery.create(" AND ".join(clauses) if clauses else "*:*", fields)
        return f"ft_{safe_name(store.name)}", query, constants

    def repair_delta(self, query: FullTextQuery, records: list, engine):
        """A query without ``limit``, ``sort_by`` or a ``_score`` output
        repairs.  A document's rows are its own, so inserts, upserts and
        removals all do: an entry gains the rows of the copies the chain
        wrote and loses those of the copies it replaced
        (:meth:`_delta_sources`)."""
        if query.limit is not None or query.sort_by is not None \
                or "_score" in query.fields().values():
            # Ranking, truncation and scores depend on corpus-global
            # statistics every insert perturbs.
            return "shape"
        return engine.spanned(self, records, self._delta_sources)

    def _delta_sources(self, records: list):
        """Wrappers over delta stores of the chain's net written and
        replaced copies (:func:`~repro.core.deltas.document_deltas`)."""
        store = self.store

        def over(documents):
            delta = empty_like(store, f"{store.name}+delta")
            delta.add_all(documents)
            return FullTextSource(self.uri, delta, name=self.name)

        return document_deltas(records, lambda doc: doc.doc_id, over)


def _row_projector(store: FullTextStore,
                   paths: Iterable[str]) -> Callable[[list[tuple[str, float]]], list[tuple]]:
    """The output values of ranked ``(doc id, score)`` hits, one per path.

    A declared field reads its cell of the hit's stored row, ``_score``
    the score it is given, and an undeclared dotted path is read off the
    document into a cell the way the store fills a row (a one-value list
    as its value, a longer one as a tuple).  Without ``_score`` and
    undeclared paths, hits are mapped through C builtins alone."""
    paths, layout = tuple(paths), store.stored_fields
    at = {name: i for i, name in enumerate(layout)}
    at["_score"] = len(layout)
    extra = tuple(dict.fromkeys(path for path in paths if path not in at))
    at.update((path, len(layout) + 1 + i) for i, path in enumerate(extra))
    pick, rows = tuple_getter([at[path] for path in paths]), store.stored_rows()
    if not extra and "_score" not in paths:
        return lambda ranked: list(map(pick, map(rows.__getitem__, map(itemgetter(0), ranked))))
    read, get = row_builder(extra), store.get
    return lambda ranked: [
        pick(rows[doc_id] + (score,) + (read(get(doc_id).fields) if extra else ()))
        for doc_id, score in ranked]


def _leaf_values(document, path: str) -> list[object]:
    value = document.get(path)
    if value is None:
        return []
    return list(value) if isinstance(value, list) else [value]


def _loose_equal(left: object, right: object) -> bool:
    """Does the stored value ``left`` match the binding ``right``?

    A ``str`` binding is compared the way the store's keyword index
    files a value — ``str(v).lower()``, any one value of a multi-valued
    field, a missing value never — so the documents a binding finds
    through the index are the ones this check keeps.
    """
    if left == right:
        return True
    if isinstance(left, tuple):
        return any(_loose_equal(item, right) for item in left)
    if isinstance(right, str) and left is not None:
        return str(left).lower() == right.lower()
    return False
