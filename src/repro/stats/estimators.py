"""Per-model cardinality estimators over digest structures.

Each function estimates the output cardinality of one sub-query against
one source, using only summaries the mediator already maintains:

* **relational** — per-column value-set summaries (top-k frequencies for
  equality predicates, equi-width histograms for ranges, distinct counts
  for join keys and parameter bindings);
* **RDF** — per-pattern triple counts from the graph's permutation
  indexes, with join-variable reductions from position distinct counts;
* **full-text** — inverted-index document frequencies per query clause.

JSON tree patterns have one estimator, the wrapper's own
(:meth:`repro.json.source.JSONSource.estimate`): its statistics are the
store's per-path indexes, which the wrapper already holds.

Every estimator returns ``None`` when it cannot derive a safe number
(unsupported syntax, unknown fields, empty metadata); the caller then
falls back to the wrapper's own ``estimate()``.  ``values`` carries the
*known* constant bindings of the atom, so equality predicates on
constants are priced from the actual value's frequency rather than an
average.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.fulltext.source import FullTextQuery, FullTextSource
from repro.rdf.source import RDFQuery, RDFSource, to_rdf_term
from repro.relational.source import RelationalSource, SQLQuery
from repro.digest.valueset import ValueSetSummary
from repro.fulltext.query import MatchAllQuery, Parameter as FullTextParameter, TermQuery
from repro.rdf.terms import URI, Variable
from repro.relational.ast import BinaryOp, ColumnRef, Expression, LiteralValue, Parameter

#: ``summary_for(table, column)`` -> the column's value-set summary.
ColumnSummaries = Callable[[str, str], Optional[ValueSetSummary]]

#: Default selectivity of a WHERE conjunct the estimator cannot price.
UNKNOWN_PREDICATE_SELECTIVITY = 1.0 / 3.0

#: Comparisons of a column the value-set summaries can price.
_COMPARISONS = ("=", "<=", ">=", "<>", "!=", "<", ">")


# ---------------------------------------------------------------------------
# Relational
# ---------------------------------------------------------------------------

def estimate_sql(source: RelationalSource, query: SQLQuery, bound: set[str],
                 values: dict[str, object],
                 summary_for: ColumnSummaries) -> Optional[float]:
    """Histogram/top-k estimate of a SQL SELECT, or ``None`` to fall back."""
    template = query.template
    # Shapes the estimator does not model (OR / NOT / LIKE / IN, DISTINCT,
    # LIMIT, grouping, aggregates) go to the wrapper's fallback estimate.
    if not (template.conjunctive and template.batch_safe
            and not template.statement.distinct and template.tables):
        return None
    database = source.database
    cardinality = 1.0
    for table in template.tables:
        if not database.has_table(table):
            return None
        cardinality *= max(1, len(database.table(table)))

    def resolve(column: ColumnRef) -> Optional[ValueSetSummary]:
        if column.table:
            return summary_for(column.table, column.name)
        for table in template.tables:
            summary = summary_for(table, column.name)
            if summary is not None:
                return summary
        return None

    selectivity = 1.0
    for conjunct in template.conjuncts:
        selectivity *= _conjunct_selectivity(conjunct, resolve, values)

    # Bindings arriving on plain output columns restrict the result to
    # one value of that column: 1/distinct, or the value's own frequency
    # when it is a known constant.
    for variable in (query.output_variables() & bound) - template.parameters:
        column = template.plain_outputs.get(variable)
        summary = resolve(column) if column is not None else None
        if summary is None:
            selectivity *= 0.1
        elif variable in values:
            selectivity *= summary.selectivity(values[variable])
        else:
            selectivity *= 1.0 / max(1, summary.distinct_values)
    return max(0.0, cardinality * selectivity)


def _conjunct_selectivity(conjunct: Expression,
                          resolve: Callable[[ColumnRef], Optional[ValueSetSummary]],
                          values: dict[str, object]) -> float:
    """Selectivity of one top-level WHERE conjunct (``column op operand``)."""
    if not (isinstance(conjunct, BinaryOp) and conjunct.operator in _COMPARISONS
            and isinstance(conjunct.left, ColumnRef)):
        return UNKNOWN_PREDICATE_SELECTIVITY
    op, rhs = conjunct.operator, conjunct.right
    summary = resolve(conjunct.left)
    if isinstance(rhs, Parameter) and rhs.name in values:
        rhs = LiteralValue(values[rhs.name])
    if op in ("<>", "!="):
        return 0.9
    if op == "=":
        if isinstance(rhs, LiteralValue):
            if summary is None:
                return 0.1
            return summary.selectivity(rhs.value)
        if isinstance(rhs, Parameter):
            if summary is None:
                return 0.1
            return 1.0 / max(1, summary.distinct_values)
        if isinstance(rhs, ColumnRef):
            right = resolve(rhs)
            distinct = max(
                summary.distinct_values if summary is not None else 0,
                right.distinct_values if right is not None else 0,
            )
            return 1.0 / max(1, distinct)
        return UNKNOWN_PREDICATE_SELECTIVITY
    # Range comparison: price from the histogram when the column is numeric.
    if isinstance(rhs, (LiteralValue, Parameter)):
        if (isinstance(rhs, LiteralValue) and summary is not None
                and isinstance(rhs.value, (int, float))):
            selectivity = summary.range_selectivity(op, float(rhs.value))
            if selectivity is not None:
                return selectivity
        return 0.3
    return UNKNOWN_PREDICATE_SELECTIVITY


# ---------------------------------------------------------------------------
# RDF
# ---------------------------------------------------------------------------

def estimate_bgp(source: RDFSource, query: RDFQuery, bound: set[str],
                 values: dict[str, object]) -> Optional[float]:
    """Index-count estimate of a BGP with join-variable reductions."""
    with source.effective_graph().reading() as graph:
        bgp = query.bgp
        if values:
            binding = {variable: to_rdf_term(values[variable.name])
                       for variable in bgp.variables() if variable.name in values}
            if binding:
                bgp = bgp.bind(binding)
        patterns = list(bgp.patterns)
        if not patterns:
            return 0.0
        counted = sorted((graph.count(p), i, p) for i, p in enumerate(patterns))
        if counted[0][0] == 0:
            return 0.0
        cardinality: Optional[float] = None
        seen: set[str] = set()
        for count, _, pattern in counted:
            names = _pattern_variables(pattern)
            if cardinality is None:
                cardinality = float(count)
            else:
                shared = names & seen
                if shared:
                    reduction = max(_distinct_at(graph, pattern, name)
                                    for name in shared)
                    cardinality *= count / max(1.0, reduction)
                else:
                    cardinality *= count
            seen |= names
        assert cardinality is not None
        # Mediator-bound variables with unknown values: each fixes the
        # variable to one of its distinct values.
        for name in (query.output_variables() & bound) - set(values):
            distincts = [_distinct_at(graph, p, name) for p in patterns
                         if name in _pattern_variables(p)]
            if distincts:
                cardinality /= max(1.0, max(distincts))
        return max(0.0, cardinality)


def _pattern_variables(pattern) -> set[str]:
    return {term.name for term in (pattern.subject, pattern.predicate, pattern.obj)
            if isinstance(term, Variable)}


def _distinct_at(graph, pattern, name: str) -> float:
    """Distinct values the graph holds at ``name``'s position in ``pattern``."""
    predicate = pattern.predicate if isinstance(pattern.predicate, URI) else None
    if isinstance(pattern.subject, Variable) and pattern.subject.name == name:
        obj = pattern.obj if not isinstance(pattern.obj, Variable) else None
        return float(len(graph.subjects(predicate=predicate, obj=obj)) or 1)
    if isinstance(pattern.obj, Variable) and pattern.obj.name == name:
        subject = pattern.subject if not isinstance(pattern.subject, Variable) else None
        return float(len(graph.objects(subject=subject, predicate=predicate)) or 1)
    return float(len(graph.predicates()) or 1)


# ---------------------------------------------------------------------------
# Full-text
# ---------------------------------------------------------------------------

def estimate_fulltext(source: FullTextSource, query: FullTextQuery,
                      bound: set[str],
                      values: dict[str, object]) -> Optional[float]:
    """Document-frequency estimate of a conjunctive full-text template."""
    with source.store.reading() as store:
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
            if not isinstance(clause, (TermQuery, FullTextParameter)):
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
