"""The relational source wrapper: SQL sub-queries over a database, for
the mediator (:mod:`repro.core.sources`)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from repro.cache.keys import CanonicalQuery
from repro.core.deltas import INSERT
from repro.core.sources import DataSource, SourceQuery, _instrumented
from repro.digest.graph import DigestNode, SourceDigest, safe_name
from repro.digest.valueset import ValueSetSummary
from repro.engine.batch import BindingBatch, Row, as_answer, tuple_getter
from repro.relational.ast import BinaryOp, ColumnRef, Expression, LiteralValue, Parameter
from repro.relational.database import Database
from repro.relational.template import SQLTemplate, sql_template

#: Default selectivity of a WHERE conjunct the estimator cannot price.
UNKNOWN_PREDICATE_SELECTIVITY = 1.0 / 3.0

#: Comparisons of a column the value-set summaries can price.
_COMPARISONS = ("=", "<=", ">=", "<>", "!=", "<", ">")


@dataclass(frozen=True)
class SQLQuery(SourceQuery):
    """A SQL SELECT over a relational source.

    ``sql`` is the statement as written: the form that travels over the
    remote wire and keys the caches.  What the mediator *knows* about it
    comes from :attr:`template`, the statement parsed once by the
    engine's own parser: its output column names (the executor's result
    labels) become mediator variables, and each ``{var}`` — a parameter
    node standing where a literal may, not text inside a quoted string —
    is a *required parameter*, bound by value at each call.  Bindings on
    plain output columns are applied as post-filters by the wrapper.
    Text the parser rejects raises :class:`~repro.errors.SQLParseError`
    the first time the query is analysed, i.e. at planning.
    """

    sql: str
    output_columns: tuple[str, ...] = ()
    model = "relational"

    @property
    def template(self) -> SQLTemplate:
        """The parsed statement (memoised per statement text)."""
        return sql_template(self.sql)

    def output_variables(self) -> set[str]:
        return set(self.output_columns or self.template.output_columns)

    def required_parameters(self) -> set[str]:
        return set(self.template.parameters)

    def derive_canonical(self) -> CanonicalQuery:
        # Keyed on the parsed statement: ``{x}`` inside a quoted string is a
        # literal, not a parameter, and must neither be renamed nor shared.
        template = self.template
        return CanonicalQuery("sql", (template.canonical_text, self.output_columns),
                              template.canonical_names)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return " ".join(self.sql.split())


class RelationalSource(DataSource):
    """Wrapper around a relational database source (INSEE-like)."""

    model = "relational"
    store_attribute = "database"

    def __init__(self, source_uri: str, database: Database, name: str | None = None,
                 description: str = ""):
        super().__init__(source_uri, name or database.name, description)
        self.database = database

    execute = DataSource.execute  # the class's own: benchmarks/e2e/spans.py wraps it

    @_instrumented
    def execute_batch(self, query: SourceQuery,
                      bindings_batch: Sequence[Row]) -> list[list[BindingBatch]]:
        """Batched SQL evaluation with native IN-list pushdown.

        Both strategies bind the parsed template by value: a binding is
        a literal *node* of the statement, never text to be re-lexed.

        * Every ``{var}`` occurs once, as a *top-level conjunct*
          ``col = {var}`` of the WHERE clause (necessary for a row,
          whatever sits beside it), with ``col`` echoed in the SELECT
          list and no LIMIT / GROUP BY / HAVING / aggregate — each
          equality becomes ``col IN (v1, ..., vk)``, the statement runs
          once, rows go to bindings through the echoed column.
        * Otherwise (an equality under ``OR`` / ``NOT`` or in a
          ``JOIN ... ON``, a range parameter) — one statement per
          distinct parameter tuple, values told apart by type as in the
          cache keys; a statement without parameters, or a lone binding,
          has one tuple, so it runs once.  Still a single mediator call.

        Either way each binding's rows are then cut out by the usual
        post-filters on output columns.
        """
        with self.database.reading() as database:
            batch = [dict(b or {}) for b in bindings_batch]
            template = query.template
            required = sorted(template.parameters)
            echoes = template.batch_echoes
            if len(batch) > 1 and echoes and all(
                    var in b and b[var] is not None and _scalar(b[var])
                    for b in batch for var in required):
                answer = _run(database, template.bind({}, in_lists={
                    var: dict.fromkeys(b[var] for b in batch) for var in required}))
                specs = []
                for b in batch:
                    spec = self._post_filters(query, b)
                    spec.extend((echoes[var], b[var]) for var in required)
                    specs.append(spec)
                return _partition_exact(answer, specs)

            # One execution per distinct (type-tagged) parameter tuple.
            groups: dict[tuple, list[int]] = {}
            for index, b in enumerate(batch):
                # A binding that lacks a parameter keys apart (shorter tuple)
                # and fails in ``bind``.
                values = [b[var] for var in required if var in b]
                key = tuple((type(v).__name__, v if _scalar(v) else repr(v))
                            for v in values)
                groups.setdefault(key, []).append(index)
            results: list[list[BindingBatch]] = [[] for _ in batch]
            for indices in groups.values():
                answer = _run(database, template.bind(batch[indices[0]]))
                parts = _partition_exact(answer, [self._post_filters(query, batch[i])
                                                  for i in indices])
                for index, part in zip(indices, parts):
                    results[index] = part
            return results

    def estimate(self, query: SourceQuery, bound_variables: set[str] | None = None) -> float:
        if not isinstance(query, SQLQuery):
            return float("inf")
        bound_variables = bound_variables or set()
        template = query.template
        estimate = 1.0
        with self.database.reading() as database:
            for table_name in template.tables:
                if database.has_table(table_name):
                    estimate *= max(1, len(database.table(table_name)))
        if template.statement.where is not None:
            estimate = max(1.0, estimate / 10.0)
        for _ in query.output_variables() & bound_variables:
            estimate = max(1.0, estimate / 10.0)
        for _ in template.parameters:
            estimate = max(1.0, estimate / 10.0)
        return estimate

    def derive_estimate(self, query: SQLQuery, bound: set[str],
                        values: Row) -> Optional[float]:
        """Histogram / top-k estimate of a SELECT over the column summaries
        of the shared digest (:meth:`digest`): top-k frequencies for
        equality predicates, equi-width histograms for ranges, distinct
        counts for join keys and parameter bindings; ``None`` for a shape
        it does not model."""
        template = query.template
        # Shapes the estimator does not model (OR / NOT / LIKE / IN, DISTINCT,
        # LIMIT, grouping, aggregates) go to the wrapper's fallback estimate.
        if not (template.conjunctive and template.batch_safe
                and not template.statement.distinct and template.tables):
            return None
        cardinality = 1.0
        with self.database.reading() as database:
            for table in template.tables:
                if not database.has_table(table):
                    return None
                cardinality *= max(1, len(database.table(table)))

        digest = self.digest()
        summaries = {(node.container.lower(), node.position.lower()): digest.values_of(node)
                     for node in digest.nodes}

        def resolve(column: ColumnRef) -> Optional[ValueSetSummary]:
            for table in [column.table] if column.table else template.tables:
                summary = summaries.get((table.lower(), column.name.lower()))
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

    def derive_digest(self, summarize=ValueSetSummary) -> SourceDigest:
        """One node per attribute, its column's values summarised; edges
        join the attributes of a table and follow each foreign key.  Read
        off one snapshot, so the digest is exactly its version's."""
        with self.database.snapshot().reading() as database:
            digest = SourceDigest(self.uri, self.model, version=database.version)
            nodes_by_column: dict[tuple[str, str], DigestNode] = {}
            for table in database.tables():
                table_nodes = []
                for column in table.schema.columns:
                    node = digest.add_node(
                        DigestNode(self.uri, table.name, column.name, kind="column"),
                        summarize(table.column_values(column.name)))
                    nodes_by_column[(table.name.lower(), column.name.lower())] = node
                    table_nodes.append(node)
                digest.link_all(table_nodes)
            for table in database.tables():
                for fk in table.schema.foreign_keys:
                    left = nodes_by_column.get((table.name.lower(), fk.column.lower()))
                    right = nodes_by_column.get((fk.referenced_table.lower(),
                                                 fk.referenced_column.lower()))
                    if left is not None and right is not None:
                        digest.add_edge(left, right, kind="foreign-key", weight=0.5)
            digest.metadata["tables"] = database.table_names()
        return digest

    def absorb_digest(self, digest: SourceDigest, records: list) -> Optional[SourceDigest]:
        """Insert-only records fold their rows into copies of the value sets
        of their table's columns
        (:meth:`~repro.digest.valueset.ValueSetSummary.absorb`), filed in a
        copy of ``digest``; a CREATE or DROP (a reset) does not fold."""
        if any(r.kind != INSERT or r.scope is None for r in records):
            return None
        absorbed = replace(digest, value_sets=dict(digest.value_sets))
        for record in records:
            for node in digest.nodes:
                if node.container.lower() == record.scope:
                    summary = absorbed.value_sets[node.key]
                    if summary is digest.value_sets[node.key]:  # first touch
                        summary = absorbed.value_sets[node.key] = summary.copy()
                    summary.absorb([row.get(node.position) for row in record.items])
        return absorbed

    def keyword_atom(self, nodes: list[DigestNode], variables: dict, hits: dict) -> tuple:
        """A SELECT of the path's columns of one table (the one holding a
        keyword hit, or the first), each hit a bound ``LIKE`` constant."""
        by_table: dict[str, list[DigestNode]] = {}
        for node in nodes:
            by_table.setdefault(node.container, []).append(node)
        # Keep the generated SQL simple: other tables reached through
        # separate atoms would need FK traversal.
        hit_tables = [t for t, ns in by_table.items() if any(n in hits for n in ns)]
        table = hit_tables[0] if hit_tables else next(iter(by_table))
        select_items = []
        conditions = []
        constants: dict[str, object] = {}
        for node in by_table[table]:
            select_items.append(f"{node.position} AS {variables[node]}")
            hit = hits.get(node)
            if hit is not None:
                # Bound as a value, never pasted into the SQL text; the
                # value's own ``%`` / ``_`` match only themselves.
                escaped = (str(hit.value).replace("\\", "\\\\").replace("%", "\\%")
                           .replace("_", "\\_"))
                parameter = f"k{len(constants)}"
                constants[parameter] = f"%{escaped}%"
                conditions.append(f"{node.position} LIKE {{{parameter}}} ESCAPE '\\'")
        sql = f"SELECT {', '.join(select_items)} FROM {table}"
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        return f"sql_{safe_name(table)}", SQLQuery(sql=sql), constants

    def repair_delta(self, query: SQLQuery, records: list, engine):
        """A single-table SELECT without joins, aggregates, GROUP BY,
        HAVING, ORDER BY, LIMIT or DISTINCT repairs.  Insert-only deltas
        *scoped to the queried table* are evaluated by running the very
        same SQL against a one-table delta database (reusing the wrapper's
        placeholder and post-filter semantics); deltas scoped to other
        tables leave the rows as they are — the database-wide version
        moved, the rows did not."""
        if not query.template.repair_simple:
            return "shape"
        table = query.template.tables[0].lower()
        relevant = [r for r in records if r.scope is None or r.scope == table]
        if not relevant:
            return None
        if any(r.kind != INSERT for r in relevant):
            # A RESET (a CREATE or DROP) replaces a whole table.
            return "removals"
        return engine.spanned(self, records, self._delta_sources)

    def _delta_sources(self, records: list) -> tuple["RelationalSource", None]:
        """A one-off database holding only the chain's inserted rows.

        Every table with journalled inserts is created under the live
        schema, so any simple single-table SELECT of the workload can run
        against it unmodified.
        """
        delta_db = Database(f"{self.database.name}+delta")
        with self.database.reading() as database:
            for record in records:
                if record.kind != INSERT or record.scope is None or not record.items:
                    continue
                if not delta_db.has_table(record.scope):
                    delta_db.create_table(database.table(record.scope).schema)
                delta_db.table(record.scope).insert_many(record.items)
        return RelationalSource(self.uri, delta_db, name=self.name), None


def _run(database, statement) -> BindingBatch:
    """The result as one batch; a repeated output name keeps its last value."""
    result = database.execute_select(statement)
    at = {column: i for i, column in enumerate(result.columns)}
    if len(at) == len(result.columns):
        return BindingBatch(result.columns, result.rows)
    return BindingBatch(at, list(map(tuple_getter(list(at.values())), result.rows)))


def _conjunct_selectivity(conjunct: Expression,
                          resolve: Callable[[ColumnRef], Optional[ValueSetSummary]],
                          values: Row) -> float:
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


def _scalar(value: object) -> bool:
    """True for values whose dict-key semantics match ``==`` filtering."""
    return value is None or isinstance(value, (str, int, float, bool))


def _partition_exact(answer: BindingBatch,
                     specs: list[list[tuple[str, object]]]) -> list[list[BindingBatch]]:
    """Distribute ``answer``'s rows to one answer per ``(column, value)`` spec.

    Matching uses plain ``==`` (the relational post-filter semantics);
    a hash index per distinct column tuple avoids rescanning the rows
    for every binding.  Rows are shared, never copied.
    """
    results: list[list[BindingBatch]] = []
    indexes: dict[tuple[str, ...], tuple[Callable, dict | None]] = {}
    for spec in specs:
        if not spec:
            results.append(as_answer(answer.columns, answer.rows))
            continue
        columns = tuple(c for c, _ in spec)
        if columns not in indexes:
            key_of, index = answer.projector(columns), {}
            for row in answer.rows:
                key = key_of(row)
                if not all(_scalar(v) for v in key):
                    index = None
                    break
                index.setdefault(key, []).append(row)
            indexes[columns] = key_of, index
        key_of, index = indexes[columns]
        wanted = tuple(v for _, v in spec)
        if index is not None and all(_scalar(v) for v in wanted):
            matched = index.get(wanted, [])
        else:
            matched = [row for row in answer.rows
                       if all(a == v for a, v in zip(key_of(row), wanted))]
        results.append(as_answer(answer.columns, matched))
    return results
