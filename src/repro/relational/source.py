"""The relational source wrapper: SQL sub-queries over a database, for
the mediator (:mod:`repro.core.sources`)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.sources import DataSource, SourceQuery, _instrumented
from repro.engine.batch import BindingBatch, Row, as_answer, dict_rows, tuple_getter
from repro.relational.database import Database
from repro.relational.template import SQLTemplate, sql_template


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

    def execute(self, query: SourceQuery, bindings: Row | None = None) -> list[Row]:
        return dict_rows(self.execute_batch(query, [bindings or {}])[0])

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
        batch = [dict(b or {}) for b in bindings_batch]
        template = query.template
        required = sorted(template.parameters)
        echoes = template.batch_echoes
        if len(batch) > 1 and echoes and all(var in b and b[var] is not None and _scalar(b[var])
                          for b in batch for var in required):
            answer = self._run(template.bind({}, in_lists={
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
            answer = self._run(template.bind(batch[indices[0]]))
            parts = _partition_exact(answer, [self._post_filters(query, batch[i])
                                              for i in indices])
            for index, part in zip(indices, parts):
                results[index] = part
        return results

    def _run(self, statement) -> BindingBatch:
        """The result as one batch; a repeated output name keeps its last value."""
        result = self.database.execute_select(statement)
        at = {column: i for i, column in enumerate(result.columns)}
        if len(at) == len(result.columns):
            return BindingBatch(result.columns, result.rows)
        return BindingBatch(at, list(map(tuple_getter(list(at.values())), result.rows)))

    def estimate(self, query: SourceQuery, bound_variables: set[str] | None = None) -> float:
        if not isinstance(query, SQLQuery):
            return float("inf")
        bound_variables = bound_variables or set()
        template = query.template
        estimate = 1.0
        for table_name in template.tables:
            if self.database.has_table(table_name):
                estimate *= max(1, len(self.database.table(table_name)))
        if template.statement.where is not None:
            estimate = max(1.0, estimate / 10.0)
        for _ in query.output_variables() & bound_variables:
            estimate = max(1.0, estimate / 10.0)
        for _ in template.parameters:
            estimate = max(1.0, estimate / 10.0)
        return estimate

    def size(self) -> int:
        return sum(len(t) for t in self.database.tables())


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
