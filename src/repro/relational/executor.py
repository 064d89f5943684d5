"""Execution of parsed SELECT statements against a :class:`Database`.

The executor produces :class:`ResultSet` objects: a list of output column
names plus rows (tuples).  Joins are evaluated with a hash join when the
ON condition is a simple equality between two column references, falling
back to a nested loop otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import RelationalError
from repro.relational.aggregates import compute_aggregate
from repro.relational.ast import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    Join,
    SelectItem,
    SelectStatement,
    TableRef,
)
from repro.relational.table import Table


@dataclass
class ResultSet:
    """Columnar query result: output names plus row tuples."""

    columns: list[str]
    rows: list[tuple] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def to_dicts(self) -> list[dict[str, object]]:
        """Rows as dictionaries keyed by output column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> list[object]:
        """Return one output column as a list."""
        try:
            index = self.columns.index(name)
        except ValueError as exc:
            raise RelationalError(f"result has no column {name!r}") from exc
        return [row[index] for row in self.rows]


class SelectExecutor:
    """Evaluates a :class:`SelectStatement` against a table catalog."""

    def __init__(self, tables: dict[str, Table]):
        self._tables = {name.lower(): table for name, table in tables.items()}

    # ------------------------------------------------------------------
    def execute(self, statement: SelectStatement) -> ResultSet:
        """Run ``statement`` (its parameters, if it had any, already bound)."""
        scopes = self._build_scopes(statement)
        if statement.where is not None:
            scopes = [s for s in scopes if _is_true(statement.where.evaluate(s))]

        if self._needs_aggregation(statement):
            rows, columns = self._aggregate(statement, scopes)
        else:
            rows, columns = self._project(statement, scopes)

        if statement.distinct:
            rows = list(dict.fromkeys(rows))
        if statement.order_by:
            rows = self._order(statement, rows, columns)
        if statement.limit is not None:
            rows = rows[: statement.limit]
        return ResultSet(columns=columns, rows=rows)

    # ------------------------------------------------------------------
    # FROM / JOIN
    # ------------------------------------------------------------------
    def _build_scopes(self, statement: SelectStatement) -> list[dict[str, object]]:
        if statement.table is None:
            return [{}]
        scopes = self._table_scopes(statement.table)
        for join in statement.joins:
            scopes = self._apply_join(scopes, join)
        return scopes

    def _table_scopes(self, ref: TableRef) -> list[dict[str, object]]:
        table = self._table(ref.name)
        alias = ref.effective_alias.lower()
        names = [c.lower() for c in table.schema.column_names()]
        scopes = []
        for row in table.rows:
            scope = {f"{alias}.{name}": value for name, value in zip(names, row)}
            scopes.append(scope)
        return scopes

    def _apply_join(self, left_scopes: list[dict[str, object]], join: Join) -> list[dict[str, object]]:
        right_scopes = self._table_scopes(join.table)
        condition = join.condition
        equi = _equi_join_columns(condition) if condition is not None else None

        joined: list[dict[str, object]] = []
        if equi is not None:
            left_key, right_key = self._resolve_equi_sides(equi, left_scopes, right_scopes)
            if left_key is not None and right_key is not None:
                buckets: dict[object, list[dict[str, object]]] = {}
                for rs in right_scopes:
                    buckets.setdefault(rs.get(right_key), []).append(rs)
                for ls in left_scopes:
                    matches = buckets.get(ls.get(left_key), [])
                    for rs in matches:
                        joined.append({**ls, **rs})
                    if not matches and join.kind == "LEFT":
                        joined.append({**ls, **{k: None for k in (right_scopes[0] if right_scopes else {})}})
                return joined

        # Fallback: nested loop.
        right_columns = list(right_scopes[0].keys()) if right_scopes else []
        for ls in left_scopes:
            matched = False
            for rs in right_scopes:
                combined = {**ls, **rs}
                if condition is None or _is_true(condition.evaluate(combined)):
                    joined.append(combined)
                    matched = True
            if not matched and join.kind == "LEFT":
                joined.append({**ls, **{k: None for k in right_columns}})
        return joined

    def _resolve_equi_sides(self, equi: tuple[ColumnRef, ColumnRef],
                            left_scopes: list[dict[str, object]],
                            right_scopes: list[dict[str, object]]) -> tuple[str | None, str | None]:
        """Figure out which side of an equality belongs to which input."""
        left_columns = set(left_scopes[0]) if left_scopes else set()
        right_columns = set(right_scopes[0]) if right_scopes else set()
        first, second = equi
        first_key = _scope_key(first, left_columns) or _scope_key(first, right_columns)
        second_key = _scope_key(second, left_columns) or _scope_key(second, right_columns)
        if first_key in left_columns and second_key in right_columns:
            return first_key, second_key
        if second_key in left_columns and first_key in right_columns:
            return second_key, first_key
        return None, None

    # ------------------------------------------------------------------
    # Projection / aggregation
    # ------------------------------------------------------------------
    def _project(self, statement: SelectStatement,
                 scopes: list[dict[str, object]]) -> tuple[list[tuple], list[str]]:
        items = self._expand_stars(statement, scopes)
        columns = [item.output_name() for item in items]
        rows = [tuple(item.expression.evaluate(scope) for item in items) for scope in scopes]
        return rows, columns

    def _needs_aggregation(self, statement: SelectStatement) -> bool:
        if statement.group_by:
            return True
        return any(item.expression.aggregates() for item in statement.items if not item.star)

    def _aggregate(self, statement: SelectStatement,
                   scopes: list[dict[str, object]]) -> tuple[list[tuple], list[str]]:
        items = self._expand_stars(statement, scopes)
        columns = [item.output_name() for item in items]

        groups: dict[tuple, list[dict[str, object]]] = {}
        if statement.group_by:
            for scope in scopes:
                key = tuple(expr.evaluate(scope) for expr in statement.group_by)
                groups.setdefault(key, []).append(scope)
        else:
            groups[()] = list(scopes)

        aggregate_calls: list[FunctionCall] = []
        for item in items:
            aggregate_calls.extend(item.expression.aggregates())
        if statement.having is not None:
            aggregate_calls.extend(statement.having.aggregates())

        rows: list[tuple] = []
        for key, group_scopes in groups.items():
            representative = dict(group_scopes[0]) if group_scopes else {}
            for call in aggregate_calls:
                representative[call.result_key()] = compute_aggregate(call, group_scopes)
            if statement.having is not None and not _is_true(statement.having.evaluate(representative)):
                continue
            rows.append(tuple(item.expression.evaluate(representative) for item in items))
        return rows, columns

    def _expand_stars(self, statement: SelectStatement,
                      scopes: list[dict[str, object]]) -> list[SelectItem]:
        items: list[SelectItem] = []
        available = list(scopes[0].keys()) if scopes else self._default_columns(statement)
        for item in statement.items:
            if not item.star:
                items.append(item)
                continue
            for key in available:
                if item.star_table and not key.startswith(item.star_table.lower() + "."):
                    continue
                name = key.split(".", 1)[1] if "." in key else key
                table = key.split(".", 1)[0] if "." in key else None
                items.append(SelectItem(expression=ColumnRef(name=name, table=table), alias=name))
        if not items:
            raise RelationalError("SELECT produced no output columns")
        return items

    def _default_columns(self, statement: SelectStatement) -> list[str]:
        keys: list[str] = []
        refs = [statement.table] if statement.table else []
        refs.extend(join.table for join in statement.joins)
        for ref in refs:
            table = self._table(ref.name)
            alias = ref.effective_alias.lower()
            keys.extend(f"{alias}.{c.lower()}" for c in table.schema.column_names())
        return keys

    # ------------------------------------------------------------------
    def _order(self, statement: SelectStatement, rows: list[tuple],
               columns: list[str]) -> list[tuple]:
        lowered = [c.lower() for c in columns]

        def sort_key(row: tuple):
            key = []
            scope = dict(zip(lowered, row))
            for item in statement.order_by:
                expression = item.expression
                if isinstance(expression, ColumnRef) and expression.qualified.lower() in lowered:
                    value = row[lowered.index(expression.qualified.lower())]
                else:
                    try:
                        value = expression.evaluate(scope)
                    except RelationalError:
                        value = None
                key.append(_Reversible(value, item.descending))
            return tuple(key)

        return sorted(rows, key=sort_key)

    def _table(self, name: str) -> Table:
        table = self._tables.get(name.lower())
        if table is None:
            raise RelationalError(f"unknown table {name!r}")
        return table


class _Reversible:
    """Sort key wrapper supporting per-item descending order and NULLs."""

    __slots__ = ("value", "descending")

    def __init__(self, value: object, descending: bool):
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_Reversible") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return not self.descending
        if b is None:
            return self.descending
        try:
            less = a < b
        except TypeError:
            less = str(a) < str(b)
        return (not less and a != b) if self.descending else less

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversible) and self.value == other.value


def _is_true(value: object) -> bool:
    return bool(value) and value is not None


def _equi_join_columns(condition: Expression) -> tuple[ColumnRef, ColumnRef] | None:
    """Detect ``a.x = b.y`` conditions eligible for a hash join."""
    if (isinstance(condition, BinaryOp) and condition.operator == "="
            and isinstance(condition.left, ColumnRef) and isinstance(condition.right, ColumnRef)):
        return condition.left, condition.right
    return None


def _scope_key(ref: ColumnRef, available: Iterable[str]) -> str | None:
    """Resolve a column reference to a scope key among ``available``."""
    available = set(available)
    if ref.table:
        key = ref.qualified.lower()
        return key if key in available else None
    suffix = "." + ref.name.lower()
    matches = [k for k in available if k.endswith(suffix)]
    return matches[0] if len(matches) == 1 else None
