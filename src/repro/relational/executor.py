"""Execution of parsed SELECT statements against a :class:`Database`.

A statement is compiled on every call: each column reference resolves
once, against the catalog's layout (``alias.column`` -> tuple position),
and every clause becomes a closure run over the stored row tuples.  A
join concatenates tuples (hashed on one position for a column equality,
a nested loop otherwise); a group is its first row extended by its
aggregate values.  ``tests/sql_reference.py`` keeps the dict-scope
interpreter this replaced, as the reference the tests compare against.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.errors import RelationalError
from repro.relational.ast import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Join,
    LiteralValue,
    Parameter,
    SelectItem,
    SelectStatement,
    TableRef,
    UnaryOp,
)
from repro.relational.table import Table

#: A compiled expression: the value it takes on one row tuple.
Compiled = Callable[[tuple], object]


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

    def execute(self, statement: SelectStatement) -> ResultSet:
        """Run ``statement`` (its parameters, if it had any, already bound)."""
        rows, layout, width = self._from(statement)
        scope = _Scope(layout)
        if statement.where is not None:
            rows = filter(scope.compile(statement.where), rows)
        items = self._expand_stars(statement, layout)
        columns = [item.output_name() for item in items]
        grouped = bool(statement.group_by) or any(
            item.expression.aggregates() for item in statement.items if not item.star)
        if grouped:
            rows, scope = self._group(statement, items, rows, scope, width)
        project = _tuple_builder(scope, [item.expression for item in items])
        if statement.order_by:
            # Stable: rows tied on every term keep their input order.
            sort_key = self._sort_key(statement, items, scope, grouped)
            keyed = sorted([(project(row), sort_key(row)) for row in rows],
                           key=operator.itemgetter(1))
            rows = [row for row, _ in keyed]
        else:
            rows = list(map(project, rows))
        if statement.distinct:
            rows = list(dict.fromkeys(rows))
        if statement.limit is not None:
            rows = rows[: statement.limit]
        return ResultSet(columns=columns, rows=rows)

    # ------------------------------------------------------------------
    # FROM / JOIN
    # ------------------------------------------------------------------
    def _from(self, statement: SelectStatement) -> tuple[Iterable[tuple], dict[str, int], int]:
        """The joined input rows, their layout and their width."""
        if statement.table is None:
            return [()], {}, 0
        rows, layout = self._source(statement.table)
        width = len(layout)
        for join in statement.joins:
            right, right_layout = self._source(join.table)
            # A repeated alias.column names the right table's copy.
            layout = {**layout, **{key: width + position
                                   for key, position in right_layout.items()}}
            rows = _join(rows, right, join, _Scope(layout), width, len(right_layout))
            width += len(right_layout)
        return rows, layout, width

    def _source(self, ref: TableRef) -> tuple[Table, dict[str, int]]:
        """A table and its layout: ``alias.column`` -> position in its rows."""
        table = self._tables.get(ref.name.lower())
        if table is None:
            raise RelationalError(f"unknown table {ref.name!r}")
        alias = ref.effective_alias.lower()
        return table, {f"{alias}.{name.lower()}": position
                       for position, name in enumerate(table.schema.column_names())}

    # ------------------------------------------------------------------
    # Aggregation / ordering
    # ------------------------------------------------------------------
    def _group(self, statement: SelectStatement, items: list[SelectItem],
               rows: Iterable[tuple], scope: "_Scope", width: int) -> tuple[list[tuple], "_Scope"]:
        """One row per group: its first input row (NULLs for an empty
        group) extended by the group's aggregate values, filtered by
        HAVING; and the scope that reads those rows."""
        calls: dict[str, FunctionCall] = {}
        for expression in [*(item.expression for item in items), statement.having,
                           *(order.expression for order in statement.order_by)]:
            for call in expression.aggregates() if expression is not None else ():
                calls.setdefault(call.result_key(), call)
        arguments = [scope.compile(call.arguments[0])
                     if call.arguments and not call.star else None
                     for call in calls.values()]
        groups: dict[tuple, list[tuple]] = {}
        if statement.group_by:
            group_key = _tuple_builder(scope, statement.group_by)
            for row in rows:
                groups.setdefault(group_key(row), []).append(row)
        else:
            groups[()] = list(rows)
        empty = (None,) * width
        grouped = [(members[0] if members else empty) + tuple(
            compute_aggregate(call, members if argument is None else list(map(argument, members)))
            for call, argument in zip(calls.values(), arguments))
            for members in groups.values()]
        scope = _Scope(scope.layout, {key: width + i for i, key in enumerate(calls)})
        if statement.having is not None:
            grouped = list(filter(scope.compile(statement.having), grouped))
        return grouped, scope

    def _sort_key(self, statement: SelectStatement, items: list[SelectItem],
                  scope: "_Scope", grouped: bool) -> Compiled:
        """ORDER BY over the rows being projected: an output name first,
        then an input column.  Under DISTINCT or aggregation a term may
        read only outputs, group keys and aggregates."""
        outputs: dict[str, Compiled] = {}
        for item in items:
            outputs.setdefault(item.output_name().lower(), scope.compile(item.expression))
        if statement.distinct or grouped:
            allowed = [item.expression for item in items] + list(statement.group_by)
            for order in statement.order_by:
                _check_sortable(order.expression, allowed, outputs, scope)
        order_scope = _Scope(scope.layout, scope.aggregates, outputs)
        terms = [(order_scope.compile(order.expression), order.descending)
                 for order in statement.order_by]
        return lambda row: tuple([_Reversible(term(row), descending)
                                  for term, descending in terms])

    # ------------------------------------------------------------------
    def _expand_stars(self, statement: SelectStatement,
                      layout: dict[str, int]) -> list[SelectItem]:
        items: list[SelectItem] = []
        for item in statement.items:
            if not item.star:
                items.append(item)
                continue
            prefix = item.star_table.lower() + "." if item.star_table else ""
            for key in layout:
                if key.startswith(prefix):
                    table, name = key.split(".", 1)
                    items.append(SelectItem(expression=ColumnRef(name=name, table=table),
                                            alias=name))
        if not items:
            raise RelationalError("SELECT produced no output columns")
        return items


def _join(left: Iterable[tuple], right: Iterable[tuple], join: Join, scope: "_Scope",
          width: int, right_width: int) -> list[tuple]:
    """``left`` rows (``width`` wide) joined with ``right`` rows, as
    ``scope`` lays out the concatenated tuples: left order, then right
    order; an unmatched left row of a LEFT join is padded with NULLs."""
    pad = (None,) * right_width if join.kind == "LEFT" else None
    joined: list[tuple] = []
    sides = _equi_join_positions(join.condition, scope, width)
    if sides is not None:
        # The nested loop's ``=`` over one column of each input, hashed.
        left_position, right_position = sides
        buckets: dict[object, list[tuple]] = {}
        for row in right:
            buckets.setdefault(row[right_position], []).append(row)
        for row in left:
            matches = buckets.get(row[left_position])
            if matches:
                joined.extend([row + match for match in matches])
            elif pad is not None:
                joined.append(row + pad)
        return joined
    keep = None if join.condition is None else scope.compile(join.condition)
    right = list(right)
    for row in left:
        matched = False
        for match in right:
            combined = row + match
            if keep is None or keep(combined):
                joined.append(combined)
                matched = True
        if not matched and pad is not None:
            joined.append(row + pad)
    return joined


def _equi_join_positions(condition: Expression | None, scope: "_Scope",
                         width: int) -> tuple[int, int] | None:
    """For an ON condition ``a.x = b.y`` reading one column of each input
    (the left one ``width`` wide), the left position and the right one
    within a right row; None otherwise."""
    if not (isinstance(condition, BinaryOp) and condition.operator == "="
            and isinstance(condition.left, ColumnRef)
            and isinstance(condition.right, ColumnRef)):
        return None
    first, second = sorted(map(scope.position, (condition.left, condition.right)))
    return (first, second - width) if first < width <= second else None


class _Scope:
    """What a compiled expression may read: input columns by position,
    aggregate values by position (in a group row) and, for ORDER BY,
    output columns by name."""

    def __init__(self, layout: dict[str, int], aggregates: dict[str, int] | None = None,
                 outputs: dict[str, Compiled] | None = None):
        self.layout = layout
        self.aggregates = aggregates or {}
        self.outputs = outputs or {}

    def position(self, ref: ColumnRef) -> int:
        """Resolve ``ref``: its qualified name, else a unique ``alias.name``."""
        key = ref.qualified.lower()
        if key in self.layout:
            return self.layout[key]
        if ref.table is None:
            suffix = "." + ref.name.lower()
            matches = [k for k in self.layout if k.endswith(suffix)]
            if len(matches) == 1:
                return self.layout[matches[0]]
            if len(matches) > 1:
                raise RelationalError(f"ambiguous column reference {ref.name!r}")
        raise RelationalError(f"unknown column {ref.qualified!r}")

    def _column(self, node: Expression) -> int | None:
        """The position ``node`` reads, when it is a bare input column."""
        if isinstance(node, ColumnRef) and node.qualified.lower() not in self.outputs:
            return self.position(node)
        return None

    def compile(self, node: Expression) -> Compiled:
        """``node`` as a closure over one row tuple."""
        if isinstance(node, ColumnRef):
            output = self.outputs.get(node.qualified.lower())
            return output or operator.itemgetter(self.position(node))
        if isinstance(node, LiteralValue):
            value = node.value
            return lambda row: value
        if isinstance(node, BinaryOp):
            return self._binary(node)
        if isinstance(node, UnaryOp):
            operand = self.compile(node.operand)
            if node.operator == "NOT":
                return lambda row: not operand(row)
            if node.operator == "-":
                def negate(row: tuple) -> object:
                    value = operand(row)
                    try:
                        return None if value is None else -value
                    except TypeError as exc:
                        raise _type_error("-", exc) from None
                return negate
            raise RelationalError(f"unsupported unary operator {node.operator!r}")
        if isinstance(node, IsNull):
            operand, negated = self.compile(node.operand), node.negated
            return lambda row: (operand(row) is None) is not negated
        if isinstance(node, InList):
            return self._in_list(node)
        if isinstance(node, FunctionCall):
            return self._function(node)
        if isinstance(node, Parameter):
            raise RelationalError(f"parameter {{{node.name}}} is not bound")
        raise RelationalError(f"cannot evaluate {node!r}")

    def _binary(self, node: BinaryOp) -> Compiled:
        op = node.operator
        position = self._column(node.left)
        if op == "=" and position is not None and isinstance(node.right, LiteralValue):
            value = node.right.value
            return lambda row: row[position] == value
        left, right = self.compile(node.left), self.compile(node.right)
        if op == "AND":
            return lambda row: bool(left(row)) and bool(right(row))
        if op == "OR":
            return lambda row: bool(left(row)) or bool(right(row))
        if op in ("=", "=="):
            return lambda row: left(row) == right(row)
        if op in ("!=", "<>"):
            return lambda row: left(row) != right(row)
        if op == "LIKE":
            escape = node.escape
            return lambda row: _like(left(row), right(row), escape)
        apply = _NULL_PROPAGATING.get(op)
        if apply is None:
            raise RelationalError(f"unsupported operator {op!r}")

        def null_propagating(row: tuple) -> object:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            try:
                return apply(a, b)
            except TypeError as exc:
                raise _type_error(op, exc) from None
        return null_propagating

    def _in_list(self, node: InList) -> Compiled:
        constants, per_row = node._members
        negated = node.negated
        position = None if per_row else self._column(node.operand)
        if position is not None:
            return lambda row: (row[position] in constants) is not negated
        operand = self.compile(node.operand)
        members = [self.compile(value) for value in per_row]

        def contains(row: tuple) -> bool:
            value = operand(row)
            return (value in constants or (
                bool(members) and value in {member(row) for member in members})) is not negated
        return contains

    def _function(self, node: FunctionCall) -> Compiled:
        name = node.name.upper()
        if node.is_aggregate:
            position = self.aggregates.get(node.result_key())
            if position is None:
                raise RelationalError(f"aggregate {name} used outside GROUP BY evaluation")
            return operator.itemgetter(position)
        function = _SCALAR_FUNCTIONS.get(name)
        if function is None:
            raise RelationalError(f"unsupported function {node.name!r}")
        arguments = [self.compile(argument) for argument in node.arguments]

        def call(row: tuple) -> object:
            try:
                return function([argument(row) for argument in arguments])
            except TypeError as exc:
                raise _type_error(name, exc) from None
        return call


def _tuple_builder(scope: _Scope, expressions: list[Expression]) -> Compiled:
    """One tuple of ``expressions``' values per row: ``itemgetter`` when
    every expression is a bare column."""
    positions = [scope._column(expression) for expression in expressions]
    if None not in positions:
        if len(positions) == 1:
            position = positions[0]
            return lambda row: (row[position],)
        return operator.itemgetter(*positions)
    compiled = [scope.compile(expression) for expression in expressions]
    return lambda row: tuple([value(row) for value in compiled])


def _check_sortable(term: Expression, allowed: list[Expression],
                    outputs: dict[str, Compiled], scope: _Scope) -> None:
    """Raise unless ``term`` reads only outputs, group keys and aggregates."""
    if term in allowed or (isinstance(term, FunctionCall) and term.is_aggregate):
        return
    if isinstance(term, ColumnRef):
        if term.qualified.lower() in outputs or scope.position(term) in {
                scope.position(e) for e in allowed if isinstance(e, ColumnRef)}:
            return
        raise RelationalError(f"ORDER BY {term.qualified!r} is not an output, "
                              "a group key or an aggregate")
    for child in term.children():
        _check_sortable(child, allowed, outputs, scope)


def compute_aggregate(call: FunctionCall, values: list[object]) -> object:
    """One aggregate over the values its argument takes in a group (for
    ``COUNT(*)``, one entry per row).  Other aggregates skip NULLs, as in
    SQL; ``DISTINCT`` is honoured for every aggregate."""
    name = call.name.upper()
    if call.star:
        if name != "COUNT":
            raise RelationalError(f"{name}(*) is not a valid aggregate")
        return len(values)
    if not call.arguments:
        raise RelationalError(f"aggregate {name} needs an argument")
    values = [v for v in values if v is not None]
    if call.distinct:
        values = list(dict.fromkeys(values))
    if name == "COUNT":
        return len(values)
    if not values:
        return None
    function = _AGGREGATES.get(name)
    if function is None:
        raise RelationalError(f"unsupported aggregate {name}")
    try:
        return function(values)
    except TypeError as exc:
        raise _type_error(name, exc) from None


def _type_error(operation: str, exc: TypeError) -> RelationalError:
    """An operator, function or aggregate applied to a value of a type it
    does not take (``'a' + 1``, ``ABS('a')``): the statement is refused."""
    return RelationalError(f"{operation} cannot take these operands: {exc}")


#: Aggregates other than COUNT, each over a group's non-NULL values.
_AGGREGATES: dict[str, Callable[[list], object]] = {
    "SUM": sum,
    "AVG": lambda values: sum(values) / len(values),
    "MIN": min,
    "MAX": max,
}


def _round(arguments: list) -> object:
    digits = int(arguments[1]) if len(arguments) > 1 else 0
    return None if arguments[0] is None else round(arguments[0], digits)


#: Scalar functions, each over its argument values.
_SCALAR_FUNCTIONS: dict[str, Callable[[list], object]] = {
    "UPPER": lambda a: None if a[0] is None else str(a[0]).upper(),
    "LOWER": lambda a: None if a[0] is None else str(a[0]).lower(),
    "LENGTH": lambda a: None if a[0] is None else len(str(a[0])),
    "ABS": lambda a: None if a[0] is None else abs(a[0]),
    "ROUND": _round,
    "COALESCE": lambda a: next((value for value in a if value is not None), None),
}

#: Operators whose value is NULL when either operand is; ``/ 0`` is NULL too.
_NULL_PROPAGATING: dict[str, Callable[[object, object], object]] = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": lambda a, b: None if b == 0 else a / b,
}


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


def _like(value: object, pattern: object, escape: str | None = None) -> object:
    """SQL LIKE with ``%`` and ``_`` wildcards, case-insensitive; after the
    ``escape`` character, a character stands for itself."""
    if value is None or pattern is None:
        return None
    return _like_regex(str(pattern), escape).fullmatch(str(value)) is not None


@functools.lru_cache(maxsize=256)
def _like_regex(pattern: str, escape: str | None) -> re.Pattern:
    parts, characters = [], iter(pattern)
    for character in characters:
        if character == escape:
            character = next(characters, None)
            if character is None:
                raise RelationalError(f"LIKE pattern {pattern!r} ends with its escape")
            parts.append(re.escape(character))
        else:
            parts.append({"%": ".*", "_": "."}.get(character) or re.escape(character))
    return re.compile("".join(parts), flags=re.IGNORECASE)
