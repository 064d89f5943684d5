"""Reference semantics of the SQL subset: the dict-scope interpreter.

Every input row is a *scope*, a dict from ``alias.column`` (lower case)
to its value, and every expression is walked node by node over it.  The
executor (``repro.relational.executor``) compiles a statement into
closures over row tuples instead; the differential in
``test_sql_differential.py`` holds the two to the same rows in the same
order.  Nothing here is tuned: one dict per row, one AST walk per
expression and row.

Beyond the per-row walk, the reference states the rules the executor
follows on every input, whatever its row count:

* a column is resolved (or reported unknown or ambiguous) against the
  catalog, not against the rows that happen to exist;
* a LEFT JOIN pads an unmatched row with NULLs for every column of the
  right table, even an empty one;
* ORDER BY reads an output name first, then an input column; under
  DISTINCT or aggregation a term may read only outputs, group keys and
  aggregates; DISTINCT keeps a row where it first sorts;
* an operator, function or aggregate given a value of a type it does
  not take (``'a' + 1``, ``ABS('a')``) refuses the statement with
  :class:`RelationalError`.
"""

from __future__ import annotations

import functools
import re

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
from repro.relational.executor import ResultSet

Scope = dict[str, object]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

def evaluate(node: Expression, scope: Scope) -> object:
    """The value of ``node`` on one row scope."""
    if isinstance(node, LiteralValue):
        return node.value
    if isinstance(node, Parameter):
        raise RelationalError(f"parameter {{{node.name}}} is not bound")
    if isinstance(node, ColumnRef):
        return column(node, scope)
    if isinstance(node, BinaryOp):
        return _binary(node, scope)
    if isinstance(node, UnaryOp):
        value = evaluate(node.operand, scope)
        if node.operator == "NOT":
            return not bool(value)
        if node.operator == "-":
            return None if value is None else _typed("-", lambda: -value)
        raise RelationalError(f"unsupported unary operator {node.operator!r}")
    if isinstance(node, IsNull):
        is_null = evaluate(node.operand, scope) is None
        return not is_null if node.negated else is_null
    if isinstance(node, InList):
        value = evaluate(node.operand, scope)
        result = value in {evaluate(member, scope) for member in node.values}
        return not result if node.negated else result
    if isinstance(node, FunctionCall):
        return _function(node, scope)
    raise RelationalError(f"cannot evaluate {node!r}")


def column(ref: ColumnRef, scope: Scope) -> object:
    """A column's value: its qualified key, else a unique ``alias.name``."""
    key = ref.qualified.lower()
    if key in scope:
        return scope[key]
    if ref.table is None:
        suffix = "." + ref.name.lower()
        matches = [k for k in scope if k.endswith(suffix)]
        if len(matches) == 1:
            return scope[matches[0]]
        if len(matches) > 1:
            raise RelationalError(f"ambiguous column reference {ref.name!r}")
    raise RelationalError(f"unknown column {ref.qualified!r}")


def _binary(node: BinaryOp, scope: Scope) -> object:
    op = node.operator
    if op == "AND":
        return bool(evaluate(node.left, scope)) and bool(evaluate(node.right, scope))
    if op == "OR":
        return bool(evaluate(node.left, scope)) or bool(evaluate(node.right, scope))
    left = evaluate(node.left, scope)
    right = evaluate(node.right, scope)
    if op in ("=", "=="):
        return left == right
    if op in ("!=", "<>"):
        return left != right
    if op == "LIKE":
        return _like(left, right, node.escape)
    if left is None or right is None:
        return None
    return _typed(op, lambda: _arithmetic(op, left, right))


def _arithmetic(op: str, left: object, right: object) -> object:
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None
        return left / right
    raise RelationalError(f"unsupported operator {op!r}")


def _typed(operation: str, compute):
    """``compute()``; a value of a type ``operation`` does not take
    (``'a' + 1``, ``ABS('a')``) refuses the statement."""
    try:
        return compute()
    except TypeError as exc:
        raise RelationalError(f"{operation} cannot take these operands: {exc}") from None


def _function(node: FunctionCall, scope: Scope) -> object:
    upper = node.name.upper()
    if node.is_aggregate:
        # The aggregation phase publishes the value under the call's key.
        key = node.result_key()
        if key in scope:
            return scope[key]
        raise RelationalError(f"aggregate {upper} used outside GROUP BY evaluation")
    arguments = [evaluate(a, scope) for a in node.arguments]
    return _typed(upper, lambda: _scalar(node, upper, arguments))


def _scalar(node: FunctionCall, upper: str, arguments: list[object]) -> object:
    if upper == "UPPER":
        return None if arguments[0] is None else str(arguments[0]).upper()
    if upper == "LOWER":
        return None if arguments[0] is None else str(arguments[0]).lower()
    if upper == "LENGTH":
        return None if arguments[0] is None else len(str(arguments[0]))
    if upper == "ABS":
        return None if arguments[0] is None else abs(arguments[0])
    if upper == "ROUND":
        digits = int(arguments[1]) if len(arguments) > 1 else 0
        return None if arguments[0] is None else round(arguments[0], digits)
    if upper == "COALESCE":
        for a in arguments:
            if a is not None:
                return a
        return None
    raise RelationalError(f"unsupported function {node.name!r}")


def _like(value: object, pattern: object, escape: str | None = None) -> object:
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


def compute_aggregate(call: FunctionCall, scopes: list[Scope]) -> object:
    """One aggregate over a group of row scopes; NULL inputs are skipped."""
    name = call.name.upper()
    if call.star:
        if name != "COUNT":
            raise RelationalError(f"{name}(*) is not a valid aggregate")
        return len(scopes)
    if not call.arguments:
        raise RelationalError(f"aggregate {name} needs an argument")
    values = [evaluate(call.arguments[0], scope) for scope in scopes]
    values = [v for v in values if v is not None]
    if call.distinct:
        seen: list[object] = []
        for value in values:
            if value not in seen:
                seen.append(value)
        values = seen
    if name == "COUNT":
        return len(values)
    if not values:
        return None
    if name == "SUM":
        return _typed(name, lambda: sum(values))
    if name == "AVG":
        return _typed(name, lambda: sum(values) / len(values))
    if name == "MIN":
        return _typed(name, lambda: min(values))
    if name == "MAX":
        return _typed(name, lambda: max(values))
    raise RelationalError(f"unsupported aggregate {name}")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class ReferenceExecutor:
    """Runs a SELECT one scope dict per row; same interface as
    :class:`repro.relational.executor.SelectExecutor`."""

    def __init__(self, tables):
        self._tables = {name.lower(): table for name, table in tables.items()}

    def execute(self, statement: SelectStatement) -> ResultSet:
        scopes, keys = self._from(statement)
        probe = {key: key for key in keys}
        _resolve_all([statement.where, *statement.group_by], probe)
        if statement.where is not None:
            scopes = [s for s in scopes if evaluate(statement.where, s)]
        items = self._expand_stars(statement, keys)
        _resolve_all([item.expression for item in items], probe)
        columns = [item.output_name() for item in items]
        grouped = bool(statement.group_by) or any(
            item.expression.aggregates() for item in statement.items if not item.star)
        if grouped:
            _resolve_all([statement.having], probe)
            pairs = self._aggregate(statement, items, scopes, keys)
        else:
            pairs = [(scope, tuple(evaluate(item.expression, scope) for item in items))
                     for scope in scopes]
        if statement.order_by:
            pairs = self._order(statement, items, pairs, probe, grouped)
        rows = [row for _, row in pairs]
        if statement.distinct:
            rows = list(dict.fromkeys(rows))
        if statement.limit is not None:
            rows = rows[: statement.limit]
        return ResultSet(columns=columns, rows=rows)

    # -- FROM / JOIN --------------------------------------------------------
    def _from(self, statement: SelectStatement) -> tuple[list[Scope], list[str]]:
        """Every input scope, and the keys a scope has (from the catalog)."""
        if statement.table is None:
            return [{}], []
        scopes, keys = self._table_scopes(statement.table)
        for join in statement.joins:
            scopes, keys = self._join(scopes, keys, join)
        return scopes, keys

    def _table_scopes(self, ref: TableRef) -> tuple[list[Scope], list[str]]:
        table = self._tables.get(ref.name.lower())
        if table is None:
            raise RelationalError(f"unknown table {ref.name!r}")
        alias = ref.effective_alias.lower()
        keys = [f"{alias}.{name.lower()}" for name in table.schema.column_names()]
        return [dict(zip(keys, row)) for row in table.rows], keys

    def _join(self, left_scopes: list[Scope], left_keys: list[str],
              join: Join) -> tuple[list[Scope], list[str]]:
        right_scopes, right_keys = self._table_scopes(join.table)
        keys = list(dict.fromkeys([*left_keys, *right_keys]))
        padding = dict.fromkeys(right_keys)
        condition = join.condition
        _resolve_all([condition], {key: key for key in keys})
        joined: list[Scope] = []
        for ls in left_scopes:
            matched = False
            for rs in right_scopes:
                combined = {**ls, **rs}
                if condition is None or evaluate(condition, combined):
                    joined.append(combined)
                    matched = True
            if not matched and join.kind == "LEFT":
                joined.append({**ls, **padding})
        return joined, keys

    # -- projection / aggregation / ordering --------------------------------
    def _expand_stars(self, statement: SelectStatement, keys: list[str]) -> list[SelectItem]:
        items: list[SelectItem] = []
        for item in statement.items:
            if not item.star:
                items.append(item)
                continue
            for key in keys:
                if item.star_table and not key.startswith(item.star_table.lower() + "."):
                    continue
                table, name = key.split(".", 1)
                items.append(SelectItem(expression=ColumnRef(name=name, table=table),
                                        alias=name))
        if not items:
            raise RelationalError("SELECT produced no output columns")
        return items

    def _aggregate(self, statement: SelectStatement, items: list[SelectItem],
                   scopes: list[Scope], keys: list[str]) -> list[tuple[Scope, tuple]]:
        groups: dict[tuple, list[Scope]] = {}
        if statement.group_by:
            for scope in scopes:
                key = tuple(evaluate(expr, scope) for expr in statement.group_by)
                groups.setdefault(key, []).append(scope)
        else:
            groups[()] = list(scopes)
        calls: list[FunctionCall] = []
        for expression in [*(item.expression for item in items), statement.having,
                           *(order.expression for order in statement.order_by)]:
            if expression is not None:
                calls.extend(expression.aggregates())
        pairs = []
        for group_scopes in groups.values():
            representative = dict(group_scopes[0]) if group_scopes else dict.fromkeys(keys)
            for call in calls:
                representative[call.result_key()] = compute_aggregate(call, group_scopes)
            if statement.having is not None and not evaluate(statement.having, representative):
                continue
            pairs.append((representative,
                          tuple(evaluate(item.expression, representative) for item in items)))
        return pairs

    def _order(self, statement: SelectStatement, items: list[SelectItem],
               pairs: list[tuple[Scope, tuple]], probe: dict[str, str],
               grouped: bool) -> list[tuple[Scope, tuple]]:
        names = [item.output_name().lower() for item in items]
        outputs = dict.fromkeys(names)
        if statement.distinct or grouped:
            allowed = [item.expression for item in items] + list(statement.group_by)
            for order in statement.order_by:
                _check_sortable(order.expression, allowed, outputs, probe)
        else:
            _resolve_all([order.expression for order in statement.order_by],
                         {**probe, **{name: name for name in outputs}})

        def sort_key(pair: tuple[Scope, tuple]) -> tuple:
            scope, row = pair
            named = {}
            for name, value in zip(names, row):
                named.setdefault(name, value)
            scope = {**scope, **named}
            return tuple(_Reversible(evaluate(order.expression, scope), order.descending)
                         for order in statement.order_by)

        return sorted(pairs, key=sort_key)


def _resolve_all(expressions: list[Expression | None], probe: dict[str, str]) -> None:
    """Resolve every column the expressions name against ``probe`` (a key
    -> key scope), so an unknown or ambiguous one raises on no rows too."""
    for expression in expressions:
        for node in expression.walk() if expression is not None else ():
            if isinstance(node, ColumnRef):
                column(node, probe)


def _check_sortable(term: Expression, allowed: list[Expression], outputs: dict,
                    probe: dict[str, str]) -> None:
    if term in allowed or (isinstance(term, FunctionCall) and term.is_aggregate):
        return
    if isinstance(term, ColumnRef):
        if term.qualified.lower() in outputs or column(term, probe) in {
                column(e, probe) for e in allowed if isinstance(e, ColumnRef)}:
            return
        raise RelationalError(f"ORDER BY {term.qualified!r} is not an output, "
                              "a group key or an aggregate")
    for child in term.children():
        _check_sortable(child, allowed, outputs, probe)


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
