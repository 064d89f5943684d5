"""Abstract syntax tree and expression evaluation for the SQL subset.

Expressions are evaluated against *row scopes*: dictionaries mapping
(optionally qualified) column names to values.  The same expression nodes
are reused by the executor's WHERE/HAVING/ON evaluation and by projection.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import RelationalError


class Expression:
    """Base class of every scalar expression node."""

    def evaluate(self, scope: dict[str, object]) -> object:
        """Evaluate the expression against a row scope."""
        raise NotImplementedError

    def children(self) -> tuple["Expression", ...]:
        """The direct sub-expressions, in source order."""
        return ()

    def walk(self) -> Iterator["Expression"]:
        """This node and every node below it, depth first."""
        yield self
        for child in self.children():
            yield from child.walk()

    def aggregates(self) -> list["FunctionCall"]:
        """Return the aggregate calls contained in the expression."""
        return [node for node in self.walk()
                if isinstance(node, FunctionCall) and node.is_aggregate]


@dataclass(frozen=True)
class LiteralValue(Expression):
    """A constant (number, string, boolean or NULL)."""

    value: object

    def evaluate(self, scope: dict[str, object]) -> object:
        return self.value

    def __str__(self) -> str:  # pragma: no cover - trivial
        return repr(self.value)


@dataclass(frozen=True)
class Parameter(Expression):
    """A ``{name}`` placeholder standing where a literal may stand.

    It holds no value: a statement is bound *by value* before execution
    (:meth:`repro.relational.template.SQLTemplate.bind` swaps every
    parameter for a :class:`LiteralValue`), never re-rendered to text.
    """

    name: str

    def evaluate(self, scope: dict[str, object]) -> object:
        raise RelationalError(f"parameter {{{self.name}}} is not bound")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "{" + self.name + "}"


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column, optionally qualified by a table alias."""

    name: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name

    def evaluate(self, scope: dict[str, object]) -> object:
        key = self.qualified.lower()
        if key in scope:
            return scope[key]
        # Unqualified lookup: accept a unique suffix match "alias.name".
        if self.table is None:
            suffix = "." + self.name.lower()
            matches = [k for k in scope if k.endswith(suffix)]
            if len(matches) == 1:
                return scope[matches[0]]
            if len(matches) > 1:
                raise RelationalError(f"ambiguous column reference {self.name!r}")
        raise RelationalError(f"unknown column {self.qualified!r}")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.qualified


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary operation (comparison, arithmetic, AND/OR, LIKE).

    ``escape`` is a LIKE's ``ESCAPE`` character: in the pattern it makes
    the character after it (``%``, ``_`` or itself) literal."""

    operator: str
    left: Expression
    right: Expression
    escape: Optional[str] = None

    def evaluate(self, scope: dict[str, object]) -> object:
        op = self.operator
        if op == "AND":
            return bool(self.left.evaluate(scope)) and bool(self.right.evaluate(scope))
        if op == "OR":
            return bool(self.left.evaluate(scope)) or bool(self.right.evaluate(scope))
        left = self.left.evaluate(scope)
        right = self.right.evaluate(scope)
        if op in ("=", "=="):
            return left == right
        if op in ("!=", "<>"):
            return left != right
        if op == "LIKE":
            return _like(left, right, self.escape)
        if left is None or right is None:
            return None
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

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"({self.left} {self.operator} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expression):
    """NOT or arithmetic negation."""

    operator: str
    operand: Expression

    def evaluate(self, scope: dict[str, object]) -> object:
        value = self.operand.evaluate(scope)
        if self.operator == "NOT":
            return not bool(value)
        if self.operator == "-":
            return None if value is None else -value
        raise RelationalError(f"unsupported unary operator {self.operator!r}")

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def evaluate(self, scope: dict[str, object]) -> object:
        is_null = self.operand.evaluate(scope) is None
        return not is_null if self.negated else is_null

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    values: tuple[Expression, ...]
    negated: bool = False

    @functools.cached_property
    def _members(self) -> tuple[frozenset, tuple[Expression, ...]]:
        # Literal members are evaluated once per node, not once per scanned
        # row (a batched bind join ships up to 256 of them per statement).
        constants = frozenset(v.evaluate({}) for v in self.values
                              if isinstance(v, LiteralValue))
        return constants, tuple(v for v in self.values
                                if not isinstance(v, LiteralValue))

    def evaluate(self, scope: dict[str, object]) -> object:
        value = self.operand.evaluate(scope)
        constants, per_row = self._members
        result = value in constants or (
            bool(per_row) and value in {v.evaluate(scope) for v in per_row})
        return not result if self.negated else result

    def children(self) -> tuple[Expression, ...]:
        return (self.operand, *self.values)


#: Aggregate function names recognised by the executor.
AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})
#: Scalar functions evaluable per row.
SCALAR_FUNCTIONS = frozenset({"UPPER", "LOWER", "LENGTH", "ABS", "ROUND", "COALESCE"})


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A function call; aggregates are handled by the executor's GROUP BY."""

    name: str
    arguments: tuple[Expression, ...]
    star: bool = False
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name.upper() in AGGREGATE_FUNCTIONS

    def evaluate(self, scope: dict[str, object]) -> object:
        upper = self.name.upper()
        if self.is_aggregate:
            # During the aggregation phase, the executor pre-computes the
            # value and stores it in the scope under the call's key.
            key = self.result_key()
            if key in scope:
                return scope[key]
            raise RelationalError(
                f"aggregate {upper} used outside GROUP BY evaluation"
            )
        arguments = [a.evaluate(scope) for a in self.arguments]
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
        raise RelationalError(f"unsupported function {self.name!r}")

    def result_key(self) -> str:
        """Scope key under which the executor publishes the aggregate value."""
        return str(self).lower()

    def children(self) -> tuple[Expression, ...]:
        return self.arguments

    def __str__(self) -> str:  # pragma: no cover - trivial
        inner = "*" if self.star else ", ".join(str(a) for a in self.arguments)
        distinct = "DISTINCT " if self.distinct else ""
        return f"{self.name.upper()}({distinct}{inner})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectItem:
    """One projection item: an expression plus its output alias."""

    expression: Expression
    alias: Optional[str] = None
    star: bool = False
    star_table: Optional[str] = None

    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expression, ColumnRef):
            return self.expression.name
        return str(self.expression)


@dataclass(frozen=True)
class TableRef:
    """A table reference with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def effective_alias(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    """An inner or left join clause."""

    table: TableRef
    condition: Optional[Expression]
    kind: str = "INNER"  # INNER or LEFT


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY item."""

    expression: Expression
    descending: bool = False


@dataclass
class SelectStatement:
    """A parsed SELECT statement."""

    items: list[SelectItem]
    table: TableRef | None
    joins: list[Join] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: list[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False

    def output_columns(self) -> list[str]:
        """Best-effort output column names (stars resolved by the executor)."""
        return [item.output_name() for item in self.items if not item.star]


@dataclass
class CreateTableStatement:
    """A parsed CREATE TABLE statement."""

    name: str
    columns: list[tuple[str, str, bool, bool]]  # (name, type, not_null, primary_key)
    foreign_keys: list[tuple[str, str, str]] = field(default_factory=list)


@dataclass
class InsertStatement:
    """A parsed INSERT statement."""

    table: str
    columns: list[str]
    rows: list[list[object]]


Statement = object  # SelectStatement | CreateTableStatement | InsertStatement


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
            parts.append(_LIKE_WILDCARDS.get(character) or re.escape(character))
    return re.compile("".join(parts), flags=re.IGNORECASE)


_LIKE_WILDCARDS = {"%": ".*", "_": "."}
