"""Abstract syntax tree for the SQL subset.

The nodes are plain data: the executor compiles them into closures over
row tuples (:mod:`repro.relational.executor`), and the template reads
them to analyse a sub-query (:mod:`repro.relational.template`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, Optional


class Expression:
    """Base class of every scalar expression node."""

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

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"({self.left} {self.operator} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expression):
    """NOT or arithmetic negation."""

    operator: str
    operand: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

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
        # Literal members are hashed once per node, not once per scanned
        # row (a batched bind join ships up to 256 of them per statement).
        constants = frozenset(v.value for v in self.values
                              if isinstance(v, LiteralValue))
        return constants, tuple(v for v in self.values
                                if not isinstance(v, LiteralValue))

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

    def result_key(self) -> str:
        """The key naming this aggregate's value: calls spelled alike share it."""
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

