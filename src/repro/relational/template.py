"""A SQL sub-query parsed once, read by every layer, bound by value.

The planner, the wrapper, the estimator and cache repair all need to
*understand* a SQL sub-query before it ships.  :func:`sql_template`
parses the text once (``{var}`` placeholders become
:class:`~repro.relational.ast.Parameter` nodes) and the
:class:`SQLTemplate` answers their questions from the same AST the
executor runs — analysis and execution cannot disagree.  A call never
goes back through text: :meth:`SQLTemplate.bind` returns a statement
whose parameters are literal nodes holding the binding values themselves.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import MixedQueryError, SQLParseError
from repro.relational.ast import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Join,
    LiteralValue,
    OrderItem,
    Parameter,
    SelectItem,
    SelectStatement,
    UnaryOp,
)
from repro.relational.parser import parse_sql


class SQLTemplate:
    """Everything the mediator reads off one SELECT statement.

    Built once per statement text and shared by every query object and
    thread naming that text: treat every attribute as read-only.
    """

    def __init__(self, statement: SelectStatement):
        #: The parsed statement, its ``Parameter`` nodes unbound.
        self.statement = statement
        #: Output column names as the executor labels them (``*`` items
        #: are resolved against the catalog at run time, not here).
        self.output_columns = tuple(statement.output_columns())
        #: Output name -> column, for items that are a bare column: the
        #: only outputs whose values are stored values.
        self.plain_outputs = {
            item.output_name(): item.expression for item in statement.items
            if not item.star and isinstance(item.expression, ColumnRef)}
        #: Names of the tables read: FROM first, then each JOIN.
        self.tables = tuple(ref.name for ref in (
            statement.table, *(join.table for join in statement.joins)) if ref)
        nodes = list(_nodes(statement))
        occurrences = [node.name for node in nodes if isinstance(node, Parameter)]
        #: Names of the ``{var}`` parameters a call must bind.
        self.parameters = frozenset(occurrences)
        #: The top-level AND-ed conditions of the WHERE clause: each is
        #: necessary for a row to be returned.
        self.conjuncts = tuple(_conjuncts(statement.where))
        #: Parameter -> compared column, for parameters whose *only*
        #: occurrence is a top-level ``col = {var}`` conjunct.
        self.equality_parameters = {
            c.right.name: c.left for c in self.conjuncts
            if isinstance(c, BinaryOp) and c.operator == "="
            and isinstance(c.left, ColumnRef) and isinstance(c.right, Parameter)
            and occurrences.count(c.right.name) == 1}
        #: False when one statement over several bindings is not the union
        #: of their statements: a shared LIMIT, groups, aggregates.
        self.batch_safe = (statement.limit is None and not statement.group_by
                           and statement.having is None
                           and not any(isinstance(node, FunctionCall)
                                       and node.is_aggregate for node in nodes))
        #: True when rows inserted into the one table read just append
        #: their own result rows to a cached result.
        self.repair_simple = (self.batch_safe and len(self.tables) == 1
                              and not statement.order_by and not statement.distinct)
        #: True when no OR, NOT, LIKE or IN occurs anywhere.
        self.conjunctive = not any(
            isinstance(node, InList) or (isinstance(node, IsNull) and node.negated)
            or (isinstance(node, (BinaryOp, UnaryOp))
                and node.operator in ("OR", "NOT", "LIKE"))
            for node in nodes)
        echoes = {var: next((output for output, ref in self.plain_outputs.items()
                             if ref.qualified.lower() == column.qualified.lower()), None)
                  for var, column in self.equality_parameters.items()}
        #: Parameter -> output column echoing the column it is compared
        #: with.  Non-empty only when every parameter has one and the
        #: statement is batch-safe: then a batch of bindings may run as
        #: one statement (each ``col = {var}`` an IN list) whose rows are
        #: told apart by the echoed columns.
        self.batch_echoes = echoes if (
            self.batch_safe and set(echoes) == self.parameters
            and all(echoes.values())) else {}
        #: Parameter -> ``?N`` by first appearance, and the statement rendered
        #: under those names (the result cache's renaming-invariant key).
        self.canonical_names: dict[str, str] = {}
        self.canonical_text = repr(self._rewritten(
            lambda node: Parameter(self.canonical_names.setdefault(
                node.name, f"?{len(self.canonical_names)}")), {}))

    def bind(self, bindings: Mapping[str, object],
             in_lists: Mapping[str, Iterable[object]] | None = None) -> SelectStatement:
        """The statement with every parameter replaced by its value.

        ``in_lists`` maps parameters of :attr:`batch_echoes` to the values
        of a whole batch: their ``col = {var}`` becomes ``col IN (values)``.
        Values travel as ``LiteralValue`` payloads, whatever their type or
        spelling: nothing is rendered to SQL text or lexed.
        """
        if not self.parameters:
            return self.statement
        lists = {var: tuple(LiteralValue(value) for value in values)
                 for var, values in (in_lists or {}).items()}
        missing = sorted(self.parameters - set(bindings) - set(lists))
        if missing:
            raise MixedQueryError(
                f"sub-query parameter {{{missing[0]}}} is not bound; required "
                "parameters must be produced by an earlier sub-query or a constant")
        return self._rewritten(lambda node: LiteralValue(bindings[node.name]), lists)

    def _rewritten(self, parameter: Callable[[Parameter], Expression],
                   lists: Mapping[str, tuple]) -> SelectStatement:
        def bound(node):
            if isinstance(node, Parameter):
                return parameter(node)
            if isinstance(node, BinaryOp):
                if isinstance(node.right, Parameter) and node.right.name in lists:
                    return InList(node.left, lists[node.right.name])
                return dataclasses.replace(node, left=bound(node.left), right=bound(node.right))
            if isinstance(node, UnaryOp):
                return UnaryOp(node.operator, bound(node.operand))
            if isinstance(node, IsNull):
                return IsNull(bound(node.operand), node.negated)
            if isinstance(node, InList):
                return InList(bound(node.operand), tuple(map(bound, node.values)),
                              node.negated)
            if isinstance(node, FunctionCall):
                return dataclasses.replace(node, arguments=tuple(map(bound, node.arguments)))
            return node

        def rebound(item):
            expression = bound(item.expression)
            # The alias keeps a rebuilt item's label what it was unbound.
            return item if expression is item.expression else SelectItem(
                expression, item.output_name())

        statement = self.statement
        return dataclasses.replace(
            statement, items=[rebound(item) for item in statement.items],
            joins=[Join(join.table, bound(join.condition), join.kind)
                   for join in statement.joins],
            where=bound(statement.where),
            group_by=[bound(expression) for expression in statement.group_by],
            having=bound(statement.having),
            order_by=[OrderItem(bound(i.expression), i.descending)
                      for i in statement.order_by])


@functools.lru_cache(maxsize=256)
def sql_template(sql: str) -> SQLTemplate:
    """The template of one SELECT text, parsed at most once per text.

    Raises :class:`~repro.errors.SQLParseError` for text the engine's
    parser rejects and for statements that are not a SELECT.
    """
    statement = parse_sql(sql)
    if not isinstance(statement, SelectStatement):
        raise SQLParseError("a SQL sub-query must be a SELECT statement")
    return SQLTemplate(statement)


def _nodes(statement: SelectStatement) -> Iterator[Expression]:
    """Every expression node of the statement, clause by clause."""
    roots = [item.expression for item in statement.items if not item.star]
    roots += [join.condition for join in statement.joins]
    roots += [statement.where, *statement.group_by, statement.having]
    roots += [item.expression for item in statement.order_by]
    for root in roots:
        if root is not None:
            yield from root.walk()


def _conjuncts(condition: Expression | None) -> Iterator[Expression]:
    if isinstance(condition, BinaryOp) and condition.operator == "AND":
        yield from _conjuncts(condition.left)
        yield from _conjuncts(condition.right)
    elif condition is not None:
        yield condition
