"""Lexer and recursive-descent parser for the SQL subset.

Supported statements:

* ``SELECT [DISTINCT] items FROM t [alias] [JOIN u [alias] ON cond]*
  [WHERE cond] [GROUP BY exprs] [HAVING cond] [ORDER BY items] [LIMIT n]``
* ``CREATE TABLE name (col TYPE [PRIMARY KEY] [NOT NULL]
  [REFERENCES other(col)], ...)``
* ``INSERT INTO name [(cols)] VALUES (...), (...)``

One token goes beyond SQL: ``{name}``, accepted wherever an expression
may hold a literal, parses to a :class:`~repro.relational.ast.Parameter`
node.  It is how the mediator's sub-query parameters reach the engine:
:mod:`repro.relational.template` parses a statement once and swaps the
nodes for values per call, so a binding is never rendered to SQL text
and lexed again.  Inside a quoted string ``{name}`` is just characters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import SQLParseError
from repro.relational.ast import (
    AGGREGATE_FUNCTIONS,
    BinaryOp,
    ColumnRef,
    CreateTableStatement,
    Expression,
    FunctionCall,
    InList,
    InsertStatement,
    IsNull,
    Join,
    LiteralValue,
    OrderItem,
    Parameter,
    SCALAR_FUNCTIONS,
    SelectItem,
    SelectStatement,
    TableRef,
    UnaryOp,
)

_KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "LIMIT", "AS", "JOIN", "INNER", "LEFT", "OUTER", "ON", "AND", "OR", "NOT",
    "IN", "IS", "NULL", "LIKE", "ASC", "DESC", "CREATE", "TABLE", "PRIMARY",
    "KEY", "REFERENCES", "INSERT", "INTO", "VALUES", "TRUE", "FALSE", "ESCAPE",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<string>'(?:[^']|'')*')
    | (?P<number>[+-]?\d+(?:\.\d+)?)
    | (?P<identifier>[A-Za-z_][\w]*)
    | (?P<parameter>\{[A-Za-z_][\w]*\})
    | (?P<operator><=|>=|<>|!=|=|<|>|\+|-|\*|/)
    | (?P<punct>[(),.;])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str
    text: str
    position: int

    @property
    def upper(self) -> str:
        return self.text.upper()


def tokenize(sql: str) -> list[Token]:
    """Split a SQL string into tokens, raising on unexpected characters."""
    tokens: list[Token] = []
    position = 0
    while position < len(sql):
        ch = sql[position]
        if ch.isspace():
            position += 1
            continue
        if sql.startswith("--", position):
            end = sql.find("\n", position)
            position = len(sql) if end == -1 else end
            continue
        match = _TOKEN_RE.match(sql, position)
        if not match:
            raise SQLParseError(f"unexpected character {ch!r}", position=position)
        kind = match.lastgroup or ""
        text = match.group()
        if kind == "identifier" and text.upper() in _KEYWORDS:
            kind = "keyword"
        tokens.append(Token(kind, text, position))
        position = match.end()
    return tokens


def parse_sql(sql: str):
    """Parse one SQL statement and return the corresponding AST node."""
    tokens = tokenize(sql)
    parser = _SQLParser(tokens)
    statement = parser.parse_statement()
    parser.expect_end()
    return statement


class _SQLParser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._index = 0

    # -- token helpers ------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token | None:
        index = self._index + offset
        return self._tokens[index] if index < len(self._tokens) else None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise SQLParseError("unexpected end of statement")
        self._index += 1
        return token

    def _accept_keyword(self, *keywords: str) -> Token | None:
        token = self._peek()
        if token and token.kind == "keyword" and token.upper in keywords:
            return self._next()
        return None

    def _expect_keyword(self, keyword: str) -> Token:
        token = self._next()
        if token.kind != "keyword" or token.upper != keyword:
            raise SQLParseError(f"expected {keyword}, got {token.text!r}", position=token.position)
        return token

    def _accept_punct(self, punct: str) -> bool:
        token = self._peek()
        if token and token.kind in ("punct", "operator") and token.text == punct:
            self._next()
            return True
        return False

    def _expect_punct(self, punct: str) -> None:
        token = self._next()
        if token.text != punct:
            raise SQLParseError(f"expected {punct!r}, got {token.text!r}", position=token.position)

    def expect_end(self) -> None:
        """Fail if unconsumed tokens remain (a trailing ``;`` is allowed)."""
        self._accept_punct(";")
        token = self._peek()
        if token is not None:
            raise SQLParseError(f"unexpected trailing token {token.text!r}", position=token.position)

    # -- statements ----------------------------------------------------------
    def parse_statement(self):
        token = self._peek()
        if token is None:
            raise SQLParseError("empty statement")
        if token.upper == "SELECT":
            return self.parse_select()
        if token.upper == "CREATE":
            return self.parse_create_table()
        if token.upper == "INSERT":
            return self.parse_insert()
        raise SQLParseError(f"unsupported statement starting with {token.text!r}",
                            position=token.position)

    def parse_select(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        distinct = bool(self._accept_keyword("DISTINCT"))
        items = self._parse_select_items()
        table = None
        joins: list[Join] = []
        if self._accept_keyword("FROM"):
            table = self._parse_table_ref()
            joins = self._parse_joins()
        where = self._parse_expression() if self._accept_keyword("WHERE") else None
        group_by: list[Expression] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = self._parse_expression_list()
        having = self._parse_expression() if self._accept_keyword("HAVING") else None
        order_by: list[OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = self._parse_order_items()
        limit = None
        if self._accept_keyword("LIMIT"):
            token = self._next()
            if token.kind != "number":
                raise SQLParseError("LIMIT requires an integer", position=token.position)
            limit = int(float(token.text))
        return SelectStatement(
            items=items, table=table, joins=joins, where=where, group_by=group_by,
            having=having, order_by=order_by, limit=limit, distinct=distinct,
        )

    def parse_create_table(self) -> CreateTableStatement:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        name = self._parse_identifier()
        self._expect_punct("(")
        columns: list[tuple[str, str, bool, bool]] = []
        foreign_keys: list[tuple[str, str, str]] = []
        while True:
            column_name = self._parse_identifier()
            type_token = self._next()
            type_name = type_token.text
            if self._accept_punct("("):
                while not self._accept_punct(")"):
                    self._next()
            not_null = False
            primary = False
            while True:
                if self._accept_keyword("PRIMARY"):
                    self._expect_keyword("KEY")
                    primary = True
                elif self._accept_keyword("NOT"):
                    self._expect_keyword("NULL")
                    not_null = True
                elif self._accept_keyword("REFERENCES"):
                    ref_table = self._parse_identifier()
                    self._expect_punct("(")
                    ref_column = self._parse_identifier()
                    self._expect_punct(")")
                    foreign_keys.append((column_name, ref_table, ref_column))
                else:
                    break
            columns.append((column_name, type_name, not_null, primary))
            if self._accept_punct(","):
                continue
            self._expect_punct(")")
            break
        return CreateTableStatement(name=name, columns=columns, foreign_keys=foreign_keys)

    def parse_insert(self) -> InsertStatement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._parse_identifier()
        columns: list[str] = []
        if self._accept_punct("("):
            while True:
                columns.append(self._parse_identifier())
                if self._accept_punct(","):
                    continue
                self._expect_punct(")")
                break
        self._expect_keyword("VALUES")
        rows: list[list[object]] = []
        while True:
            self._expect_punct("(")
            row: list[object] = []
            while True:
                row.append(self._parse_literal_value())
                if self._accept_punct(","):
                    continue
                self._expect_punct(")")
                break
            rows.append(row)
            if self._accept_punct(","):
                continue
            break
        return InsertStatement(table=table, columns=columns, rows=rows)

    # -- select helpers ----------------------------------------------------
    def _parse_select_items(self) -> list[SelectItem]:
        items: list[SelectItem] = []
        while True:
            token = self._peek()
            if token and token.text == "*":
                self._next()
                items.append(SelectItem(expression=LiteralValue(None), star=True))
            elif (token and token.kind == "identifier" and self._peek(1) is not None
                  and self._peek(1).text == "." and self._peek(2) is not None
                  and self._peek(2).text == "*"):
                table = self._next().text
                self._next()
                self._next()
                items.append(SelectItem(expression=LiteralValue(None), star=True, star_table=table))
            else:
                expression = self._parse_expression()
                alias = None
                if self._accept_keyword("AS"):
                    alias = self._parse_identifier()
                else:
                    next_token = self._peek()
                    if next_token and next_token.kind == "identifier":
                        alias = self._next().text
                items.append(SelectItem(expression=expression, alias=alias))
            if self._accept_punct(","):
                continue
            return items

    def _parse_table_ref(self) -> TableRef:
        name = self._parse_identifier()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._parse_identifier()
        else:
            token = self._peek()
            if token and token.kind == "identifier":
                alias = self._next().text
        return TableRef(name=name, alias=alias)

    def _parse_joins(self) -> list[Join]:
        joins: list[Join] = []
        while True:
            kind = "INNER"
            if self._accept_keyword("LEFT"):
                self._accept_keyword("OUTER")
                self._expect_keyword("JOIN")
                kind = "LEFT"
            elif self._accept_keyword("INNER"):
                self._expect_keyword("JOIN")
            elif self._accept_keyword("JOIN"):
                pass
            else:
                return joins
            table = self._parse_table_ref()
            condition = None
            if self._accept_keyword("ON"):
                condition = self._parse_expression()
            joins.append(Join(table=table, condition=condition, kind=kind))

    def _parse_order_items(self) -> list[OrderItem]:
        items: list[OrderItem] = []
        while True:
            expression = self._parse_expression()
            descending = False
            if self._accept_keyword("DESC"):
                descending = True
            else:
                self._accept_keyword("ASC")
            items.append(OrderItem(expression=expression, descending=descending))
            if self._accept_punct(","):
                continue
            return items

    def _parse_expression_list(self) -> list[Expression]:
        expressions = [self._parse_expression()]
        while self._accept_punct(","):
            expressions.append(self._parse_expression())
        return expressions

    def _parse_identifier(self) -> str:
        token = self._next()
        if token.kind not in ("identifier", "keyword"):
            raise SQLParseError(f"expected identifier, got {token.text!r}", position=token.position)
        return token.text

    def _parse_literal_value(self) -> object:
        token = self._next()
        if token.kind == "string":
            return token.text[1:-1].replace("''", "'")
        if token.kind == "number":
            return float(token.text) if "." in token.text else int(token.text)
        if token.kind == "keyword" and token.upper == "NULL":
            return None
        if token.kind == "keyword" and token.upper in ("TRUE", "FALSE"):
            return token.upper == "TRUE"
        raise SQLParseError(f"expected literal, got {token.text!r}", position=token.position)

    # -- expressions ----------------------------------------------------------
    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self._accept_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        token = self._peek()
        if token and token.kind == "operator" and token.text in ("=", "!=", "<>", "<", "<=", ">", ">="):
            operator = self._next().text
            return BinaryOp(operator, left, self._parse_additive())
        if self._accept_keyword("LIKE"):
            pattern = self._parse_additive()
            if not self._accept_keyword("ESCAPE"):
                return BinaryOp("LIKE", left, pattern)
            token = self._next()
            escape = token.text[1:-1].replace("''", "'")
            if token.kind != "string" or len(escape) != 1:
                raise SQLParseError(f"ESCAPE takes one quoted character, got {token.text!r}",
                                    position=token.position)
            return BinaryOp("LIKE", left, pattern, escape)
        if self._accept_keyword("IS"):
            negated = bool(self._accept_keyword("NOT"))
            self._expect_keyword("NULL")
            return IsNull(left, negated=negated)
        negated = False
        if token and token.kind == "keyword" and token.upper == "NOT":
            after = self._peek(1)
            if after and after.kind == "keyword" and after.upper == "IN":
                self._next()
                negated = True
        if self._accept_keyword("IN"):
            self._expect_punct("(")
            values: list[Expression] = []
            while True:
                values.append(self._parse_additive())
                if self._accept_punct(","):
                    continue
                self._expect_punct(")")
                break
            return InList(left, tuple(values), negated=negated)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token and token.kind == "operator" and token.text in ("+", "-"):
                operator = self._next().text
                left = BinaryOp(operator, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token and token.kind == "operator" and token.text in ("*", "/"):
                operator = self._next().text
                left = BinaryOp(operator, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expression:
        token = self._peek()
        if token and token.kind == "operator" and token.text == "-":
            self._next()
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token and (token.kind in ("string", "number") or token.kind == "keyword"
                      and token.upper in ("NULL", "TRUE", "FALSE")):
            return LiteralValue(self._parse_literal_value())
        token = self._next()
        if token.kind == "parameter":
            return Parameter(token.text[1:-1])
        if token.text == "(":
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression
        if token.kind == "identifier":
            upper = token.text.upper()
            next_token = self._peek()
            if next_token and next_token.text == "(" and (
                upper in AGGREGATE_FUNCTIONS or upper in SCALAR_FUNCTIONS
            ):
                return self._parse_function_call(token.text)
            if next_token and next_token.text == ".":
                self._next()
                column = self._parse_identifier()
                return ColumnRef(name=column, table=token.text)
            return ColumnRef(name=token.text)
        raise SQLParseError(f"unexpected token {token.text!r}", position=token.position)

    def _parse_function_call(self, name: str) -> FunctionCall:
        self._expect_punct("(")
        if self._accept_punct(")"):
            return FunctionCall(name=name, arguments=())
        star = False
        distinct = bool(self._accept_keyword("DISTINCT"))
        arguments: list[Expression] = []
        token = self._peek()
        if token and token.text == "*":
            self._next()
            star = True
        else:
            while True:
                arguments.append(self._parse_expression())
                if self._accept_punct(","):
                    continue
                break
        self._expect_punct(")")
        return FunctionCall(name=name, arguments=tuple(arguments), star=star, distinct=distinct)
