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

from repro import lexing
from repro.errors import SQLParseError
from repro.lexing import Token, TokenStream
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

_TOKEN_RE = lexing.grammar(
    r"""
      (?P<comment>--[^\n]*)
    | (?P<string>'(?:[^']|'')*')
    | (?P<number>[+-]?\d+(?:\.\d+)?)
    | (?P<identifier>[A-Za-z_][\w]*)
    | (?P<parameter>\{[A-Za-z_][\w]*\})
    | (?P<operator><=|>=|<>|!=|=|<|>|\+|-|\*|/)
    | (?P<punct>[(),.;])
    """
)


def tokenize(sql: str) -> list[Token]:
    """Split a SQL string into tokens, raising on unexpected characters."""
    return [Token("keyword", token.text, token.position)
            if token.kind == "identifier" and token.text.upper() in _KEYWORDS else token
            for token in lexing.tokenize(sql, _TOKEN_RE, SQLParseError)]


def parse_sql(sql: str):
    """Parse one SQL statement and return the corresponding AST node."""
    parser = _SQLParser(sql, tokenize(sql), SQLParseError)
    statement = parser.parse_statement()
    parser.accept(";")
    parser.expect_end()
    return statement


class _SQLParser(TokenStream):
    # -- statements ----------------------------------------------------------
    def parse_statement(self):
        token = self.peek()
        if token is None:
            raise SQLParseError("empty statement", position=self.length)
        if token.upper == "SELECT":
            return self.parse_select()
        if token.upper == "CREATE":
            return self.parse_create_table()
        if token.upper == "INSERT":
            return self.parse_insert()
        raise SQLParseError(f"unsupported statement starting with {token.text!r}",
                            position=token.position)

    def parse_select(self) -> SelectStatement:
        self.expect("SELECT")
        distinct = bool(self.accept("DISTINCT"))
        items = self._parse_select_items()
        table = None
        joins: list[Join] = []
        if self.accept("FROM"):
            table = self._parse_table_ref()
            joins = self._parse_joins()
        where = self._parse_expression() if self.accept("WHERE") else None
        group_by: list[Expression] = []
        if self.accept("GROUP"):
            self.expect("BY")
            group_by = self._parse_expression_list()
        having = self._parse_expression() if self.accept("HAVING") else None
        order_by: list[OrderItem] = []
        if self.accept("ORDER"):
            self.expect("BY")
            order_by = self._parse_order_items()
        limit = None
        if self.accept("LIMIT"):
            token = self.next()
            if token.kind != "number":
                raise SQLParseError("LIMIT requires an integer", position=token.position)
            limit = int(float(token.text))
        return SelectStatement(
            items=items, table=table, joins=joins, where=where, group_by=group_by,
            having=having, order_by=order_by, limit=limit, distinct=distinct,
        )

    def parse_create_table(self) -> CreateTableStatement:
        self.expect("CREATE")
        self.expect("TABLE")
        name = self._parse_identifier()
        self.expect("(")
        columns: list[tuple[str, str, bool, bool]] = []
        foreign_keys: list[tuple[str, str, str]] = []
        while True:
            column_name = self._parse_identifier()
            type_token = self.next()
            type_name = type_token.text
            if self.accept("("):
                while not self.accept(")"):
                    self.next()
            not_null = False
            primary = False
            while True:
                if self.accept("PRIMARY"):
                    self.expect("KEY")
                    primary = True
                elif self.accept("NOT"):
                    self.expect("NULL")
                    not_null = True
                elif self.accept("REFERENCES"):
                    ref_table = self._parse_identifier()
                    self.expect("(")
                    ref_column = self._parse_identifier()
                    self.expect(")")
                    foreign_keys.append((column_name, ref_table, ref_column))
                else:
                    break
            columns.append((column_name, type_name, not_null, primary))
            if self.accept(","):
                continue
            self.expect(")")
            break
        return CreateTableStatement(name=name, columns=columns, foreign_keys=foreign_keys)

    def parse_insert(self) -> InsertStatement:
        self.expect("INSERT")
        self.expect("INTO")
        table = self._parse_identifier()
        columns: list[str] = []
        if self.accept("("):
            while True:
                columns.append(self._parse_identifier())
                if self.accept(","):
                    continue
                self.expect(")")
                break
        self.expect("VALUES")
        rows: list[list[object]] = []
        while True:
            self.expect("(")
            row: list[object] = []
            while True:
                row.append(self._parse_literal_value())
                if self.accept(","):
                    continue
                self.expect(")")
                break
            rows.append(row)
            if self.accept(","):
                continue
            break
        return InsertStatement(table=table, columns=columns, rows=rows)

    # -- select helpers ----------------------------------------------------
    def _parse_select_items(self) -> list[SelectItem]:
        items: list[SelectItem] = []
        while True:
            token = self.peek()
            if token and token.text == "*":
                self.next()
                items.append(SelectItem(expression=LiteralValue(None), star=True))
            elif (token and token.kind == "identifier" and self.peek(1) is not None
                  and self.peek(1).text == "." and self.peek(2) is not None
                  and self.peek(2).text == "*"):
                table = self.next().text
                self.next()
                self.next()
                items.append(SelectItem(expression=LiteralValue(None), star=True, star_table=table))
            else:
                expression = self._parse_expression()
                alias = None
                if self.accept("AS"):
                    alias = self._parse_identifier()
                else:
                    next_token = self.peek()
                    if next_token and next_token.kind == "identifier":
                        alias = self.next().text
                items.append(SelectItem(expression=expression, alias=alias))
            if self.accept(","):
                continue
            return items

    def _parse_table_ref(self) -> TableRef:
        name = self._parse_identifier()
        alias = None
        if self.accept("AS"):
            alias = self._parse_identifier()
        else:
            token = self.peek()
            if token and token.kind == "identifier":
                alias = self.next().text
        return TableRef(name=name, alias=alias)

    def _parse_joins(self) -> list[Join]:
        joins: list[Join] = []
        while True:
            kind = "INNER"
            if self.accept("LEFT"):
                self.accept("OUTER")
                self.expect("JOIN")
                kind = "LEFT"
            elif self.accept("INNER"):
                self.expect("JOIN")
            elif self.accept("JOIN"):
                pass
            else:
                return joins
            table = self._parse_table_ref()
            condition = None
            if self.accept("ON"):
                condition = self._parse_expression()
            joins.append(Join(table=table, condition=condition, kind=kind))

    def _parse_order_items(self) -> list[OrderItem]:
        items: list[OrderItem] = []
        while True:
            expression = self._parse_expression()
            descending = False
            if self.accept("DESC"):
                descending = True
            else:
                self.accept("ASC")
            items.append(OrderItem(expression=expression, descending=descending))
            if self.accept(","):
                continue
            return items

    def _parse_expression_list(self) -> list[Expression]:
        expressions = [self._parse_expression()]
        while self.accept(","):
            expressions.append(self._parse_expression())
        return expressions

    def _parse_identifier(self) -> str:
        token = self.next()
        if token.kind not in ("identifier", "keyword"):
            raise SQLParseError(f"expected identifier, got {token.text!r}", position=token.position)
        return token.text

    def _parse_literal_value(self) -> object:
        token = self.next()
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
        while self.accept("OR"):
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self.accept("AND"):
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self.accept("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        token = self.peek()
        if token and token.kind == "operator" and token.text in ("=", "!=", "<>", "<", "<=", ">", ">="):
            operator = self.next().text
            return BinaryOp(operator, left, self._parse_additive())
        if self.accept("LIKE"):
            pattern = self._parse_additive()
            if not self.accept("ESCAPE"):
                return BinaryOp("LIKE", left, pattern)
            token = self.next()
            escape = token.text[1:-1].replace("''", "'")
            if token.kind != "string" or len(escape) != 1:
                raise SQLParseError(f"ESCAPE takes one quoted character, got {token.text!r}",
                                    position=token.position)
            return BinaryOp("LIKE", left, pattern, escape)
        if self.accept("IS"):
            negated = bool(self.accept("NOT"))
            self.expect("NULL")
            return IsNull(left, negated=negated)
        negated = False
        if token and token.kind == "keyword" and token.upper == "NOT":
            after = self.peek(1)
            if after and after.kind == "keyword" and after.upper == "IN":
                self.next()
                negated = True
        if self.accept("IN"):
            self.expect("(")
            values: list[Expression] = []
            while True:
                values.append(self._parse_additive())
                if self.accept(","):
                    continue
                self.expect(")")
                break
            return InList(left, tuple(values), negated=negated)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            token = self.peek()
            if token and token.kind == "operator" and token.text in ("+", "-"):
                operator = self.next().text
                left = BinaryOp(operator, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            token = self.peek()
            if token and token.kind == "operator" and token.text in ("*", "/"):
                operator = self.next().text
                left = BinaryOp(operator, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expression:
        token = self.peek()
        if token and token.kind == "operator" and token.text == "-":
            self.next()
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self.peek()
        if token and (token.kind in ("string", "number") or token.kind == "keyword"
                      and token.upper in ("NULL", "TRUE", "FALSE")):
            return LiteralValue(self._parse_literal_value())
        token = self.next()
        if token.kind == "parameter":
            return Parameter(token.text[1:-1])
        if token.text == "(":
            expression = self._parse_expression()
            self.expect(")")
            return expression
        if token.kind == "identifier":
            upper = token.text.upper()
            next_token = self.peek()
            if next_token and next_token.text == "(" and (
                upper in AGGREGATE_FUNCTIONS or upper in SCALAR_FUNCTIONS
            ):
                return self._parse_function_call(token.text)
            if next_token and next_token.text == ".":
                self.next()
                column = self._parse_identifier()
                return ColumnRef(name=column, table=token.text)
            return ColumnRef(name=token.text)
        raise SQLParseError(f"unexpected token {token.text!r}", position=token.position)

    def _parse_function_call(self, name: str) -> FunctionCall:
        self.expect("(")
        if self.accept(")"):
            return FunctionCall(name=name, arguments=())
        star = False
        distinct = bool(self.accept("DISTINCT"))
        arguments: list[Expression] = []
        token = self.peek()
        if token and token.text == "*":
            self.next()
            star = True
        else:
            while True:
                arguments.append(self._parse_expression())
                if self.accept(","):
                    continue
                break
        self.expect(")")
        return FunctionCall(name=name, arguments=tuple(arguments), star=star, distinct=distinct)
