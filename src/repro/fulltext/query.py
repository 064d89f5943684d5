"""The query language of the Solr-like store.

The mediator ships sub-queries such as "tweets with hashtag SIA2016"
(``tweetContains`` in the paper's qSIA) to the full-text source in *its*
query language.  We support a Solr/Lucene-flavoured subset:

* ``text:emergency`` — term match on an analysed field,
* ``hashtags:SIA2016`` — exact match on a keyword field,
* ``user.screen_name:fhollande`` — dotted paths for nested fields,
* ``retweet_count:[100 TO *]`` — numeric/date range queries,
* ``a AND b``, ``a OR b``, ``NOT a``, parentheses,
* ``"state of emergency"`` — phrase queries on analysed fields,
* a bare term searches the store's default field,
* ``hashtags:{tag}`` or a bare ``{word}`` — a parameter standing where a
  term may, bound by value before the query runs (inside a ``"phrase"``
  or a ``[range]``, ``{x}`` is literal text).

Queries parse to a small AST evaluated by :class:`~repro.fulltext.store.FullTextStore`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.errors import ParseError
from repro.lexing import Token, TokenStream, grammar, tokenize


class Query:
    """Base class of full-text query nodes."""


@dataclass(frozen=True)
class TermQuery(Query):
    """Match documents whose ``field`` contains ``term``.

    ``exact`` marks a term that is a *value* (a bound parameter), not
    query text: ``*`` is the character, and whitespace belongs to the
    value — a phrase on a ``text`` field, one value on every other field.
    """

    field: Optional[str]
    term: str
    exact: bool = False

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.field or '_default'}:{self.term}"


@dataclass(frozen=True)
class Parameter(Query):
    """``{name}`` standing where a term may: bound by value, never searched."""

    field: Optional[str]
    name: str


@dataclass(frozen=True)
class PhraseQuery(Query):
    """Match documents whose ``field`` contains the terms consecutively."""

    field: Optional[str]
    terms: tuple[str, ...]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f'{self.field or "_default"}:"{" ".join(self.terms)}"'


@dataclass(frozen=True)
class RangeQuery(Query):
    """Match documents whose ``field`` value lies within [low, high]."""

    field: str
    low: Optional[object]
    high: Optional[object]
    include_low: bool = True
    include_high: bool = True

    def __str__(self) -> str:  # pragma: no cover - trivial
        low = "*" if self.low is None else self.low
        high = "*" if self.high is None else self.high
        return f"{self.field}:[{low} TO {high}]"


@dataclass(frozen=True)
class BooleanQuery(Query):
    """AND / OR combination of sub-queries."""

    operator: str  # AND | OR
    operands: tuple[Query, ...]

    def __str__(self) -> str:  # pragma: no cover - trivial
        inner = f" {self.operator} ".join(str(o) for o in self.operands)
        return f"({inner})"


@dataclass(frozen=True)
class NotQuery(Query):
    """Negation of a sub-query."""

    operand: Query

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"NOT {self.operand}"


@dataclass(frozen=True)
class MatchAllQuery(Query):
    """Matches every document (``*:*``)."""

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "*:*"


_QUERY_TOKEN_RE = grammar(
    r"""
      (?P<phrase>"[^"]*")
    | (?P<range>\[[^\]]*\])
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<colon>:)
    | (?P<matchall>\*:\*|\*)
    | (?P<parameter>\{[A-Za-z_]\w*\}(?![^\s():]))
    | (?P<word>[^\s():]+)
    """
)


def parse_query(text: str) -> Query:
    """Parse a query string into a :class:`Query` tree."""
    parser = _QueryParser(text, tokenize(text, _QUERY_TOKEN_RE))
    if parser.peek() is None:
        return MatchAllQuery()
    query = parser.parse_or()
    parser.expect_end()
    return query


class _QueryParser(TokenStream):
    def _at_operator(self, operator: str) -> bool:
        """True when the next token is the boolean ``operator``, any case."""
        token = self.peek()
        return token is not None and token.kind == "word" and token.text.upper() == operator

    # precedence: OR < AND < NOT < primary
    def parse_or(self) -> Query:
        operands = [self.parse_and()]
        while self._at_operator("OR"):
            self.next()
            operands.append(self.parse_and())
        if len(operands) == 1:
            return operands[0]
        return BooleanQuery("OR", tuple(operands))

    def parse_and(self) -> Query:
        operands = [self.parse_not()]
        while True:
            if self._at_operator("AND"):
                self.next()
                operands.append(self.parse_not())
            elif self._at_operator("OR"):
                break
            elif (token := self.peek()) is not None and token.kind in (
                    "word", "parameter", "phrase", "lparen", "matchall"):
                # Implicit AND between adjacent clauses (Lucene default is OR,
                # but AND matches the conjunctive spirit of CMQs).
                operands.append(self.parse_not())
            else:
                break
        if len(operands) == 1:
            return operands[0]
        return BooleanQuery("AND", tuple(operands))

    def parse_not(self) -> Query:
        if self._at_operator("NOT"):
            self.next()
            return NotQuery(self.parse_not())
        return self.parse_primary()

    def parse_primary(self) -> Query:
        token = self.next()
        if token.kind == "lparen":
            query = self.parse_or()
            self.expect(")")
            return query
        if token.kind == "matchall":
            return MatchAllQuery()
        field = None
        if token.kind == "word" and self.accept(":"):
            field, token = token.text, self.next()
        kind, text = token.kind, token.text
        if kind == "phrase":
            return PhraseQuery(field, tuple(text[1:-1].split()))
        if kind == "parameter":
            return Parameter(field, text[1:-1])
        if kind == "word":
            return TermQuery(field, text)
        if field is not None and kind == "range":
            return _parse_range(field, token)
        if field is not None and kind == "matchall":
            return TermQuery(field, "*")
        raise ParseError(f"unexpected token {text!r}" + (f" after {field}:" if field else ""),
                         position=token.position)


def _parse_range(field: str, token: Token) -> RangeQuery:
    inner = token.text[1:-1].strip()
    parts = re.split(r"\s+TO\s+", inner, flags=re.IGNORECASE)
    if len(parts) != 2:
        raise ParseError(f"malformed range query {token.text!r}", position=token.position)
    low = _range_bound(parts[0])
    high = _range_bound(parts[1])
    return RangeQuery(field=field, low=low, high=high)


def _range_bound(text: str) -> object | None:
    text = text.strip()
    if text == "*" or not text:
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text
