"""The one lexer behind every query language the mediator reads.

A CMQ wraps each source's own language — SQL, SPARQL, Turtle, Solr-style
full-text, JSON tree patterns — and the CMQ text itself is a sixth.
Each language keeps its own grammar; what they share lives here:

* :func:`tokenize` runs a language's :func:`grammar` over a text and
  returns its tokens (whitespace, and a group named ``comment``, are
  skipped);
* :class:`TokenStream` is the cursor a recursive-descent reader walks;
* :func:`unquote` decodes a double-quoted string with the N-Triples /
  JSON escapes.

Every error is raised as the caller's :class:`~repro.errors.ParseError`
subclass, and its ``position`` is always a character offset into the
text: an error at the end of the input reports ``len(text)``.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Pattern

from repro.errors import ParseError

_SKIPPED = frozenset(("ws", "comment"))


class Token(NamedTuple):
    """One lexical token: the name of the group that matched it, its text,
    and the character offset where it starts."""

    kind: str
    text: str
    position: int

    @property
    def upper(self) -> str:
        return self.text.upper()


def grammar(groups: str, ignore_case: bool = False) -> Pattern[str]:
    """Compile a token grammar: verbose-mode alternatives, each a named
    group that never matches the empty string, tried in order after the
    whitespace every language skips."""
    return re.compile(r"(?P<ws>\s+) |" + groups,
                      re.VERBOSE | (re.IGNORECASE if ignore_case else 0))


def tokenize(text: str, pattern: Pattern[str],
             error: type[ParseError] = ParseError) -> list[Token]:
    """Split ``text`` with the :func:`grammar` ``pattern``; raise ``error``
    where none of its groups matches."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without its keyword-argument wrapper
    position = 0
    for match in pattern.finditer(text):
        start, end = match.span()
        if start != position:
            break
        position = end
        kind = match.lastgroup
        if kind not in _SKIPPED:
            append(new(Token, (kind, text[start:end], start)))
    if position != len(text):
        raise error(f"unexpected character {text[position]!r}", position=position)
    return tokens


class TokenStream:
    """A cursor over the tokens of one text.

    :meth:`accept` and :meth:`expect` compare a token's text; a token of
    kind ``keyword`` also matches its upper-case spelling, so a reader
    names its keywords once, in capitals.
    """

    def __init__(self, text: str, tokens: list[Token],
                 error: type[ParseError] = ParseError):
        self.tokens = tokens
        self.index = 0
        self.length = len(text)
        self.error = error

    def peek(self, offset: int = 0) -> Token | None:
        index = self.index + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def next(self) -> Token:
        if self.index >= len(self.tokens):
            raise self.error("unexpected end of input", position=self.length)
        token = self.tokens[self.index]
        self.index += 1
        return token

    def accept(self, text: str) -> Token | None:
        """Consume and return the next token if it reads ``text``."""
        if self.index < len(self.tokens):
            token = self.tokens[self.index]
            if token.text == text or token.kind == "keyword" and token.text.upper() == text:
                self.index += 1
                return token
        return None

    def expect(self, text: str) -> Token:
        """Consume the next token, which must read ``text``."""
        token = self.next()
        if token.text != text and not (token.kind == "keyword" and token.text.upper() == text):
            raise self.error(f"expected {text!r}, got {token.text!r}", position=token.position)
        return token

    def expect_end(self) -> None:
        """Fail at the first token left unread."""
        token = self.peek()
        if token is not None:
            raise self.error(f"unexpected trailing token {token.text!r}",
                             position=token.position)


_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
            '"': '"', "'": "'", "\\": "\\", "/": "/"}
_ESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|[\s\S]?)")


def unquote(text: str, position: int = 0) -> str:
    """The value of the double-quoted string ``text`` found at ``position``.

    Decodes ``\\t \\b \\n \\r \\f \\" \\' \\\\ \\/ \\uXXXX \\UXXXXXXXX``;
    any other escape raises :class:`~repro.errors.ParseError` at the
    backslash.
    """
    body = text[1:-1]
    if "\\" not in body:
        return body

    def decode(match: re.Match) -> str:
        code = match.group(1)
        if len(code) > 1 and int(code[1:], 16) <= 0x10FFFF:
            return chr(int(code[1:], 16))
        if code in _ESCAPES:
            return _ESCAPES[code]
        raise ParseError(f"unknown escape {match.group()!r}", position=position + 1 + match.start())

    return _ESCAPE_RE.sub(decode, body)
