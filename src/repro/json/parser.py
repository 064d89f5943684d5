"""Parser of the textual tree-pattern syntax.

The syntax is a JSON-flavoured object whose members constrain document
paths::

    { user.screen_name: ?id, entities.hashtags: "sia2016", retweet_count: ?rt >= 100 }

Member keys are dotted paths (or nested objects — ``{ user: { screen_name:
?id } }`` is equivalent to the dotted form).  Path segments may use the
axis wildcards ``*`` (exactly one step, any key) and ``**`` (any chain of
zero or more steps), so ``user.**.name`` reaches ``name`` at any depth
below ``user``.  Member specs are:

``?var``
    bind the value(s) at the path to mediator variable ``var``;
``?var >= 100``
    bind the value and keep only elements satisfying the comparison;
``"constant"`` / ``42`` / ``true`` / ``null`` / ``bareword``
    equality with a constant (string equality is case-insensitive);
``{param}``
    equality with a run-time parameter, bound by an earlier sub-query;
``> 10``, ``!= "x"``, ``<= {max}``
    a bare comparison on the path's values;
``*``
    the path must exist, nothing else.

Constraining the same path twice merges the predicates into one leaf.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lexing import Token, TokenStream, grammar, tokenize, unquote
from repro.json.pattern import (
    Parameter,
    PatternLeaf,
    Predicate,
    TreePattern,
    make_pattern,
)

_TOKEN_RE = grammar(
    r"""
      (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<number>-?\d+(?:\.\d+)?)
    | (?P<ident>[A-Za-z_][\w]*)
    | (?P<punct>\*\*|!=|>=|<=|[{}:,?.*=<>])
    """
)

_COMPARISON_TOKENS = {"=", "!=", ">", ">=", "<", "<="}
_KEYWORD_CONSTANTS = {"true": True, "false": False, "null": None}


class _Parser(TokenStream):
    """Recursive-descent parser over the token stream."""

    def parse(self) -> TreePattern:
        self.expect("{")
        leaves = self.members(prefix="")
        self.expect_end()
        return make_pattern(leaves)

    def members(self, prefix: str) -> list[PatternLeaf]:
        """The members of an object whose ``{`` is read, through its ``}``."""
        leaves: list[PatternLeaf] = []
        if self.accept("}"):
            return leaves
        while True:
            leaves.extend(self.member(prefix))
            if not self.accept(","):
                self.expect("}")
                return leaves

    def member(self, prefix: str) -> list[PatternLeaf]:
        path = self.key(prefix)
        self.expect(":")
        return self.spec(path)

    def key(self, prefix: str) -> str:
        parts = [self.key_segment()]
        while self.accept("."):
            parts.append(self.key_segment())
        part = ".".join(parts)
        return f"{prefix}.{part}" if prefix else part

    def key_segment(self) -> str:
        token = self.next()
        if token.kind == "string":
            return unquote(token.text, token.position)
        if token.kind == "ident":
            return token.text
        if token.text in ("*", "**"):
            # Axis wildcards: "*" = one step with any key, "**" = any
            # chain of zero or more steps (descendant axis).
            return token.text
        raise ParseError(f"expected a field name, found {token.text!r}",
                         position=token.position)

    def ident(self) -> str:
        token = self.next()
        if token.kind != "ident":
            raise ParseError(f"expected an identifier, found {token.text!r}",
                             position=token.position)
        return token.text

    def spec(self, path: str) -> list[PatternLeaf]:
        token = self.next()
        # "{" opens either a {param} reference or a nested object.
        if token.text == "{" and not self._parameter_ahead():
            return self.members(prefix=path)
        if token.text == "?":
            variable = self.ident()
            predicates: tuple[Predicate, ...] = ()
            ahead = self.peek()
            if ahead is not None and ahead.text in _COMPARISON_TOKENS:
                op = self.next().text
                predicates = (Predicate(op, self.value(self.next())),)
            return [PatternLeaf(path=path, variable=variable, predicates=predicates)]
        if token.text == "*":
            return [PatternLeaf(path=path)]
        if token.text in _COMPARISON_TOKENS:
            predicate = Predicate(token.text, self.value(self.next()))
            return [PatternLeaf(path=path, predicates=(predicate,))]
        return [PatternLeaf(path=path, predicates=(Predicate("=", self.value(token)),))]

    def _parameter_ahead(self) -> bool:
        name, close = self.peek(), self.peek(1)
        return close is not None and close.text == "}" and name.kind == "ident"

    def value(self, token: Token) -> object:
        """The constant or ``{param}`` that ``token`` starts."""
        if token.kind == "string":
            return unquote(token.text, token.position)
        if token.kind == "number":
            return float(token.text) if "." in token.text else int(token.text)
        if token.kind == "ident":
            if token.text in _KEYWORD_CONSTANTS:
                return _KEYWORD_CONSTANTS[token.text]
            # A bare word is a string constant (handy in atom templates).
            return token.text
        if token.text == "{":
            name = self.ident()
            self.expect("}")
            return Parameter(name)
        raise ParseError(f"cannot interpret tree-pattern value {token.text!r}",
                         position=token.position)


def parse_pattern(text: str) -> TreePattern:
    """Parse the textual tree-pattern syntax into a :class:`TreePattern`."""
    return _Parser(text, tokenize(text, _TOKEN_RE)).parse()


def pattern_to_text(pattern: TreePattern) -> str:
    """Render ``pattern`` in the canonical textual form (round-trips)."""
    return pattern.to_text()
