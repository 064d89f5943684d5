"""The SQL template: one parse, one reader, binding by value.

``repro.relational.template`` is the only place the mediator learns
anything about a SQL sub-query.  The table below pins its answers on the
statements the retired regex readers got wrong (keywords inside string
literals, expressions in the SELECT list, ``{x}`` inside quotes) and on
every shape the batch rewrite and the repair gate must refuse; the
invariant at the bottom ties analysis to execution.
"""

import functools
import math

import pytest

from repro.errors import MixedQueryError, RelationalError, SQLParseError
from repro.relational import Database
from repro.relational.ast import (
    BinaryOp,
    ColumnRef,
    InList,
    LiteralValue,
    SelectItem,
    SelectStatement,
    TableRef,
)
from repro.relational.template import sql_template


@pytest.fixture
def database() -> Database:
    db = Database("tpl")
    db.execute("CREATE TABLE t (id INTEGER, name TEXT, rate FLOAT, code TEXT)")
    db.execute("INSERT INTO t (id, name, rate, code) VALUES "
               "(1, 'from paris', 0.5, 'x'), (2, 'a or b', 1.5, 'x'), "
               "(3, 'rock and roll', 2.5, 'y'), (4, 'O''Brien', 3.5, 'y'), "
               "(5, '{x}', 4.5, 'z'), (6, NULL, NULL, 'z')")
    db.execute("CREATE TABLE u (id INTEGER, tid INTEGER, label TEXT)")
    db.execute("INSERT INTO u (id, tid, label) VALUES (10, 1, 'one'), (11, 3, 'three')")
    return db


#: Bindings covering every parameter name the table uses.
BINDINGS = {"i": 3, "c": "y", "x": "unused"}

#: statement -> the template's answers.  Keys left out take DEFAULTS.
DEFAULTS = dict(tables=("t",), parameters=set(), equality={}, echoes={},
                batch_safe=True, repair_simple=True, conjunctive=True)
CASES = {
    # Keywords inside string literals are characters, not syntax.
    "SELECT id, name FROM t WHERE name = 'from paris'":
        dict(outputs=("id", "name"), plain={"id": "id", "name": "name"}, conjuncts=1),
    "SELECT id FROM t WHERE name = 'rock and roll'":
        dict(outputs=("id",), plain={"id": "id"}, conjuncts=1),
    "SELECT id AS i FROM t WHERE id = {i} AND name = 'a or b'":
        dict(outputs=("i",), plain={"i": "id"}, conjuncts=2, parameters={"i"},
             equality={"i": "id"}, echoes={"i": "i"}),
    # {x} inside quotes is not a parameter.
    "SELECT id FROM t WHERE name = '{x}'":
        dict(outputs=("id",), plain={"id": "id"}, conjuncts=1),
    # Expressions are output columns too, under the executor's label.
    "SELECT UPPER(name), id FROM t":
        dict(outputs=("UPPER(name)", "id"), plain={"id": "id"}, conjuncts=0),
    "SELECT rate r FROM t":
        dict(outputs=("r",), plain={"r": "rate"}, conjuncts=0),
    # A top-level equality stays rewritable whatever sits beside it ...
    "SELECT id AS i, name AS n FROM t WHERE id = {i} AND (name = 'a or b' OR rate > 1)":
        dict(outputs=("i", "n"), plain={"i": "id", "n": "name"}, conjuncts=2,
             parameters={"i"}, equality={"i": "id"}, echoes={"i": "i"},
             conjunctive=False),
    # ... but an equality under OR / NOT, or in a JOIN's ON, is not necessary.
    "SELECT id AS i FROM t WHERE id = {i} OR rate > 2":
        dict(outputs=("i",), plain={"i": "id"}, conjuncts=1, parameters={"i"},
             conjunctive=False),
    "SELECT id AS i FROM t WHERE NOT (id = {i})":
        dict(outputs=("i",), plain={"i": "id"}, conjuncts=1, parameters={"i"},
             conjunctive=False),
    "SELECT t.id AS i, u.label AS l FROM t JOIN u ON u.tid = {i} WHERE t.id = u.tid":
        dict(outputs=("i", "l"), plain={"i": "t.id", "l": "u.label"}, conjuncts=1,
             tables=("t", "u"), parameters={"i"}, repair_simple=False),
    # One occurrence only, and the compared column must be echoed as written.
    "SELECT id AS i FROM t WHERE id = {i} AND rate > {i}":
        dict(outputs=("i",), plain={"i": "id"}, conjuncts=2, parameters={"i"}),
    "SELECT name AS n FROM t WHERE id = {i}":
        dict(outputs=("n",), plain={"n": "name"}, conjuncts=1, parameters={"i"},
             equality={"i": "id"}),
    "SELECT t.id AS i FROM t WHERE id = {i}":
        dict(outputs=("i",), plain={"i": "t.id"}, conjuncts=1, parameters={"i"},
             equality={"i": "id"}),
    "SELECT t.id AS i FROM t WHERE t.id = {i}":
        dict(outputs=("i",), plain={"i": "t.id"}, conjuncts=1, parameters={"i"},
             equality={"i": "t.id"}, echoes={"i": "i"}),
    # Shapes that span bindings are never folded into one statement.
    "SELECT id AS i FROM t WHERE id = {i} LIMIT 1":
        dict(outputs=("i",), plain={"i": "id"}, conjuncts=1, parameters={"i"},
             equality={"i": "id"}, batch_safe=False, repair_simple=False),
    "SELECT code AS c, COUNT(*) AS n FROM t WHERE code = {c} GROUP BY code":
        dict(outputs=("c", "n"), plain={"c": "code"}, conjuncts=1, parameters={"c"},
             equality={"c": "code"}, batch_safe=False, repair_simple=False),
    "SELECT code AS c FROM t GROUP BY code HAVING COUNT(*) > 1":
        dict(outputs=("c",), plain={"c": "code"}, conjuncts=0, batch_safe=False,
             repair_simple=False),
    "SELECT code AS c FROM t GROUP BY code":
        dict(outputs=("c",), plain={"c": "code"}, conjuncts=0, batch_safe=False,
             repair_simple=False),
    "SELECT code AS c FROM t HAVING code = 'x'":
        dict(outputs=("c",), plain={"c": "code"}, conjuncts=0, batch_safe=False,
             repair_simple=False),
    "SELECT MAX(rate) AS top FROM t":
        dict(outputs=("top",), plain={}, conjuncts=0, batch_safe=False,
             repair_simple=False),
    # Shapes whose cached rows an insert does not simply extend.
    "SELECT code AS c FROM t ORDER BY code":
        dict(outputs=("c",), plain={"c": "code"}, conjuncts=0, repair_simple=False),
    "SELECT DISTINCT code AS c FROM t":
        dict(outputs=("c",), plain={"c": "code"}, conjuncts=0, repair_simple=False),
    "SELECT 1 AS one":
        dict(outputs=("one",), plain={}, conjuncts=0, tables=(), repair_simple=False),
    "SELECT id AS i FROM t WHERE code IN ('x', 'y') AND name LIKE 'a%'":
        dict(outputs=("i",), plain={"i": "id"}, conjuncts=2, conjunctive=False),
    "SELECT id AS i FROM t WHERE rate IS NOT NULL":
        dict(outputs=("i",), plain={"i": "id"}, conjuncts=1, conjunctive=False),
}


@pytest.mark.parametrize("sql", list(CASES))
def test_template_answers(sql):
    expected = {**DEFAULTS, **CASES[sql]}
    template = sql_template(sql)
    assert template.output_columns == expected["outputs"]
    assert {k: v.qualified for k, v in template.plain_outputs.items()} == expected["plain"]
    assert template.tables == expected["tables"]
    assert template.parameters == expected["parameters"]
    assert len(template.conjuncts) == expected["conjuncts"]
    assert {k: v.qualified for k, v in template.equality_parameters.items()} \
        == expected["equality"]
    assert template.batch_echoes == expected["echoes"]
    assert template.batch_safe is expected["batch_safe"]
    assert template.repair_simple is expected["repair_simple"]
    assert template.conjunctive is expected["conjunctive"]


@pytest.mark.parametrize("sql", list(CASES))
def test_analysis_and_execution_agree_on_the_columns(database, sql):
    template = sql_template(sql)
    result = database.execute_select(template.bind(BINDINGS))
    assert tuple(result.columns) == template.output_columns


def test_one_text_is_parsed_once(monkeypatch):
    import repro.relational.template as template_module

    calls = []
    original = template_module.parse_sql
    monkeypatch.setattr(template_module, "parse_sql",
                        lambda sql: calls.append(sql) or original(sql))
    sql = "SELECT id AS parsed_once FROM t WHERE id = {i}"
    assert sql_template(sql) is sql_template(sql)
    assert calls == [sql]


@pytest.mark.parametrize("sql", [
    "SELECT FROM WHERE", "SELECT id FROM t LIMIT {n}", "SELECT id FROM {tbl}",
    "INSERT INTO t (id) VALUES (1)", "DROP TABLE t",
])
def test_unusable_text_is_a_parse_error(sql):
    with pytest.raises(SQLParseError):
        sql_template(sql)


# ---------------------------------------------------------------------------
# Binding by value
# ---------------------------------------------------------------------------

def _by_hand(column: str, operator: str, value: object) -> SelectStatement:
    """``SELECT id, name FROM t WHERE column <operator> value``, hand-built."""
    return SelectStatement(
        items=[SelectItem(ColumnRef("id")), SelectItem(ColumnRef("name"))],
        table=TableRef("t"),
        where=BinaryOp(operator, ColumnRef(column), LiteralValue(value)))


@pytest.mark.parametrize("value", [
    1e-05, 1e+22, float("inf"), float("-inf"), float("nan"), 2, 2.5, -1, True, None,
], ids=repr)
def test_numeric_bindings_outside_the_lexer_grammar(database, value):
    # At the parent: str(1e-05) -> "unexpected trailing token 'e'",
    # str(inf) -> "unknown column 'inf'".
    template = sql_template("SELECT id, name FROM t WHERE rate > {r}")
    got = database.execute_select(template.bind({"r": value}))
    want = database.execute_select(_by_hand("rate", ">", value))
    assert got.columns == want.columns and got.rows == want.rows
    if isinstance(value, float) and math.isnan(value):
        assert got.rows == []


@pytest.mark.parametrize("value, literal", [
    ("O'Brien", "'O''Brien'"), ("{x}", "'{x}'"), ("a or b", "'a or b'"),
    ("'; DROP TABLE t; --", None), (None, "NULL"), (True, "TRUE"), (3, "3"),
], ids=repr)
def test_bindings_are_values_not_text(database, value, literal):
    template = sql_template("SELECT id, name FROM t WHERE name = {n}")
    got = database.execute_select(template.bind({"n": value}))
    assert got.rows == database.execute_select(_by_hand("name", "=", value)).rows
    if literal is not None:
        assert got.rows == database.execute(
            f"SELECT id, name FROM t WHERE name = {literal}").rows
    if isinstance(value, str) and literal is not None:
        assert len(got.rows) == 1


def test_bind_reports_the_missing_parameter_and_leaves_the_template_alone():
    template = sql_template("SELECT id FROM t WHERE id = {i} AND code = {c}")
    with pytest.raises(MixedQueryError, match=r"\{c\} is not bound"):
        template.bind({"i": 1})
    bound = template.bind({"i": 1, "c": "x"})
    assert bound is not template.statement
    assert template.parameters == {"i", "c"}
    assert sql_template("SELECT id FROM t").bind({"anything": 1}) \
        is sql_template("SELECT id FROM t").statement


def test_unbound_parameter_cannot_be_evaluated(database):
    template = sql_template("SELECT id FROM t WHERE id = {i}")
    with pytest.raises(RelationalError, match="not bound"):
        database.execute_select(template.statement)


def test_in_list_binding_replaces_the_equality(database):
    template = sql_template("SELECT id AS i, name AS n FROM t "
                            "WHERE id = {i} AND (code = 'x' OR code = 'y')")
    statement = template.bind({}, in_lists={"i": [1, 3, 5, 99]})
    rewritten = statement.where.left
    assert isinstance(rewritten, InList) and rewritten.operand == ColumnRef("id")
    assert [v.value for v in rewritten.values] == [1, 3, 5, 99]
    assert database.execute_select(statement).column("i") == [1, 3]


# ---------------------------------------------------------------------------
# IN lists: constant members are evaluated once per statement, not per row
# ---------------------------------------------------------------------------

class _CountingInList(InList):
    builds = 0

    @functools.cached_property
    def _members(self):
        type(self).builds += 1
        return InList._members.func(self)


@pytest.mark.parametrize("negated, members, expected", [
    (False, [1, 3, 99], [1, 3]),
    (True, [1, 3, 99], [2, 4, 5, 6]),
    (False, [0.5, None], []),
    (False, ["x"], []),
])
def test_in_list_members_are_evaluated_once(database, negated, members, expected):
    _CountingInList.builds = 0
    statement = SelectStatement(
        items=[SelectItem(ColumnRef("id"))], table=TableRef("t"),
        where=_CountingInList(ColumnRef("id"), tuple(LiteralValue(m) for m in members),
                              negated=negated))
    assert database.execute_select(statement).column("id") == expected
    assert _CountingInList.builds == 1  # 6 rows scanned


def test_in_list_null_member_and_row_dependent_members(database):
    assert database.execute(
        "SELECT id FROM t WHERE rate IN (0.5, NULL)").column("id") == [1, 6]
    assert database.execute(
        "SELECT id FROM t WHERE rate NOT IN (0.5, NULL)").column("id") == [2, 3, 4, 5]
    # A member that reads the row cannot be hoisted.
    assert database.execute(
        "SELECT id FROM t WHERE id IN (rate * 2, 6)").column("id") == [1, 6]
