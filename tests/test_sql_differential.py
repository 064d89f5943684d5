"""The compiled executor against the dict-scope reference, on drawn SQL.

Hypothesis draws two small tables (empty ones, NULLs, duplicate keys, an
INTEGER key next to a FLOAT value with integral members) and four
SELECTs over them from the whole SQL subset: INNER, LEFT and non-equi joins,
WHERE with AND / OR / NOT, LIKE ... ESCAPE, [NOT] IN, IS [NOT] NULL,
arithmetic, scalar functions, aggregates with GROUP BY and HAVING,
DISTINCT, ORDER BY with DESC over NULLs, and LIMIT.  Both executors must
return the same columns and the same rows in the same order, or both
raise :class:`RelationalError`.  Expressions are drawn well typed, so a
statement either runs or is rejected for a column it names (unknown,
ambiguous, or not readable by ORDER BY under DISTINCT or aggregation),
or for an ORDER BY term that reads an alias of another type than the
input column it shadows (``SELECT 'a' AS k ... ORDER BY -(k)``).
"""

from __future__ import annotations

import functools
import itertools

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import RelationalError
from repro.relational import Database
from repro.relational.executor import SelectExecutor
from repro.relational.parser import parse_sql

from sql_reference import ReferenceExecutor

# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

#: Every row a table may hold (any column may be NULL): one draw per row.
_ROW_POOL = list(itertools.product(
    [None, 0, 1, 2], [None, 0, 1, 2, 3], [None, 0.0, 1.0, 1.5, -2.5],
    [None, "a", "A", "ab", "a_b", "a%b", ""]))

#: A table's rows: one time in five none at all.
_rows = st.sampled_from([4, 5, 6, 3, 0]).flatmap(lambda size: st.lists(
    st.sampled_from(_ROW_POOL), min_size=size, max_size=size))


def _database(a_rows, b_rows) -> Database:
    database = Database("diff")
    database.execute("CREATE TABLE a (id INTEGER, k INTEGER, x FLOAT, s TEXT)")
    database.execute("CREATE TABLE b (id INTEGER, k INTEGER, y FLOAT, t TEXT)")
    database.table("a").insert_many(a_rows)
    database.table("b").insert_many(b_rows)
    return database


# ---------------------------------------------------------------------------
# Expressions, drawn by type over the columns in scope
# ---------------------------------------------------------------------------

_NUMERIC = {"a": ["a.id", "a.k", "a.x", "x"], "b": ["b.id", "b.k", "b.y", "y"]}
_TEXT = {"a": ["a.s", "s"], "b": ["b.t", "t"]}
#: Unqualified names that two joined tables share: ambiguous there.
_SHARED = ["id", "k"]
_NUMBER_LITERALS = ["0", "1", "2", "1.0", "2.5", "NULL"]
_COMPARISONS = ["=", "!=", "<>", "<", "<=", ">", ">="]


def _numeric_columns(tables: tuple[str, ...]) -> list[str]:
    return [c for t in tables for c in _NUMERIC[t]] + (_SHARED if len(tables) == 1 else [])


@functools.lru_cache(maxsize=None)
def _numbers(tables: tuple[str, ...], depth: int = 2):
    leaves = st.sampled_from(_numeric_columns(tables) + _NUMBER_LITERALS)
    if depth == 0:
        return leaves
    inner = _numbers(tables, depth - 1)
    templates = ["({} + {})", "({} - {})", "({} * {})", "({} / {})", "({} / {})", "-({})",
                 "ABS({})", "ROUND({}, 1)", "COALESCE({}, {})"]
    return st.one_of(leaves, st.builds(str.format, st.sampled_from(templates), inner, inner),
                     _strings(tables, 0).map("LENGTH({})".format))


@functools.lru_cache(maxsize=None)
def _strings(tables: tuple[str, ...], depth: int = 1):
    leaves = st.sampled_from([c for t in tables for c in _TEXT[t]] + ["'a'", "'A'", "NULL"])
    if depth == 0:
        return leaves
    templates = ["UPPER({})", "LOWER({})", "COALESCE({}, {})"]
    return st.one_of(leaves, leaves,
                     st.builds(str.format, st.sampled_from(templates), leaves, leaves))


@functools.lru_cache(maxsize=None)
def _predicates(tables: tuple[str, ...], depth: int = 2):
    columns = _numeric_columns(tables)
    texts = [c for t in tables for c in _TEXT[t]]
    # One column against literals, the shape most statements have.
    simple = st.sampled_from(
        [f"{c} {op} {v}" for c in columns for op in _COMPARISONS for v in _NUMBER_LITERALS]
        + [f"{c} {neg}IN ({values})" for c in columns for neg in ("", "NOT ")
           for values in ("0, 1", "1, 2.0, 1.5", "NULL, 2", "3")]
        + [f"{c} IS {neg}NULL" for c in columns + texts for neg in ("", "NOT ")]
        + [f"{c} LIKE {p}" for c in texts for p in ("'a%'", "'%b'", "'a_b'", "'_'", "'A'")]
        + [f"{c} LIKE {p} ESCAPE '!'" for c in texts for p in ("'a!_b'", "'a!%b'", "'%!%'")])
    numbers, strings = _numbers(tables, 1), _strings(tables)
    leaves = st.one_of(
        simple, simple,
        st.builds("{} {} {}".format, numbers, st.sampled_from(_COMPARISONS), numbers),
        st.builds("{} {} {}".format, strings, st.sampled_from(["=", "<>", "<"]), strings),
        st.builds("{} LIKE {}".format, strings, strings),
        st.builds("{} {}IN ({}, {})".format, numbers, st.sampled_from(["", "NOT "]),
                  numbers, numbers))
    if depth == 0:
        return leaves
    inner = _predicates(tables, depth - 1)
    return st.one_of(leaves, leaves,
                     st.builds("({} AND {})".format, inner, inner),
                     st.builds("({} OR {})".format, inner, inner),
                     inner.map("NOT {}".format))


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

_ON = ["a.k = b.k", "a.id = b.id", "b.k = a.k", "a.x = b.y", "a.k = b.y", "x = y",
       "a.k < b.k", "a.k = b.k AND b.y > 0", "a.s LIKE b.t", "k = k"]
_AGGREGATES = ["COUNT(*)", "COUNT({n})", "COUNT(DISTINCT {n})", "SUM({n})", "AVG({n})",
               "MIN({n})", "MAX({n})", "MIN({s})", "MAX({s})"]


@st.composite
def _statements(draw) -> str:
    join = draw(st.sampled_from(["", "JOIN", "LEFT JOIN"]))
    tables = ("a", "b") if join else (draw(st.sampled_from(["a", "b"])),)
    sql_from = f"FROM {tables[0]}"
    if join:
        sql_from += f" {join} b ON {draw(st.sampled_from(_ON))}"
    numbers, strings = _numbers(tables), _strings(tables)
    columns = [c for t in tables for c in _NUMERIC[t][:3] + _TEXT[t][:1]]
    group_by: list[str] = []
    having = None
    grouping = draw(st.sampled_from(["none", "group", "global"]))
    if grouping == "none":
        # A predicate as an item shows its value: a bool, or NULL.
        expressions = draw(st.lists(st.one_of(numbers, strings, _predicates(tables, 1),
                                              _predicates(tables, 1)),
                                    min_size=1, max_size=3))
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            expressions = ["*"]
        extra = [draw(numbers)]
    else:
        if grouping == "group":
            group_by = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=2,
                                     unique=True))
        # A column that is not a group key reads the group's first row.
        expressions = draw(st.lists(st.sampled_from(group_by + columns), max_size=2,
                                    unique=True))
        expressions += [
            draw(st.sampled_from(_AGGREGATES)).format(n=draw(_numbers(tables, 1)),
                                                      s=draw(strings))
            for _ in range(draw(st.integers(min_value=1, max_value=2)))]
        if group_by and draw(st.booleans()):
            having = (draw(st.sampled_from(_AGGREGATES[:7])).format(n=draw(numbers))
                      + draw(st.sampled_from([" > 1", " <= 1", " = 1"])))
        extra = group_by + ["COUNT(*)", "SUM(" + draw(numbers) + ")"]
    # An alias may shadow an input column: ORDER BY reads the output first.
    aliases = [draw(st.sampled_from([None, f"o{i}", "x", "k"])) if e != "*" else None
               for i, e in enumerate(expressions)]
    items = [e if alias is None else f"{e} AS {alias}" for e, alias in zip(expressions, aliases)]
    distinct = draw(st.booleans())
    # Under DISTINCT or aggregation a term must read the outputs, group
    # keys or aggregates; the other columns are drawn less often there.
    sortable = [alias for alias in aliases if alias] + [e for e in expressions if e in columns]
    sortable += extra if grouping != "none" or not distinct else []
    if not sortable or draw(st.integers(min_value=0, max_value=3)) == 0 or (
            grouping == "none" and not distinct):
        sortable += columns
    order = [draw(st.sampled_from(sortable)) + draw(st.sampled_from(["", " DESC", " ASC"]))
             for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    where = draw(st.one_of(st.none(), _predicates(tables)))
    limit = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
    sql = "SELECT " + ("DISTINCT " if distinct else "") + ", ".join(items)
    sql += " " + sql_from
    if where is not None:
        sql += f" WHERE {where}"
    if group_by:
        sql += " GROUP BY " + ", ".join(group_by)
    if having is not None:
        sql += f" HAVING {having}"
    if order:
        sql += " ORDER BY " + ", ".join(order)
    if limit is not None:
        sql += f" LIMIT {limit}"
    return sql


def _outcome(executor, statement):
    try:
        result = executor.execute(statement)
    except RelationalError:
        return "RelationalError"
    # repr, so that 1 and 1.0 (or True) in the same place differ.
    return repr((result.columns, result.rows))


#: Rows with a NULL in every column and two rows in one ``k`` group.
_PINNED_ROWS = [(1, 1, None, "a"), (2, 1, 1.5, None), (None, None, 0.0, "A"),
                (0, 2, 2.0, "a_b")]


@settings(max_examples=130, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# Cases a random draw rarely reaches, run on every pass.
@example(a_rows=_PINNED_ROWS, b_rows=[], sqls=[
    "SELECT a.k, (a.x < 1 AND a.k = 1), (a.x < 1 OR a.k = 9), NOT a.x < 1 FROM a",
    "SELECT a.id, a.k NOT IN (1), (a.k + 0) IN (1, NULL), (a.k + 0) NOT IN (a.id) FROM a",
    "SELECT a.k, (a.k / 0), a.x = NULL, a.s LIKE 'A!_%' ESCAPE '!' FROM a",
    "SELECT DISTINCT COUNT(*) AS n FROM a GROUP BY a.k ORDER BY a.k DESC",
    "SELECT a.s, COUNT(*), SUM(b.y) FROM a LEFT JOIN b ON a.k = b.k GROUP BY a.k",
    "SELECT * FROM a LEFT JOIN b ON a.k < b.k ORDER BY a.x DESC, a.id",
    "SELECT b.t, COUNT(*) AS n FROM b",
    "SELECT 'a' AS k FROM a ORDER BY -(k), ROUND(k, 1)",
])
@given(a_rows=_rows, b_rows=_rows, sqls=st.lists(_statements(), min_size=4, max_size=4))
def test_compiled_executor_matches_the_reference(a_rows, b_rows, sqls):
    database = _database(a_rows, b_rows)
    tables = {t.name: t for t in database.tables()}
    for sql in sqls:
        statement = parse_sql(sql)
        expected = _outcome(ReferenceExecutor(tables), statement)
        assert _outcome(SelectExecutor(tables), statement) == expected, sql
