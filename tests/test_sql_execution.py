"""Unit tests for SELECT execution: filters, joins, aggregates, ordering."""

import pytest

from repro.errors import RelationalError, SQLParseError
from repro.relational import Database


class TestBasicSelect:
    def test_select_all(self, small_database):
        result = small_database.execute("SELECT * FROM departments")
        assert len(result) == 3
        assert set(result.columns) == {"code", "name", "population"}

    def test_projection_and_alias(self, small_database):
        result = small_database.execute("SELECT name AS dept_name FROM departments")
        assert result.columns == ["dept_name"]
        assert "Paris" in result.column("dept_name")

    def test_where_comparison(self, small_database):
        rows = small_database.query("SELECT name FROM departments WHERE population > 1000000")
        assert {r["name"] for r in rows} == {"Paris", "Gironde"}

    def test_where_equality_on_text(self, small_database):
        rows = small_database.query("SELECT population FROM departments WHERE code = '29'")
        assert rows == [{"population": 915090}]

    def test_where_like(self, small_database):
        rows = small_database.query("SELECT name FROM departments WHERE name LIKE 'g%'")
        assert [r["name"] for r in rows] == ["Gironde"]

    def test_like_escape_makes_a_wildcard_literal(self):
        database = Database("d")
        database.create_table_from_rows("t", [{"v": v} for v in ("a_b", "axb", "a!b", "50%",
                                                                  "500")])

        def matching(where):
            return sorted(r["v"] for r in database.query(f"SELECT v FROM t WHERE {where}"))

        assert matching("v LIKE 'a_b'") == ["a!b", "a_b", "axb"]
        assert matching("v LIKE 'a!_b' ESCAPE '!'") == ["a_b"]
        assert matching("v LIKE 'a!!b' ESCAPE '!'") == ["a!b"]
        assert matching("v LIKE '50!%' ESCAPE '!'") == ["50%"]
        for bad in ("v LIKE 'a' ESCAPE '!!'", "v LIKE 'a' ESCAPE v"):
            with pytest.raises(SQLParseError):
                matching(bad)

    def test_where_in_list(self, small_database):
        rows = small_database.query("SELECT name FROM departments WHERE code IN ('75', '29')")
        assert {r["name"] for r in rows} == {"Paris", "Finistere"}

    def test_arithmetic_in_projection(self, small_database):
        rows = small_database.query("SELECT population / 1000 AS thousands FROM departments "
                                    "WHERE code = '75'")
        assert rows[0]["thousands"] == pytest.approx(2165.423)

    def test_scalar_functions(self, small_database):
        rows = small_database.query("SELECT UPPER(name) AS up FROM departments WHERE code = '75'")
        assert rows[0]["up"] == "PARIS"

    def test_order_by_desc_and_limit(self, small_database):
        rows = small_database.query(
            "SELECT name FROM departments ORDER BY population DESC LIMIT 2")
        assert [r["name"] for r in rows] == ["Paris", "Gironde"]

    def test_distinct(self, small_database):
        rows = small_database.query("SELECT DISTINCT year FROM unemployment ORDER BY year")
        assert [r["year"] for r in rows] == [2014, 2015]

    def test_constant_select_without_from(self, small_database):
        rows = small_database.query("SELECT 1 + 1 AS two")
        assert rows == [{"two": 2}]


class TestJoins:
    def test_inner_join(self, small_database):
        rows = small_database.query(
            "SELECT d.name, u.rate FROM departments d "
            "JOIN unemployment u ON d.code = u.dept_code WHERE u.year = 2015"
        )
        assert len(rows) == 3
        assert {r["name"] for r in rows} == {"Paris", "Gironde", "Finistere"}

    def test_join_row_multiplicity(self, small_database):
        rows = small_database.query(
            "SELECT u.rate FROM departments d JOIN unemployment u ON d.code = u.dept_code "
            "WHERE d.code = '75'"
        )
        assert len(rows) == 2  # 2014 and 2015

    def test_left_join_keeps_unmatched(self, small_database):
        small_database.execute("INSERT INTO departments (code, name, population) "
                               "VALUES ('99', 'Nowhere', 1)")
        rows = small_database.query(
            "SELECT d.code, u.rate FROM departments d "
            "LEFT JOIN unemployment u ON d.code = u.dept_code WHERE d.code = '99'"
        )
        assert rows == [{"code": "99", "rate": None}]

    def test_join_with_non_equi_condition_falls_back_to_nested_loop(self, small_database):
        rows = small_database.query(
            "SELECT d.name FROM departments d JOIN unemployment u ON d.population > u.rate "
            "WHERE u.year = 2014"
        )
        assert len(rows) == 3  # every department's population beats the single 2014 rate


class TestAggregation:
    def test_count_star(self, small_database):
        rows = small_database.query("SELECT COUNT(*) AS n FROM unemployment")
        assert rows == [{"n": 4}]

    def test_group_by_with_avg(self, small_database):
        rows = small_database.query(
            "SELECT dept_code, AVG(rate) AS avg_rate FROM unemployment GROUP BY dept_code "
            "ORDER BY dept_code"
        )
        by_code = {r["dept_code"]: r["avg_rate"] for r in rows}
        assert by_code["75"] == pytest.approx(8.4)
        assert by_code["33"] == pytest.approx(9.4)

    def test_min_max_sum(self, small_database):
        rows = small_database.query(
            "SELECT MIN(rate) AS lo, MAX(rate) AS hi, SUM(rate) AS total FROM unemployment")
        assert rows[0]["lo"] == pytest.approx(7.9)
        assert rows[0]["hi"] == pytest.approx(9.4)
        assert rows[0]["total"] == pytest.approx(8.2 + 8.6 + 9.4 + 7.9)

    def test_having_filters_groups(self, small_database):
        rows = small_database.query(
            "SELECT dept_code FROM unemployment GROUP BY dept_code HAVING AVG(rate) > 9")
        assert [r["dept_code"] for r in rows] == ["33"]

    def test_count_distinct(self, small_database):
        rows = small_database.query(
            "SELECT COUNT(DISTINCT dept_code) AS n FROM unemployment")
        assert rows == [{"n": 3}]

    def test_aggregate_ignores_nulls(self, small_database):
        small_database.execute("INSERT INTO unemployment (dept_code, year, rate) "
                               "VALUES ('75', 2016, NULL)")
        rows = small_database.query("SELECT COUNT(rate) AS n, COUNT(*) AS total FROM unemployment")
        assert rows[0]["n"] == 4
        assert rows[0]["total"] == 5


class TestDatabaseCatalog:
    def test_create_and_insert_via_sql(self):
        db = Database("scratch")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, label TEXT)")
        result = db.execute("INSERT INTO t (id, label) VALUES (1, 'a'), (2, 'b')")
        assert result.rows == [(2,)]
        assert len(db.table("t")) == 2

    def test_duplicate_table_rejected(self, small_database):
        with pytest.raises(Exception):
            small_database.execute("CREATE TABLE departments (code TEXT)")

    def test_unknown_table_raises(self, small_database):
        with pytest.raises(RelationalError):
            small_database.query("SELECT * FROM nowhere")

    def test_unknown_column_raises(self, small_database):
        with pytest.raises(RelationalError):
            small_database.query("SELECT nonexistent FROM departments")

    def test_create_table_from_rows_infers_types(self):
        db = Database("scratch")
        table = db.create_table_from_rows("people", [
            {"name": "Alice", "age": 31}, {"name": "Bob", "age": 28},
        ])
        assert table.schema.column("age").data_type.name == "INTEGER"
        assert db.query("SELECT COUNT(*) AS n FROM people") == [{"n": 2}]

    def test_statistics(self, small_database):
        stats = small_database.statistics()
        assert stats["departments"]["rows"] == 3

    def test_drop_table(self, small_database):
        small_database.drop_table("unemployment")
        assert not small_database.has_table("unemployment")

    def test_table_names_sorted(self, small_database):
        assert small_database.table_names() == ["departments", "unemployment"]


class TestParameterBindings:
    def test_bindings_visible_in_where(self, small_database):
        from repro.relational.template import sql_template

        template = sql_template("SELECT name FROM departments WHERE code = {wanted_code}")
        result = small_database.execute_select(template.bind({"wanted_code": "75"}))
        assert result.column("name") == ["Paris"]


class TestCompiledColumns:
    """Columns resolve against the catalog when a statement compiles, so
    answers and errors do not depend on which rows happen to exist."""

    @pytest.fixture
    def database(self):
        db = Database("d")
        db.execute("CREATE TABLE d (name TEXT, pop INTEGER)")
        # Insertion order is neither the name order nor the pop order.
        db.execute("INSERT INTO d (name, pop) VALUES ('b', 2), ('c', 3), ('a', 1), ('e', 2)")
        db.execute("CREATE TABLE g (k INTEGER, v TEXT)")
        db.execute("INSERT INTO g (k, v) VALUES (1, 'x'), (2, 'y')")
        db.execute("CREATE TABLE e (k INTEGER, v TEXT)")
        return db

    def names(self, database, sql):
        return [row[0] for row in database.execute(sql).rows]

    def test_order_by_a_column_not_selected(self, database):
        assert self.names(database, "SELECT name FROM d ORDER BY pop") == ["a", "b", "e", "c"]
        assert self.names(database, "SELECT t.name FROM d t ORDER BY t.pop DESC, name") == \
            ["c", "b", "e", "a"]
        # An output name is read before an input column of the same name.
        assert self.names(database, "SELECT name AS pop FROM d ORDER BY pop") == \
            ["a", "b", "c", "e"]

    def test_order_by_under_distinct_or_aggregation_reads_outputs(self, database):
        assert self.names(database, "SELECT DISTINCT name FROM d ORDER BY d.name DESC") == \
            ["e", "c", "b", "a"]
        assert self.names(database, "SELECT pop FROM d GROUP BY pop "
                                    "ORDER BY COUNT(*) DESC, pop") == [2, 1, 3]
        for sql in ("SELECT DISTINCT name FROM d ORDER BY pop",
                    "SELECT pop, COUNT(*) AS n FROM d GROUP BY pop ORDER BY name",
                    "SELECT COUNT(*) AS n FROM d ORDER BY pop"):
            with pytest.raises(RelationalError):
                database.execute(sql)

    @pytest.mark.parametrize("on", ["g.k = e.k", "g.k < e.k"], ids=["equi", "nested-loop"])
    def test_left_join_against_an_empty_table_pads_with_nulls(self, database, on):
        assert database.query(f"SELECT g.k, e.v FROM g LEFT JOIN e ON {on}") == [
            {"k": 1, "v": None}, {"k": 2, "v": None}]
        assert database.execute(f"SELECT * FROM g LEFT JOIN e ON {on}").rows == [
            (1, "x", None, None), (2, "y", None, None)]

    @pytest.mark.parametrize("sql", [
        "SELECT zz FROM e WHERE nosuch = 1",
        "SELECT e.k FROM e WHERE nosuch = 1",
        "SELECT nosuch FROM e",
        "SELECT k FROM g JOIN e ON g.k = e.k",
        "SELECT g.k FROM g JOIN e ON g.k = e.nosuch",
        "SELECT e.k FROM e GROUP BY nosuch",
        "SELECT e.k FROM e ORDER BY nosuch",
    ])
    def test_unknown_or_ambiguous_column_raises_on_an_empty_table(self, database, sql):
        with pytest.raises(RelationalError):
            database.execute(sql)

    def test_aggregate_over_no_rows_reads_nulls(self, database):
        assert database.execute("SELECT k, COUNT(*) AS n FROM e").rows == [(None, 0)]

    def test_a_snapshot_scans_up_to_its_watermark(self, database):
        snapshot = database.snapshot()
        database.execute("INSERT INTO g (k, v) VALUES (3, 'z')")
        database.execute("INSERT INTO e (k, v) VALUES (1, 'p')")
        assert snapshot.execute("SELECT g.k, e.v FROM g LEFT JOIN e ON g.k = e.k").rows == \
            [(1, None), (2, None)]
        assert len(database.execute("SELECT k FROM g")) == 3
