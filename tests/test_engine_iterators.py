"""Unit tests for the Volcano-style iterator operators and the stage
dispatcher ``run_calls``.

The tests of ``CallbackScan``, ``Select``, ``Extend``, ``Sort``,
``Limit``, ``Union``, ``NestedLoopJoin``, ``BindJoin``, ``Aggregate`` /
``AggregateSpec``, ``run_parallel`` and ``ParallelStats`` went away with
those symbols: the executor builds none of them.
"""

import threading
import time

import pytest

from repro.engine import (
    BatchBindJoin,
    BindingBatch,
    Distinct,
    HashJoin,
    MaterializedScan,
    Project,
    run_calls,
)
from repro.engine.batch import batches_from_rows
from repro.errors import QueryTimeoutError

PEOPLE = [
    {"id": "p1", "group": "left", "retweets": 10},
    {"id": "p2", "group": "right", "retweets": 40},
    {"id": "p3", "group": "left", "retweets": 25},
]

ACCOUNTS = [
    {"id": "p1", "handle": "alice"},
    {"id": "p2", "handle": "bob"},
    {"id": "p4", "handle": "dora"},
]


def nested_loop_bind_join(left, fetch):
    """Reference semantics of a bind join, written out."""
    return [{**left_row, **right_row}
            for left_row in left
            for right_row in fetch(left_row)
            if all(left_row[k] == v for k, v in right_row.items() if k in left_row)]


class TestLeafAndUnary:
    def test_materialized_scan_copies_rows(self):
        scan = MaterializedScan(PEOPLE)
        rows = scan.rows()
        rows[0]["id"] = "mutated"
        assert PEOPLE[0]["id"] == "p1"
        assert scan.stats.produced == 3

    def test_project_with_renames(self):
        op = Project(MaterializedScan(PEOPLE), ["id", "group"], renames={"group": "current"})
        row = op.rows()[0]
        assert set(row) == {"id", "current"}

    def test_project_missing_column_yields_none(self):
        op = Project(MaterializedScan(PEOPLE), ["id", "missing"])
        assert op.rows()[0]["missing"] is None

    def test_distinct(self):
        op = Distinct(MaterializedScan([{"a": 1}, {"a": 1}, {"a": 2}]))
        assert op.rows() == [{"a": 1}, {"a": 2}]

    def test_explain_mentions_children(self):
        plan = Distinct(Project(MaterializedScan(PEOPLE, name="people"), ["id"]))
        text = plan.explain()
        assert "distinct" in text and "project(id)" in text and "people" in text


class TestJoins:
    def test_hash_join_natural(self):
        join = HashJoin(MaterializedScan(PEOPLE), MaterializedScan(ACCOUNTS))
        rows = join.rows()
        assert {r["id"] for r in rows} == {"p1", "p2"}
        assert rows[0].keys() >= {"id", "group", "handle"}

    def test_hash_join_explicit_keys(self):
        join = HashJoin(MaterializedScan(PEOPLE), MaterializedScan(ACCOUNTS), keys=["id"])
        assert len(join.rows()) == 2

    def test_hash_join_without_shared_keys_is_cross_product(self):
        join = HashJoin(MaterializedScan([{"a": 1}, {"a": 2}]), MaterializedScan([{"b": 3}]))
        assert len(join.rows()) == 2


class TestBindingBatch:
    def test_batches_are_schema_uniform(self):
        rows = [{"a": 1}, {"a": 2}, {"b": 3}, {"a": 4}]
        batches = list(batches_from_rows(iter(rows)))
        assert [b.columns for b in batches] == [("a",), ("b",), ("a",)]
        assert [list(b.dicts()) for b in batches] == [
            [{"a": 1}, {"a": 2}], [{"b": 3}], [{"a": 4}]]

    def test_a_run_of_one_schema_is_one_batch_whatever_its_length(self):
        rows = [{"a": i} for i in range(700)]
        assert [len(b) for b in batches_from_rows(iter(rows))] == [700]

    def test_projector_fills_missing_with_none(self):
        (batch,) = batches_from_rows([{"a": 1, "b": 2}])
        project = batch.projector(["b", "missing"])
        assert project(batch.rows[0]) == (2, None)

    def test_projector_is_compiled_when_every_column_is_present(self):
        from operator import itemgetter

        (batch,) = batches_from_rows([{"b": 1, "a": 2}])
        project = batch.projector(["a", "b"])
        assert isinstance(project, itemgetter) and project(batch.rows[0]) == (2, 1)
        assert batch.positions() is batch.positions()

    def test_operator_batches_match_rows(self):
        scan = MaterializedScan(PEOPLE)
        via_batches = [row for batch in scan.batches() for row in batch.dicts()]
        assert via_batches == MaterializedScan(PEOPLE).rows()

    def test_estimated_sizes(self):
        scan = MaterializedScan(PEOPLE)
        assert scan.estimated_size() == 3
        assert Project(scan, ["id"]).estimated_size() == 3
        assert Distinct(scan).estimated_size() is None


class TestBatchBindJoin:
    def test_batches_distinct_bindings(self):
        batches = []

        def fetch_batch(bindings):
            batches.append(list(bindings))
            return [[a for a in ACCOUNTS if a["id"] == b["id"]] for b in bindings]

        join = BatchBindJoin(MaterializedScan(PEOPLE), fetch_batch, batch_size=10)
        rows = join.rows()
        assert {r.get("handle") for r in rows} == {"alice", "bob"}
        assert join.calls == 1
        assert len(batches) == 1 and len(batches[0]) == 3

    @pytest.mark.parametrize("batch_size", [1, 2, 10])
    def test_matches_nested_loop_output_order(self, batch_size):
        def fetch(row):
            return [a for a in ACCOUNTS if a["id"] == row["id"]]

        def fetch_batch(bindings):
            return [fetch(b) for b in bindings]

        reference = nested_loop_bind_join(PEOPLE, fetch)
        batched = BatchBindJoin(MaterializedScan(PEOPLE), fetch_batch,
                                batch_size=batch_size).rows()
        assert batched == reference

    def test_batch_size_one_calls_once_per_distinct_binding(self):
        shipped = []

        def fetch_batch(bindings):
            shipped.append([b["id"] for b in bindings])
            return [[a for a in ACCOUNTS if a["id"] == b["id"]] for b in bindings]

        join = BatchBindJoin(MaterializedScan(PEOPLE + PEOPLE), fetch_batch,
                             keys=["id"], batch_size=1)
        assert {r["handle"] for r in join.rows()} == {"alice", "bob"}
        assert shipped == [["p1"], ["p2"], ["p3"]]
        assert join.calls == 3

    def test_binding_carries_only_the_key_variables_a_row_has(self):
        seen = []

        def fetch_batch(bindings):
            seen.extend(bindings)
            return [[] for _ in bindings]

        left = MaterializedScan([{"a": 1, "b": 2}, {"a": 1, "c": 3}, {"b": 2}])
        BatchBindJoin(left, fetch_batch, keys=["a", "c", "missing"]).rows()
        assert seen == [{"a": 1}, {"a": 1, "c": 3}, {}]

    def test_does_not_mutate_shared_fetched_rows(self):
        shared = [{"id": "p1", "handle": "alice"}]
        snapshot = [dict(row) for row in shared]

        join = BatchBindJoin(MaterializedScan(PEOPLE),
                             lambda bindings: [shared for _ in bindings])
        rows = join.rows()
        rows[0]["handle"] = "mutated"
        assert shared == snapshot and len(shared) == 1

    def test_deduplicates_across_batches(self):
        shipped = []

        def fetch_batch(bindings):
            shipped.extend(b["group"] for b in bindings)
            return [[{"group": b["group"], "label": b["group"].upper()}]
                    for b in bindings]

        left = MaterializedScan([{"group": "left"}, {"group": "left"},
                                 {"group": "right"}, {"group": "left"}])
        join = BatchBindJoin(left, fetch_batch, keys=["group"], batch_size=1)
        assert len(join.rows()) == 4
        assert sorted(shipped) == ["left", "right"]
        assert join.bindings_shipped == 2

    def test_all_probe_hits_mean_no_call(self):
        def fetch_batch(bindings):  # pragma: no cover - must not run
            raise AssertionError("a flush the probe answered must not ship")

        join = BatchBindJoin(MaterializedScan(PEOPLE), fetch_batch, keys=["id"],
                             probe=lambda bindings: [[] for _ in bindings],
                             batch_size=2)
        assert join.rows() == []
        assert (join.calls, join.bindings_shipped, join.cache_hits) == (0, 0, 3)

    def test_probe_hit_answers_a_binding_without_shipping_it(self):
        shipped = []

        def fetch_batch(bindings):
            shipped.extend(b["id"] for b in bindings)
            return [[{"id": b["id"], "via": "source"}] for b in bindings]

        cached = [{"id": "p2", "via": "cache"}]
        probed = []

        def probe(bindings):
            # The operator's own (names, values) call keys, not dicts.
            assert all(names == ("id",) for names, _ in bindings)
            probed.append([values[0] for _, values in bindings])
            return [cached if values == ("p2",) else None for _, values in bindings]

        join = BatchBindJoin(MaterializedScan(PEOPLE), fetch_batch, keys=["id"],
                             probe=probe)
        assert [(r["id"], r["via"]) for r in join.rows()] == [
            ("p1", "source"), ("p2", "cache"), ("p3", "source")]
        assert shipped == ["p1", "p3"]
        # One probe call per flush, carrying the whole flush.
        assert probed == [["p1", "p2", "p3"]]
        assert (join.cache_hits, join.bindings_shipped) == (1, 2)
        assert cached == [{"id": "p2", "via": "cache"}]

    def test_misaligned_fetch_batch_raises(self):
        from repro.errors import MixedQueryError

        join = BatchBindJoin(MaterializedScan(PEOPLE), lambda bindings: [[]],
                             batch_size=10)
        with pytest.raises(MixedQueryError):
            join.rows()

    def test_discards_incompatible_rows(self):
        def fetch_batch(bindings):
            return [[{"id": "different", "extra": 1}] for _ in bindings]

        join = BatchBindJoin(MaterializedScan(PEOPLE), fetch_batch, batch_size=10)
        assert join.rows() == []


class TestHashJoinStreaming:
    def test_builds_on_smaller_side(self):
        big = MaterializedScan([{"id": f"p{i}", "n": i} for i in range(50)])
        small = MaterializedScan(ACCOUNTS)
        join = HashJoin(big, small)
        rows = join.rows()
        assert {r["id"] for r in rows} == {"p1", "p2", "p4"}
        # Probe side streamed: consumed counts the bigger input.
        assert join.stats.consumed == 50

    def test_natural_keys_cover_every_probe_batch_schema(self):
        # A shared variable appearing only in a *later* probe batch must
        # still become a join key (regression: first-batch-only inference
        # inferred keys=['a'] and let {'a':1,'c':99} join {'a':1,'c':1}).
        left = MaterializedScan([{"a": 1, "b": 10}, {"a": 1, "c": 99}])
        right = MaterializedScan([{"a": 1, "c": 1}])
        join = HashJoin(left, right)
        assert join.rows() == []  # keys are [a, c]; no row binds both alike

    def test_swapped_build_side_keeps_merge_semantics(self):
        # Explicit keys with a conflicting non-key column: the right
        # side's value must win, whichever side builds the hash table.
        left = MaterializedScan([{"k": 1, "v": "left"}, {"k": 1, "v": "left2"}])
        right = MaterializedScan([{"k": 1, "v": "right"}])
        rows = HashJoin(left, right, keys=["k"]).rows()
        assert [r["v"] for r in rows] == ["right", "right"]
        rows = HashJoin(right, left, keys=["k"]).rows()
        assert sorted(r["v"] for r in rows) == ["left", "left2"]


class TestUnhashableJoinValues:
    """A list-valued key: the hash join keys both sides through
    ``freeze``, as the bind join keys its calls."""

    LIST_ROW = {"a": [1, 2], "x": 1}
    OTHER_ROW = {"a": [3], "x": 2}
    FETCHED = {"a": [1, 2], "y": 2}

    @pytest.mark.parametrize("left, right", [
        ([LIST_ROW], [FETCHED, {"a": (3,), "y": 3}]),  # builds on the left
        ([LIST_ROW, OTHER_ROW], [FETCHED]),            # builds on the right
    ])
    def test_both_joins_answer_alike_whichever_side_builds(self, left, right):
        def fetch_batch(bindings):
            return [[row for row in right if row["a"] == binding["a"]]
                    for binding in bindings]

        bound = BatchBindJoin(MaterializedScan(left), fetch_batch).rows()
        assert bound == [{"a": [1, 2], "x": 1, "y": 2}]
        assert HashJoin(MaterializedScan(left), MaterializedScan(right)).rows() == bound


class TestOperatorProtocol:
    def test_one_production_method_serves_batches_and_rows(self):
        from repro.engine import Operator

        class Numbers(Operator):
            def _produce_batches(self):
                yield BindingBatch(("n",), [(1,), (2,)])
                yield BindingBatch(("n", "m"), [(3, 4)])

        op = Numbers()
        assert op.rows() == [{"n": 1}, {"n": 2}, {"n": 3, "m": 4}]
        assert op.stats.produced == 3
        assert [len(batch) for batch in Numbers().batches()] == [2, 1]
        with pytest.raises(NotImplementedError):
            Operator().rows()


class TestRunCalls:
    """``run_calls`` pools only the calls that wait, or every call under a
    deadline; everything else runs inline on the query thread."""

    def test_a_local_stage_runs_on_the_callers_thread(self):
        caller = threading.get_ident()
        outputs = run_calls([(threading.get_ident, False)] * 3)
        assert outputs == [caller] * 3

    def test_two_remote_calls_overlap(self):
        def remote(value):
            time.sleep(0.05)
            return value

        started = time.perf_counter()
        outputs = run_calls([(lambda: remote(1), True), (lambda: remote(2), True)])
        elapsed = time.perf_counter() - started
        assert outputs == [1, 2]
        assert elapsed < 0.09

    def test_a_local_call_runs_inline_beside_a_remote_one(self):
        caller = threading.get_ident()

        def remote():
            time.sleep(0.02)
            return "remote", threading.get_ident()

        outputs = run_calls([(remote, True),
                             (lambda: ("local", threading.get_ident()), False)])
        assert [label for label, _ in outputs] == ["remote", "local"]
        assert outputs[1][1] == caller
        assert outputs[0][1] != caller

    def test_timeout_bounds_even_a_single_hung_call(self):
        release = threading.Event()
        try:
            with pytest.raises(QueryTimeoutError):
                run_calls([(release.wait, False)], timeout=0.05)
        finally:
            release.set()


class TestNoDeadEngineExports:
    def test_every_export_is_imported_by_the_mediator_or_the_benchmark(self):
        """Operators nobody builds must not re-accumulate in the engine.

        Every name in ``repro.engine.__all__`` has to be imported from the
        engine package by a module of ``src/repro`` outside
        ``repro/engine/``, or by the repository benchmark.
        """
        import ast
        from pathlib import Path

        import repro.engine

        root = Path(__file__).resolve().parent.parent
        package = root / "src" / "repro"
        files = [path for path in package.rglob("*.py")
                 if package / "engine" not in path.parents]
        files += sorted((root / "benchmarks" / "e2e").glob("*.py"))
        imported = set()
        for path in files:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.ImportFrom) and node.module
                        and node.module.split(".")[:2] == ["repro", "engine"]):
                    imported.update(alias.name for alias in node.names)
        assert sorted(set(repro.engine.__all__) - imported) == []


class TestSQLIsReadInOnePlace:
    def test_only_the_template_parses_and_only_four_modules_see_the_text(self):
        """No layer may go back to reading SQL text for itself.

        Under ``src/repro`` the ``.sql`` attribute of a query is read only
        by ``SQLQuery`` itself, the cache key, the wire format and the
        (deliberately independent) warehouse baseline; ``parse_sql`` is
        called only inside ``repro/relational/``.
        """
        import ast
        from pathlib import Path

        package = Path(__file__).resolve().parent.parent / "src" / "repro"
        text_readers = {"cache/keys.py", "remote/protocol.py", "baselines/warehouse.py"}
        offenders = []
        for path in sorted(package.rglob("*.py")):
            relative = path.relative_to(package).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"))
            inside_sql_query = {
                id(node) for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef) and cls.name == "SQLQuery"
                and relative == "relational/source.py" for node in ast.walk(cls)}
            called = {id(node.func) for node in ast.walk(tree)
                      if isinstance(node, ast.Call)}
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute) and node.attr == "sql"
                        and id(node) not in called  # builder.sql(...) is a method
                        and relative not in text_readers
                        and id(node) not in inside_sql_query):
                    offenders.append(f"{relative}:{node.lineno} reads .sql")
                if (isinstance(node, ast.Call) and not relative.startswith("relational/")
                        and getattr(node.func, "id", getattr(node.func, "attr", None))
                        == "parse_sql"):
                    offenders.append(f"{relative}:{node.lineno} calls parse_sql")
        assert offenders == []
