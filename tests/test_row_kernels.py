"""The per-row kernels of the cold CMQ path agree with their plain loops.

Full-text ranking, Distinct's deduplication and the two joins' merges
run their row loops in C builtins; each test here states the loop they
replaced and checks the kernel against it on generated inputs: tied
scores, values equal under ``==`` but not identical (``1``, ``True``,
``1.0``), NaN, unhashable lists, and a source answering rows that match
its binding only loosely (``"Foo"`` for ``"foo"``).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.engine.batch import dedupe, freeze
from repro.engine.iterators import BatchBindJoin, HashJoin, MaterializedScan
from repro.fulltext.index import InvertedIndex
from repro.fulltext.scoring import BM25Parameters, bm25_scorer
from repro.fulltext.store import FieldConfig, FullTextStore

#: One NaN object: equal to nothing, itself included, but found in a set
#: or a dict by identity.
NAN = float("nan")

#: Scores drawn from few values, so that hit sets hold ties.
SCORES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0, 2.25, 3.0]) | st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False)

#: Cell values a row may hold: ``==``-equal spellings, NaN (shared or
#: fresh), and unhashable lists.
CELLS = st.sampled_from([1, True, 1.0, 0, False, "a", "A", None, NAN, (1, 2)]) \
    | st.builds(lambda: float("nan")) | st.builds(list, st.sampled_from([(1,), (1, 2)]))


def _store() -> FullTextStore:
    return FullTextStore("kernels", [FieldConfig("text", "text")])


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(scores=st.dictionaries(st.text("abcD", min_size=1, max_size=3), SCORES, max_size=30),
       limit=st.none() | st.integers(0, 12), data=st.data())
def test_rank_is_the_order_of_minus_score_then_id(scores, limit, data):
    """``rank`` returns ``sorted((-score, id))[:limit]``, whatever the
    order the hits come in."""
    hits = data.draw(st.permutations(sorted(scores)))
    ranked = _store().rank(hits, lambda ids: [scores[i] for i in ids], limit=limit)
    expected = [(doc_id, -key) for key, doc_id in
                sorted((-score, doc_id) for doc_id, score in scores.items())[:limit]]
    assert ranked == expected


def test_rank_breaks_a_tie_by_the_id():
    scores = {"d0": 1.0, "d1": 2.0, "d2": 2.0, "d3": 2.0}
    ranked = _store().rank(["d3", "d1", "d2", "d0"], lambda ids: [scores[i] for i in ids],
                           limit=2)
    assert ranked == [("d1", 2.0), ("d2", 2.0)]


def _textbook_bm25(index: InvertedIndex, terms: list[str], doc_id: str,
                   k1: float = 1.2, b: float = 0.75) -> float:
    """Okapi BM25 summed over ``terms``, in the textbook's order of operations."""
    length_norm = k1 * ((1.0 - b) + b * index.document_length(doc_id)
                        / (index.average_document_length() or 1.0))
    total = 0.0
    for term in terms:
        tf = index.term_frequency(term, doc_id)
        if tf:
            total += index.idf(term) * (tf * (k1 + 1.0)) / (tf + length_norm)
    return total


@settings(max_examples=100, deadline=None)
@given(documents=st.lists(st.lists(st.sampled_from("abcde"), max_size=8), min_size=1,
                          max_size=12),
       terms=st.lists(st.sampled_from("abcdez"), min_size=1, max_size=3))
def test_bm25_kernels_give_the_textbook_float(documents, terms):
    """The one-term kernel and the sum over terms give the same float as
    the textbook formula, bit for bit."""
    index = InvertedIndex("text")
    ids = [f"d{i}" for i in range(len(documents))]
    for doc_id, words in zip(ids, documents):
        index.add(doc_id, words)
    scores = bm25_scorer(index, terms, BM25Parameters())(ids)
    assert scores == [_textbook_bm25(index, terms, doc_id) for doc_id in ids]


# ---------------------------------------------------------------------------
# Deduplication
# ---------------------------------------------------------------------------

def _loop_dedupe(rows: list, seen: set) -> list:
    """Deduplication as a loop: a row is new unless its (frozen if
    unhashable) value tuple is in ``seen``."""
    keep = []
    for row in rows:
        try:
            key = row
            hash(key)
        except TypeError:
            key = freeze(row)
        if key in seen:
            continue
        seen.add(key)
        keep.append(row)
    return keep


@settings(max_examples=200, deadline=None)
@given(batches=st.lists(st.lists(st.tuples(CELLS, CELLS), max_size=8), max_size=5))
def test_dedupe_of_rows_keyed_by_themselves_is_the_loop(batches):
    """Across batches sharing one ``seen`` set, the kernel keeps the very
    row objects the loop keeps, in order."""
    kernel_seen: set = set()
    loop_seen: set = set()
    for rows in batches:
        kept = dedupe(rows, rows, kernel_seen)
        expected = _loop_dedupe(rows, loop_seen)
        assert len(kept) == len(expected)
        assert all(a is b for a, b in zip(kept, expected))


def test_dedupe_equates_one_true_and_one_point_zero_but_no_two_nans():
    one, true, fresh_nan = (1, "x"), (True, "x"), (float("nan"), "x")
    rows = [one, true, (1.0, "x"), (NAN, "x"), (NAN, "x"), fresh_nan]
    assert dedupe(rows, rows, set()) == [one, (NAN, "x"), fresh_nan]
    unhashable = [([1, 2], "x"), ((1, 2), "x")]
    assert dedupe(unhashable, unhashable, set()) == [([1, 2], "x")]


# ---------------------------------------------------------------------------
# The bind join's merge
# ---------------------------------------------------------------------------

def _bind_join(left: list[dict], fetched: list[dict], batch_size: int = 3) -> list[dict]:
    """A bind join whose source answers every binding with ``fetched``,
    matching or not (a loose source)."""
    join = BatchBindJoin(MaterializedScan(left),
                         lambda bindings: [fetched for _ in bindings],
                         keys=["id"], batch_size=batch_size)
    return join.rows()


def _nested_loop(left: list[dict], fetched: list[dict]) -> list[dict]:
    """The bind join's definition: for each left row, each fetched row
    agreeing (under ``!=``) on every shared variable, ``{**left, **right}``."""
    return [{**row, **right} for row in left for right in fetched
            if not any(row[c] != right[c] for c in row if c in right)]


def _same_rows(rows: list[dict], expected: list[dict]) -> bool:
    """Equal dict rows, cells compared by identity first (NaN is itself)."""
    return len(rows) == len(expected) and all(
        a.keys() == b.keys() and all(a[k] is b[k] or a[k] == b[k] for k in a)
        for a, b in zip(rows, expected))


ROWS = st.lists(st.fixed_dictionaries({"id": st.sampled_from(["foo", "Foo", 1, 1.0, NAN])},
                                      optional={"x": st.integers(0, 3),
                                                "t": st.sampled_from(["u", "v"])}),
                max_size=6)


@settings(max_examples=200, deadline=None)
@given(left=ROWS, fetched=ROWS, batch_size=st.sampled_from([1, 2, 256]))
def test_the_bind_join_merge_is_the_nested_loop(left, fetched, batch_size):
    assert _same_rows(_bind_join(left, fetched, batch_size), _nested_loop(left, fetched))


def test_a_loose_match_and_a_nan_never_join():
    """A full-text source finds ``"Foo"`` for the binding ``"foo"``; the
    join keeps only the row spelled as bound, and a NaN binding joins
    nothing, not even the NaN object it was bound to."""
    left = [{"id": "foo", "x": 1}, {"id": NAN, "x": 2}]
    fetched = [{"id": "Foo", "t": "loose"}, {"id": "foo", "t": "exact"},
               {"id": NAN, "t": "nan"}]
    assert _bind_join(left, fetched) == [{"id": "foo", "x": 1, "t": "exact"}]


def test_the_merge_takes_the_right_value_of_a_shared_column():
    """``1`` and ``1.0`` agree; the merged row holds the fetched one."""
    rows = _bind_join([{"id": 1, "x": 0}], [{"id": 1.0, "t": "u"}])
    assert rows == [{"id": 1.0, "x": 0, "t": "u"}]
    assert isinstance(rows[0]["id"], float)


# ---------------------------------------------------------------------------
# The hash join's probe
# ---------------------------------------------------------------------------

def _same_key(a: object, b: object) -> bool:
    """Two key cells match: one object, or equal once frozen."""
    return a is b or freeze(a) == freeze(b)


def _hash_nested_loop(left: list[dict], right: list[dict], keys: list[str]) -> list[dict]:
    """The hash join's definition: for each probe row, each build row
    matching it on every key, ``{**left, **right}``; the smaller side
    builds."""
    build_is_left = len(left) < len(right)
    probe, build = (right, left) if build_is_left else (left, right)
    return [{**b, **p} if build_is_left else {**p, **b} for p in probe for b in build
            if all(_same_key(p[k], b[k]) for k in keys)]


KEYED = st.sampled_from(["foo", "Foo", 1, 1.0, True, NAN]) \
    | st.builds(list, st.sampled_from([(1,), (1, 2)]))
LEFT_KEYED = st.lists(st.fixed_dictionaries({"id": KEYED, "x": st.integers(0, 2),
                                             "t": st.sampled_from(["u", "v"])}), max_size=6)
RIGHT_KEYED = st.lists(st.fixed_dictionaries({"x": st.integers(0, 2), "id": KEYED,
                                              "r": st.integers(0, 3)}), max_size=6)


@settings(max_examples=200, deadline=None)
@given(left=LEFT_KEYED, right=RIGHT_KEYED, keys=st.sampled_from([["id", "x"], ["x", "id"]]))
def test_the_hash_join_probe_is_the_nested_loop_on_every_key(left, right, keys):
    joined = HashJoin(MaterializedScan(left), MaterializedScan(right), keys=keys).rows()
    assert _same_rows(joined, _hash_nested_loop(left, right, keys))


def test_a_key_narrower_than_the_shared_columns_takes_the_right_value():
    """Keyed on ``id`` alone, rows differing on ``x`` still join, and
    the merged row holds the right one's ``x``."""
    rows = HashJoin(MaterializedScan([{"id": 1, "x": 0}]),
                    MaterializedScan([{"x": 2, "id": 1.0}]), keys=["id"]).rows()
    assert rows == [{"id": 1.0, "x": 2}]
