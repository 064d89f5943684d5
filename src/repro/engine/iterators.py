"""Volcano-style iterator operators over binding tuples.

The paper's mediator performs "the remaining processing (joins etc.) on
subquery results ... within our in-house iterator-based execution engine".
This module is that engine: every operator consumes and produces *binding
tuples* (variable name -> value), so the same operators serve RDF
bindings, relational rows and full-text hits once the source wrappers
have normalised them.

Operators exchange :class:`~repro.engine.batch.BindingBatch` objects
(shared column header + immutable tuple rows): an operator implements
``_produce_batches`` and nothing else.  Inputs given as dict rows are
coerced once by :func:`~repro.engine.batch.as_batches`; dict rows are
built again only in :meth:`Operator.rows`, for the caller.  Both joins
merge rows set-at-a-time, one compiled comprehension per pair of headers
(:func:`~repro.engine.batch.row_merger`); a join handed ``columns`` (the
plan's last) emits the answer's header, so :class:`Project` shares its rows.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.engine.batch import (
    DEFAULT_BATCH_SIZE,
    BindingBatch,
    Row,
    SeenRows,
    as_batches,
    dict_rows,
    freeze,
    key_reader,
    row_count,
    row_merger,
    tuple_getter,
)
from repro.errors import MixedQueryError


@dataclass
class OperatorStats:
    """Per-operator row counters."""

    produced: int = 0
    consumed: int = 0


class Operator:
    """Base class of every iterator operator.

    Subclasses implement ``_produce_batches`` (yield
    :class:`BindingBatch` objects); consumers pull :meth:`batches`, or
    :meth:`rows` for the fully evaluated dict rows.
    """

    def __init__(self, name: str | None = None):
        self.name = name or type(self).__name__
        self.stats = OperatorStats()

    def _produce_batches(self) -> Iterator[BindingBatch]:
        raise NotImplementedError

    def batches(self) -> Iterator[BindingBatch]:
        """Evaluate the operator batch-wise."""
        for batch in self._produce_batches():
            self.stats.produced += len(batch)
            yield batch

    def rows(self) -> list[Row]:
        """Fully evaluate the operator and return its output as fresh dicts."""
        return dict_rows(self.batches())

    def estimated_size(self) -> int | None:
        """Known output row count, or ``None`` when it cannot be told cheaply."""
        return None

    def explain(self, indent: int = 0) -> str:
        """Return an indented textual plan rooted at this operator."""
        lines = [("  " * indent) + self.describe()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        """One line description used by :meth:`explain`."""
        return self.name

    def children(self) -> Sequence["Operator"]:
        """Child operators (empty for leaves)."""
        return ()


class MaterializedScan(Operator):
    """Leaf operator over an already materialised answer.

    ``rows`` are batches (kept as they are, rows shared) or dict rows
    (converted once, here); :meth:`rows` builds fresh dicts on every
    call, so callers may mutate the output without corrupting the scan.
    """

    def __init__(self, rows: Iterable[Row] | Iterable[BindingBatch], name: str = "scan"):
        super().__init__(name)
        self._batches = as_batches(rows)
        self._count = row_count(self._batches)

    def _produce_batches(self) -> Iterator[BindingBatch]:
        yield from self._batches

    def estimated_size(self) -> int:
        return self._count

    def describe(self) -> str:
        return f"{self.name}({self._count} rows)"


class Project(Operator):
    """Keep (and optionally rename) a subset of the variables."""

    def __init__(self, child: Operator, columns: Sequence[str],
                 renames: dict[str, str] | None = None, name: str = "project"):
        super().__init__(name)
        self.child = child
        self.columns = list(columns)
        self.renames = renames or {}

    def _produce_batches(self) -> Iterator[BindingBatch]:
        columns = tuple(self.columns)
        out_columns = tuple(self.renames.get(c, c) for c in columns)
        for batch in self.child.batches():
            self.stats.consumed += len(batch)
            # Same header: the rows are shared, not copied.
            yield BindingBatch(out_columns, batch.rows if batch.columns == columns
                               else list(map(batch.projector(columns), batch.rows)))

    def estimated_size(self) -> int | None:
        return self.child.estimated_size()

    def describe(self) -> str:
        return f"{self.name}({', '.join(self.columns)})"

    def children(self) -> Sequence[Operator]:
        return (self.child,)


class HashJoin(Operator):
    """Equi-join on the variables shared by both inputs (natural join).

    The hash table is built on the side whose size hint is smaller (the
    right side when the hints cannot tell), one table per build header,
    bucketing rows by their key: the bare cell of one key, a tuple of
    several, ``None`` for a key column a row lacks.  Keys match by
    equality or identity (a shared NaN matches itself); an unhashable key
    is frozen (:func:`~repro.engine.batch.freeze`) on both sides.  The
    other side is *streamed* batch-wise, each probe batch meeting each
    table in one compiled :func:`~repro.engine.batch.row_merger`; a
    merged row is ``{**left, **right}`` in the operator's orientation (the
    right value wins on a shared non-key column).  When ``keys`` is not
    given they are inferred from the variables present on both sides,
    which requires collecting the probe side's batches first.

    Row order: with one build header, the nested loop's "for each probe
    row, each build row with its key"; with several, the same multiset,
    table by table within each probe batch.  ``columns`` is an output
    header (the plan's last join: the answer's), ``None`` for a column
    neither side has.
    """

    def __init__(self, left: Operator, right: Operator, keys: Sequence[str] | None = None,
                 name: str = "hashjoin", columns: Sequence[str] | None = None):
        super().__init__(name)
        self.left = left
        self.right = right
        self.keys = list(keys) if keys is not None else None
        self.columns = tuple(columns) if columns is not None else None

    def _produce_batches(self) -> Iterator[BindingBatch]:
        left_size = self.left.estimated_size()
        right_size = self.right.estimated_size()
        build_is_left = (left_size is not None and right_size is not None
                         and left_size < right_size)
        build_op, probe_op = (self.left, self.right) if build_is_left \
            else (self.right, self.left)

        build_batches = list(build_op.batches())
        probe_batches = probe_op.batches()

        keys = self.keys
        if keys is None:
            # Natural join: the keys are the variables present on *any*
            # row of both sides, so every probe header must be known
            # before bucketing — collect the probe batches.
            probe_batches = list(probe_batches)
            keys = sorted({c for batch in build_batches for c in batch.columns}
                          & {c for batch in probe_batches for c in batch.columns})
        keys = tuple(keys)
        try:
            tables = self._bucket(build_batches, keys, None)
        except TypeError:  # an unhashable key: every build key is frozen
            tables = self._bucket(build_batches, keys, freeze)

        for probe_batch in probe_batches:
            self.stats.consumed += len(probe_batch)
            for build_columns, table in tables.items():
                out_columns, merge = row_merger(
                    probe_batch.columns, build_columns, outer_is_left=not build_is_left,
                    agree=False, key=keys, columns=self.columns)
                try:
                    rows = merge(probe_batch.rows, table.get)
                except TypeError:  # an unhashable probe key: look it up frozen
                    rows = merge(probe_batch.rows,
                                 lambda key, absent: table.get(freeze(key), absent))
                if rows:
                    yield BindingBatch(out_columns, rows)

    @staticmethod
    def _bucket(batches: list[BindingBatch], keys: tuple[str, ...],
                convert: Callable[[object], object] | None,
                ) -> dict[tuple[str, ...], dict[object, list[tuple]]]:
        """The build rows of each header by their (``convert``-ed) key."""
        tables: dict[tuple[str, ...], defaultdict] = {}
        for batch in batches:
            table = tables.setdefault(batch.columns, defaultdict(list))
            found = key_reader(batch.columns, keys)(batch.rows)
            for key, row in zip(found if convert is None else map(convert, found),
                                batch.rows):
                table[key].append(row)
        return tables

    def describe(self) -> str:
        keys = self.keys if self.keys is not None else "natural"
        return f"{self.name}(keys={keys})"

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)


class BatchBindJoin(Operator):
    """Dependent join shipping *batches* of distinct bindings to a source.

    This is the operator behind the mediator's "bindings for data sources
    must be obtained before the source can be queried" rule: the left
    rows' distinct bindings are collected into groups of ``batch_size``
    and one ``fetch_batch`` call answers the whole group — the source
    wrapper turns it into a native IN-list / disjunctive pushdown when it
    can.  ``batch_size=1`` is the classical one-call-per-binding bind
    join.  Output order and content are those of the nested loop "for
    each left row, for each fetched row agreeing on every shared
    variable, emit ``{**left, **right}``".

    ``keys`` names the variables forming a binding (those of them a left
    row carries); by default every variable of the row.  ``probe`` is an
    optional result-cache lookup, once per flush: given the
    ``(names, values)`` pair of each binding it returns an answer or
    ``None`` per binding, and ONE ``fetch_batch`` call then ships the
    unanswered ones, in order.  ``fetch_batch`` receives a list of
    binding dicts and must return one answer per binding, in order.  An
    answer — from
    ``fetch_batch`` or ``probe`` — is a list of batches or a list of dict
    rows; either may be a *shared* list (a cache entry, the caller's own
    table): the operator reads it and never mutates it.  ``columns``,
    when given, is the output header, as for :class:`HashJoin`.
    """

    def __init__(self, left: Operator, fetch_batch: Callable[[list[Row]], list[list[Row]]],
                 keys: Sequence[str] | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 probe: Callable[[list[tuple]], Iterable[list[Row] | None]] | None = None,
                 name: str = "batchbind", columns: Sequence[str] | None = None):
        super().__init__(name)
        self.left = left
        self.columns = tuple(columns) if columns is not None else None
        self.fetch_batch = fetch_batch
        self.keys = list(keys) if keys is not None else None
        self.batch_size = max(1, batch_size)
        self.probe = probe
        self.calls = 0
        self.bindings_shipped = 0
        self.cache_hits = 0

    def _produce_batches(self) -> Iterator[BindingBatch]:
        # Call key -> the fetched rows, as schema-uniform batches.
        answers: dict[tuple, list[BindingBatch]] = {}
        # Left rows, as (columns, values, call key): ``pending`` wait for a
        # flush, ``ready`` have their answer and are joined per left batch.
        pending: list[tuple[tuple[str, ...], tuple, tuple]] = []
        ready: list[tuple[tuple[str, ...], tuple, tuple]] = []
        queued: dict[tuple, tuple] = {}  # call key -> (names, unfrozen values)
        for batch in self.left.batches():
            self.stats.consumed += len(batch)
            columns = batch.columns
            positions = batch.positions()
            wanted = self.keys if self.keys is not None else sorted(columns)
            present = tuple(k for k in wanted if k in positions)
            values_of = tuple_getter([positions[k] for k in present])
            for row in batch.rows:
                values = values_of(row)
                try:
                    hash(values)
                    key = (present, values)
                except TypeError:
                    key = (present, freeze(values))
                if not pending and key in answers:
                    # Answer already known and nothing queued ahead of this
                    # row: it joins right away, preserving order.
                    ready.append((columns, row, key))
                    continue
                pending.append((columns, row, key))
                if key in answers or key in queued:
                    continue
                queued[key] = (present, values)
                if len(queued) >= self.batch_size:
                    self._flush(queued, answers)
                    queued = {}
                    ready += pending
                    pending = []
            yield from self._join(ready, answers)
            ready = []
        if queued:
            self._flush(queued, answers)
        yield from self._join(pending, answers)

    def _flush(self, queued: dict[tuple, tuple],
               answers: dict[tuple, list[BindingBatch]]) -> None:
        to_ship = list(queued.items())
        if self.probe is not None and to_ship:
            missed = []
            for item, hit in zip(to_ship,
                                 self.probe([binding for _, binding in to_ship])):
                if hit is None:
                    missed.append(item)
                else:
                    # The cross-query result cache already knows the answer.
                    answers[item[0]] = as_batches(hit)
                    self.cache_hits += 1
            to_ship = missed
        if not to_ship:
            return
        self.calls += 1
        self.bindings_shipped += len(to_ship)
        fetched = self.fetch_batch([dict(zip(*binding)) for _, binding in to_ship])
        if len(fetched) != len(to_ship):
            raise MixedQueryError(
                f"batched fetch of {self.name!r} returned {len(fetched)} result lists "
                f"for {len(to_ship)} bindings"
            )
        for (key, _), rows in zip(to_ship, fetched):
            answers[key] = as_batches(rows)

    def _join(self, left: list[tuple[tuple[str, ...], tuple, tuple]],
              answers: dict[tuple, list[BindingBatch]]) -> Iterator[BindingBatch]:
        """Merge each left row with its fetched rows, in order: each run of
        (left row, fetched rows) under one pair of headers is one call of
        its compiled :func:`row_merger`."""
        runs: list[tuple[tuple, list[tuple[tuple, list[tuple]]]]] = []
        for columns, row, key in left:
            for fetched in answers[key]:
                if not runs or runs[-1][0] != (columns, fetched.columns):
                    runs.append(((columns, fetched.columns), []))
                runs[-1][1].append((row, fetched.rows))
        for headers, run in runs:
            out_columns, merge = row_merger(*headers, columns=self.columns)
            if rows := merge(run):
                yield BindingBatch(out_columns, rows)

    def children(self) -> Sequence[Operator]:
        return (self.left,)


class Distinct(Operator):
    """Remove duplicate rows (order-preserving).

    A row is keyed by the value tuple it already is
    (:class:`~repro.engine.batch.SeenRows`): no per-cell work, only a row
    holding an unhashable value is frozen.  Rows equal under Python
    equality are one row (``1``, ``True``, ``1.0``; ``[1, 2]``, ``(1, 2)``),
    whatever the column order of their batches.
    """

    def __init__(self, child: Operator, name: str = "distinct"):
        super().__init__(name)
        self.child = child

    def _produce_batches(self) -> Iterator[BindingBatch]:
        seen = SeenRows()
        for batch in self.child.batches():
            self.stats.consumed += len(batch)
            keep = seen.fresh(batch)
            if keep:
                yield BindingBatch(batch.columns, keep)

    def children(self) -> Sequence[Operator]:
        return (self.child,)
