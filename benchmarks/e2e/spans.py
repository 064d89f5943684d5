"""In-memory span recorder of the traced pass, installed from outside.

The program is not edited: :func:`installed` wraps the *public* entry
point of each layer with a delegating function for the duration of the
traced pass and restores the original afterwards.  The wrappers are set
on the classes, so pinned source clones, ``isinstance`` checks, ``pin``,
``version``, ``estimate``, ``deltas_since`` and the ``store`` /
``database`` / ``graph`` attributes behave exactly as in the untraced
pass — only ``execute`` / ``execute_batch`` gain a timer.

Span tree of one operation::

    op ─ parse                         MixedInstance.parse
       ├ service ─ pin                 MediatorService.execute, pin_instance
       │         └ execute ─ plan      MixedQueryExecutor.execute, QueryPlanner.plan
       │                   ├ source.*  DataSource.execute / execute_batch
       │                   └ repair    RepairEngine.repair
       └ (direct workloads: execute hangs under op)

The traced pass has ONE client, so at most one operation is in flight:
a span started on a thread with no open span of its own (a service
worker, a dispatch-pool thread, a loopback server thread) is attached to
the innermost open non-source span of that operation.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from typing import Iterator

import repro.service.mediator as mediator_module
from repro.cache.repair import RepairEngine
from repro.core.executor import MixedQueryExecutor
from repro.core.instance import MixedInstance
from repro.core.planner import QueryPlanner
from repro.core.sources import FullTextSource, JSONSource, RDFSource, RelationalSource
from repro.remote import RemoteSource
from repro.service.mediator import MediatorService

SOURCE_CLASSES = (RDFSource, RelationalSource, FullTextSource, JSONSource,
                  RemoteSource)


class Recorder:
    """Spans as ``[name, start, end, parent index, op index]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: list[int] = []
        self._leaves: set[int] = set()
        self._op = -1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, leaf: bool = False) -> Iterator[None]:
        stack = self._stack()
        if leaf and stack and stack[-1] in self._leaves:
            # ``execute_batch`` falling back to ``self.execute``, or the
            # repair engine querying its private delta store: the
            # outermost call is the layer boundary.
            yield
            return
        with self._lock:
            index = len(self.spans)
            if name == "op":
                self._op = index
            parent = stack[-1] if stack else (self._open[-1] if self._open else -1)
            record = [name, 0.0, 0.0, parent, self._op]
            self.spans.append(record)
            if leaf:
                self._leaves.add(index)
            else:
                self._open.append(index)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            if not leaf:
                with self._lock:
                    self._open.remove(index)

    def dump(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "op": op} for name, start, end, parent, op in self.spans]


def _source_span_name(source) -> str:
    if isinstance(source, RemoteSource):
        return "source.remote"
    return f"source.{source.model}"


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Wrap the layers' public entry points for the ``with`` block."""
    undo: list[tuple[object, str, object]] = []

    def wrap(owner, attribute: str, name, leaf: bool = False) -> None:
        original = owner.__dict__[attribute]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args[0])
            with recorder.span(label, leaf):
                return original(*args, **kwargs)

        undo.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    try:
        wrap(MixedInstance, "parse", "parse")
        wrap(QueryPlanner, "plan", "plan")
        wrap(MixedQueryExecutor, "execute", "execute")
        wrap(MediatorService, "execute", "service")
        wrap(mediator_module, "pin_instance", "pin")
        wrap(RepairEngine, "repair", "repair", leaf=True)
        for cls in SOURCE_CLASSES:
            for attribute in ("execute", "execute_batch"):
                wrap(cls, attribute, _source_span_name, leaf=True)
        yield
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


def _covered(intervals: list[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def analyse(recorder: Recorder) -> dict:
    """Self time per span name, and per operation.

    A span's self time is its duration minus the union of its children's
    intervals; the ``op`` span's own self time is what no layer span
    covers — the unattributed share.
    """
    spans = recorder.spans
    children: dict[int, list[int]] = defaultdict(list)
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    self_seconds: dict[str, float] = defaultdict(float)
    busy_seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for index, (name, start, end, _, op) in enumerate(spans):
        own = (end - start) - _covered(
            [(spans[child][1], spans[child][2]) for child in children[index]],
            start, end)
        self_seconds[name] += own
        busy_seconds[name] += end - start
        calls[name] += 1
        per_op[op][name] += own
    op_wall = busy_seconds.get("op", 0.0)
    return {
        "self_seconds": dict(self_seconds),
        "busy_seconds": dict(busy_seconds),
        "calls": dict(calls),
        "per_op": {op: dict(names) for op, names in per_op.items()},
        "unattributed_pct": (100.0 * self_seconds.get("op", 0.0) / op_wall
                             if op_wall else 0.0),
    }
