"""Structured spans: nested, monotonic timings propagated via contextvars.

A :class:`SpanTracer` collects the spans of one traced unit of work
(typically one query through the mediator service).  Spans form a tree:
the service opens a ``query:*`` root at submission, the executor nests
``execute`` under it, the planner nests ``plan``, each dispatch stage and
each source call nests deeper still.  The *current* span travels in a
:data:`contextvars.ContextVar`, and :func:`repro.engine.parallel
.run_calls` copies the submitting thread's context into each pooled
call, so parentage survives dispatch across threads.

The instrumentation is written to cost nothing when no trace is active:
:func:`span` reads one context variable and yields ``None`` when there
is no current span, so modules can sprinkle ``with span(...)`` freely —
spans are only allocated inside an active trace.

All timings use :func:`time.perf_counter` (monotonic, sub-microsecond),
the same clock the executor stamps :class:`~repro.core.results
.ExecutionTrace` with, so span totals and trace totals reconcile.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import logging
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

logger = logging.getLogger("repro.obs.spans")

#: Attributes :meth:`SpanTracer.render` prints per span.
RENDERED_ATTRIBUTES = 4

#: The span the calling context is currently inside (None = not tracing).
_CURRENT: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_current_span", default=None)


class Span:
    """One timed node of a span tree.

    Spans are created through :class:`SpanTracer.start` (or the
    :func:`span` / :func:`trace` context managers) and closed with
    :meth:`end`; ``end`` is idempotent, so a span shared across threads
    (e.g. the service's queue span, started at submit and ended at
    dequeue) may be closed defensively from several places.
    """

    __slots__ = ("tracer", "name", "span_id", "parent_id", "started_at",
                 "ended_at", "attributes")

    def __init__(self, tracer: "SpanTracer", name: str, span_id: int,
                 parent_id: Optional[int], attributes: dict):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.started_at = time.perf_counter()
        self.ended_at: Optional[float] = None

    @property
    def seconds(self) -> float:
        """Duration so far (final once the span has ended)."""
        end = self.ended_at if self.ended_at is not None else time.perf_counter()
        return end - self.started_at

    def set(self, **attributes) -> "Span":
        """Attach (or overwrite) attributes on the span."""
        self.attributes.update(attributes)
        return self

    def end(self, **attributes) -> "Span":
        """Close the span (idempotent); extra attributes may ride along."""
        if attributes:
            self.attributes.update(attributes)
        if self.ended_at is None:
            self.ended_at = time.perf_counter()
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug("span %s ended after %.3f ms %s",
                             self.name, self.seconds * 1000.0,
                             self.attributes or "")
        return self

    def to_dict(self, origin: float | None = None) -> dict:
        """JSON-friendly representation (times relative to ``origin``)."""
        origin = origin if origin is not None else self.started_at
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_ms": round((self.started_at - origin) * 1000.0, 4),
            "duration_ms": round(self.seconds * 1000.0, 4),
            "ended": self.ended_at is not None,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Span(name={self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, seconds={self.seconds:.6f})")


class SpanTracer:
    """Collects the span tree of one traced unit of work (thread-safe)."""

    def __init__(self, name: str = "trace"):
        self.name = name
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: list[Span] = []

    # ------------------------------------------------------------------
    def start(self, name: str, parent: Span | None = None, **attributes) -> Span:
        """Open a new span (a root when ``parent`` is None)."""
        span_ = Span(self, name, next(self._ids),
                     parent.span_id if parent is not None else None,
                     attributes)
        with self._lock:
            self.spans.append(span_)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("span %s started (parent=%s)", name,
                         parent.name if parent is not None else None)
        return span_

    def root(self) -> Optional[Span]:
        """The first root span (None while the tracer is empty)."""
        with self._lock:
            for span_ in self.spans:
                if span_.parent_id is None:
                    return span_
        return None

    def find(self, name: str) -> list[Span]:
        """Every span with the given name, in creation order."""
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def total_seconds(self) -> float:
        """Duration of the root span (0.0 while the tracer is empty)."""
        root = self.root()
        return root.seconds if root is not None else 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dicts(self) -> list[dict]:
        """The span tree as JSON-friendly dictionaries."""
        with self._lock:
            spans = list(self.spans)
        origin = spans[0].started_at if spans else 0.0
        return [span_.to_dict(origin) for span_ in spans]

    def to_json(self, indent: int | None = None) -> str:
        """The span tree as a JSON document."""
        return json.dumps({"trace": self.name, "spans": self.to_dicts()},
                          indent=indent, default=str)

    def render(self) -> str:
        """A flame-style text tree: indentation, duration, % of root."""
        with self._lock:
            spans = list(self.spans)
        if not spans:
            return f"(empty trace {self.name!r})"
        children: dict[Optional[int], list[Span]] = {}
        for span_ in spans:
            children.setdefault(span_.parent_id, []).append(span_)
        roots = children.get(None, [])
        total = max((root.seconds for root in roots), default=0.0) or 1e-9
        lines: list[str] = []

        def walk(span_: Span, depth: int) -> None:
            share = 100.0 * span_.seconds / total
            bar = "#" * max(1, min(10, int(round(share / 10.0))))
            attrs = " ".join(
                f"{key}={_short(value)}"
                for key, value in itertools.islice(span_.attributes.items(),
                                                   RENDERED_ATTRIBUTES))
            label = "  " * depth + span_.name
            lines.append(f"{label:<44} {span_.seconds * 1000.0:9.2f} ms "
                         f"{share:5.1f}%  {bar:<10}"
                         + (f"  {attrs}" if attrs else ""))
            for child in children.get(span_.span_id, []):
                walk(child, depth + 1)

        for root in roots:
            walk(root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SpanTracer(name={self.name!r}, spans={len(self)})"


def _short(value: object, limit: int = 32) -> str:
    text = str(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


# ---------------------------------------------------------------------------
# Context propagation
# ---------------------------------------------------------------------------

def current_span() -> Optional[Span]:
    """The span the calling context is inside, or None when not tracing."""
    return _CURRENT.get()


def attach(span_: Span) -> contextvars.Token:
    """Make ``span_`` the current span; returns the token for :func:`detach`.

    For code that cannot use the :func:`span` context manager because the
    span starts and ends in different threads (the mediator service's
    per-ticket root span).
    """
    return _CURRENT.set(span_)


def detach(token: contextvars.Token) -> None:
    """Restore the current span saved by :func:`attach`."""
    _CURRENT.reset(token)


@contextmanager
def trace(name: str, **attributes) -> Iterator[Span]:
    """Start a fresh tracer with one root span and make it current."""
    tracer = SpanTracer(name)
    root = tracer.start(name, **attributes)
    token = _CURRENT.set(root)
    try:
        yield root
    finally:
        _CURRENT.reset(token)
        root.end()


@contextmanager
def span(name: str, **attributes) -> Iterator[Optional[Span]]:
    """Open a child of the current span; a no-op outside any trace.

    Yields the new :class:`Span`, or ``None`` when no trace is active —
    callers guard attribute updates with ``if sp is not None``.
    """
    parent = _CURRENT.get()
    if parent is None:
        yield None
        return
    child = parent.tracer.start(name, parent=parent, **attributes)
    token = _CURRENT.set(child)
    try:
        yield child
    finally:
        _CURRENT.reset(token)
        child.end()


@contextmanager
def span_under(parent: Optional[Span], name: str,
               **attributes) -> Iterator[Optional[Span]]:
    """Like :func:`span` but under an explicit parent.

    Used where the logical parent was captured earlier than the call runs
    (e.g. a bind join's fetches execute while a *later* pipeline stage is
    the current span); a no-op when ``parent`` is None.
    """
    if parent is None:
        yield None
        return
    child = parent.tracer.start(name, parent=parent, **attributes)
    token = _CURRENT.set(child)
    try:
        yield child
    finally:
        _CURRENT.reset(token)
        child.end()
