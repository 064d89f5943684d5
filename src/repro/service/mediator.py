"""The concurrent mediator service: scheduling, admission, deadlines.

A :class:`MediatorService` turns a single-caller
:class:`~repro.core.instance.MixedInstance` into a serving layer that
many clients hit concurrently while feeds keep mutating the sources:

* a **bounded worker pool** drains a FIFO-with-priority queue (lower
  ``priority`` value runs first; ties in submission order);
* **admission control** rejects work past ``max_queue_depth`` queued /
  ``max_in_flight`` total tickets with :class:`AdmissionError`, so an
  overloaded mediator fails fast instead of accumulating latency;
* every query **pins a snapshot vector** (:func:`repro.service.snapshots
  .pin_instance`) before planning, so its whole plan observes one
  consistent version of every store — updates land between queries,
  never inside one (a remote source is pinned by the first frame the
  query sends it, not at admission);
* **deadlines and cancellation** are enforced cooperatively: expired or
  cancelled tickets are dropped at dequeue, and a running execution
  checks between stages (tickets on one pin share its executor; the
  checks are each execution's own);
* all workers share the instance's :class:`MediatorCache` and
  :class:`StatisticsCatalog` (both thread-safe); a query's source calls
  run on its worker, with remote waits and deadline-bounded calls on
  the process-wide dispatch pool (:mod:`repro.engine.parallel`).
"""

from __future__ import annotations

import itertools
import logging
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.core.planner import PlannerOptions
from repro.core.results import MixedResult
from repro.errors import (
    AdmissionError,
    QueryCancelledError,
    QueryTimeoutError,
    ServiceError,
)
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.spans import SpanTracer, attach, detach
from repro.service.snapshots import PinnedCatalog, pin_instance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cmq import ConjunctiveMixedQuery
    from repro.core.instance import MixedInstance
    from repro.service.standing import StandingSubscription

logger = logging.getLogger("repro.service.mediator")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one :class:`MediatorService`.

    ``workers``
        Query workers: how many CMQs evaluate concurrently.
    ``max_queue_depth`` / ``max_in_flight``
        Admission control: at most ``max_queue_depth`` tickets waiting,
        at most ``max_in_flight`` tickets queued + running overall.
    ``tracing``
        Collect a per-ticket span tree (``query:<name>`` root, queue
        wait, planning, execution stages, source calls) exposed as
        :attr:`QueryTicket.span_tree`.  The one switch for served
        queries: the executor only traces inside an open trace, so
        turning it off skips all span allocation and leaves
        ``result.trace.spans`` ``None``.

    A ticket's priority and deadline are arguments of :meth:`~MediatorService.submit`.
    """

    workers: int = 4
    max_queue_depth: int = 64
    max_in_flight: int = 128
    tracing: bool = True


#: The priority of a ticket whose ``submit`` names none (lower runs first).
DEFAULT_PRIORITY = 10

#: Ticket life cycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TIMED_OUT = "timed_out"


class QueryTicket:
    """A submitted query: future-like handle plus its pinned snapshot."""

    def __init__(self, query: "ConjunctiveMixedQuery", priority: int,
                 deadline: Optional[float], options: PlannerOptions | None,
                 distinct: bool, limit: int | None):
        self.query = query
        self.priority = priority
        #: Absolute monotonic deadline (``time.monotonic()`` scale), or None.
        self.deadline = deadline
        self.options = options
        self.distinct = distinct
        self.limit = limit
        self.status = PENDING
        self.result_value: Optional[MixedResult] = None
        self.error: Optional[BaseException] = None
        #: The snapshot vector the query pinned (set when it starts).
        self.pinned: Optional[PinnedCatalog] = None
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Root span of the ticket's trace (set at submit when the
        #: service traces; its tracer is exposed as :attr:`span_tree`).
        self.root_span = None
        #: The queue-wait span (child of the root; ended at dequeue).
        self.queue_span = None
        self._cancel_requested = False
        self._finished = threading.Event()
        self._lock = threading.Lock()

    # -- client side ---------------------------------------------------------
    @property
    def versions(self) -> dict[str, Optional[int]]:
        """The pinned (source → version) vector (empty before it runs).

        A remote source reads ``None`` until the query has reached it.
        """
        return self.pinned.versions if self.pinned is not None else {}

    def cancel(self) -> bool:
        """Request cancellation; True unless the ticket already finished."""
        with self._lock:
            if self._finished.is_set():
                return False
            self._cancel_requested = True
            return True

    def done(self) -> bool:
        return self._finished.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the ticket finishes; True when it did."""
        return self._finished.wait(timeout)

    def result(self, timeout: float | None = None) -> MixedResult:
        """The query's :class:`MixedResult` (blocking; re-raises failures)."""
        if not self._finished.wait(timeout):
            raise ServiceError(
                f"query {self.query.name!r} did not finish within {timeout}s")
        if self.error is not None:
            raise self.error
        assert self.result_value is not None
        return self.result_value

    @property
    def latency(self) -> Optional[float]:
        """Submission-to-finish wall seconds (None while unfinished)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def span_tree(self):
        """The ticket's :class:`~repro.obs.spans.SpanTracer` (None when
        the service was created with ``tracing=False``)."""
        return self.root_span.tracer if self.root_span is not None else None

    def explain_analyze(self, timeout: float | None = None):
        """EXPLAIN ANALYZE report for the served query (blocking).

        Queue wait, planning and execution phases come from the ticket's
        span tree; re-raises the query's failure like :meth:`result`.
        """
        from repro.obs.explain import explain_analyze

        result = self.result(timeout=timeout)
        if (result.trace is not None and result.trace.spans is None
                and self.span_tree is not None):
            result.trace.spans = self.span_tree
        report = explain_analyze(result)
        report.query = self.query.name
        return report

    # -- service side --------------------------------------------------------
    def _cancel_check(self) -> None:
        """Raised-based cooperative abort, called between executor stages."""
        if self._cancel_requested:
            raise QueryCancelledError(f"query {self.query.name!r} was cancelled")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise QueryTimeoutError(f"query {self.query.name!r} missed its deadline")

    def _remaining(self) -> Optional[float]:
        """Seconds left before the deadline (None when unbounded).

        Handed to the execution as its ``deadline`` callable so every
        pooled dispatch wait is bounded by the ticket's budget — a hung
        source times the stage out mid-wait instead of after it.
        """
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def _finish(self, status: str, result: MixedResult | None = None,
                error: BaseException | None = None) -> None:
        with self._lock:
            self.status = status
            self.result_value = result
            self.error = error
            self.finished_at = time.monotonic()
            self._finished.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"QueryTicket(query={self.query.name!r}, status={self.status}, "
                f"priority={self.priority})")


@dataclass(order=True)
class _QueueItem:
    priority: int
    sequence: int
    ticket: Optional[QueryTicket] = field(compare=False, default=None)


#: Sentinel priority: processed after every real ticket (graceful drain).
_SHUTDOWN_PRIORITY = 2 ** 31


class MediatorService:
    """Snapshot-isolated, admission-controlled concurrent query serving."""

    def __init__(self, instance: "MixedInstance",
                 config: ServiceConfig | None = None,
                 metrics: MetricsRegistry | None = None):
        self.instance = instance
        self.config = config or ServiceConfig()
        #: The registry the service records into (the process-global one
        #: unless a dedicated registry is handed in).
        self.metrics = metrics if metrics is not None else get_registry()
        self._queue: queue.PriorityQueue[_QueueItem] = queue.PriorityQueue()
        self._sequence = itertools.count()
        self._lock = threading.Lock()
        self._queued = 0
        self._in_flight = 0
        self._stopping = False
        self.counters = {"submitted": 0, "completed": 0, "failed": 0,
                         "cancelled": 0, "timed_out": 0, "rejected": 0}
        self._queue_depth_gauge = self.metrics.gauge("service_queue_depth")
        self._in_flight_gauge = self.metrics.gauge("service_in_flight")
        self._latency_histogram = self.metrics.histogram("service_latency_seconds")
        self._queue_wait_histogram = self.metrics.histogram(
            "service_queue_wait_seconds")
        self._deadline_miss_counter = self.metrics.counter(
            "service_deadline_misses_total")
        self._status_counters = {
            "submitted": self.metrics.counter("service_submitted_total"),
            "rejected": self.metrics.counter("service_rejected_total"),
            "completed": self.metrics.counter("service_completed_total"),
            "failed": self.metrics.counter("service_failed_total"),
            "cancelled": self.metrics.counter("service_cancelled_total"),
            "timed_out": self.metrics.counter("service_timed_out_total"),
        }
        if getattr(instance, "cache", None) is not None:
            instance.cache.register_metrics(self.metrics)
        #: Standing-query registry, created on first ``register_standing``
        #: (it owns a refresh thread and journal listeners — services
        #: that never register a standing CMQ pay nothing).
        self._standing = None
        self._standing_lock = threading.Lock()
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"mediator-worker-{i}", daemon=True)
            for i in range(max(1, self.config.workers))
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, query: "ConjunctiveMixedQuery | str",
               priority: int = DEFAULT_PRIORITY, deadline: float | None = None,
               options: PlannerOptions | None = None, distinct: bool = True,
               limit: int | None = None) -> QueryTicket:
        """Enqueue one CMQ (object or textual syntax); returns its ticket.

        ``deadline`` is in relative seconds from now.  Raises
        :class:`AdmissionError` when the queue or in-flight budget is
        exhausted, :class:`ServiceError` after :meth:`shutdown`.
        """
        if isinstance(query, str):
            query = self.instance.parse(query)
        absolute = time.monotonic() + deadline if deadline is not None else None
        ticket = QueryTicket(query, priority=priority, deadline=absolute,
                             options=options, distinct=distinct, limit=limit)
        with self._lock:
            if self._stopping:
                raise ServiceError("the mediator service is shut down")
            if (self._queued >= self.config.max_queue_depth
                    or self._in_flight >= self.config.max_in_flight):
                self.counters["rejected"] += 1
                self._status_counters["rejected"].inc()
                logger.warning(
                    "admission refused for %s: %d queued (max %d), "
                    "%d in flight (max %d)", query.name, self._queued,
                    self.config.max_queue_depth, self._in_flight,
                    self.config.max_in_flight)
                raise AdmissionError(
                    f"admission refused: {self._queued} queued "
                    f"(max {self.config.max_queue_depth}), {self._in_flight} "
                    f"in flight (max {self.config.max_in_flight})")
            self._queued += 1
            self._in_flight += 1
            self.counters["submitted"] += 1
            self._status_counters["submitted"].inc()
            self._queue_depth_gauge.set(self._queued)
            self._in_flight_gauge.set(self._in_flight)
            if self.config.tracing:
                tracer = SpanTracer(f"query:{query.name}")
                ticket.root_span = tracer.start(f"query:{query.name}",
                                                priority=ticket.priority)
                ticket.queue_span = tracer.start("queue",
                                                 parent=ticket.root_span)
            # Enqueue under the lock: a shutdown() serialised after this
            # cannot have drained the workers yet, so the ticket is
            # guaranteed a worker (or an explicit cancel), never orphaned.
            self._queue.put(_QueueItem(ticket.priority, next(self._sequence), ticket))
        return ticket

    def execute(self, query: "ConjunctiveMixedQuery | str",
                priority: int = DEFAULT_PRIORITY, deadline: float | None = None,
                options: PlannerOptions | None = None, distinct: bool = True,
                limit: int | None = None,
                timeout: float | None = None) -> MixedResult:
        """Submit and block for the result (convenience wrapper)."""
        ticket = self.submit(query, priority=priority, deadline=deadline,
                             options=options, distinct=distinct, limit=limit)
        return ticket.result(timeout=timeout)

    def register_standing(self, query: "ConjunctiveMixedQuery | str",
                          callback) -> "StandingSubscription":
        """Keep ``query`` evaluated as the stores mutate.

        The query is evaluated once, synchronously, as the baseline;
        afterwards every ingest that moves a source version triggers a
        journal-driven re-evaluation, and ``callback`` receives a
        :class:`~repro.service.standing.StandingDelta` for each refresh
        whose result actually changed.  Returns the subscription handle
        (``.rows`` is the current result, ``.cancel()`` stops it).
        """
        from repro.service.standing import StandingQueryRegistry

        if isinstance(query, str):
            query = self.instance.parse(query)
        with self._standing_lock:
            if self._standing is None:
                self._standing = StandingQueryRegistry(self)
            registry = self._standing
        return registry.register(query, callback)

    def statistics(self) -> dict[str, object]:
        """Service counters plus current queue state."""
        with self._lock:
            stats: dict[str, object] = dict(self.counters)
            stats["queued"] = self._queued
            stats["in_flight"] = self._in_flight
            stats["workers"] = len(self._workers)
        return stats

    def stats(self) -> dict[str, object]:
        """Service health snapshot backed by the metrics registry.

        Extends :meth:`statistics` with the latency and queue-wait
        histograms' summaries (count / mean / p50 / p95 / p99 / max) and
        the deadline-miss counter.
        """
        out = self.statistics()
        out["deadline_misses"] = self._deadline_miss_counter.value
        out["latency_seconds"] = self._latency_histogram.summary()
        out["queue_wait_seconds"] = self._queue_wait_histogram.summary()
        # Remote wrappers expose their resilience state (circuit-breaker
        # state, retry/hedge counters, latency p95) and their round
        # trips (frames by op, wire vs. server seconds) — surface it per
        # URI so operators see *which* source is tripping, or chatty,
        # from one snapshot.
        remote: dict[str, object] = {}
        for uri in self.instance.source_uris():
            source = self.instance.source(uri)
            if source.cost_kind == "remote":
                stats_fn = getattr(source, "stats", None)
                if callable(stats_fn):
                    remote[uri] = stats_fn()
        if remote:
            out["remote"] = remote
        # Read by benchmarks/e2e/layers.py until ROADMAP item 2 retires it.
        out["mqo"] = {"shared_subqueries": 0, "fused_probes": 0, "groups": 0}
        if getattr(self.instance, "cache", None) is not None:
            # The streaming ingest story in one block: how many misses
            # were answered by delta-join repair instead of re-dispatch.
            out["repair"] = self.instance.cache.repair.stats.as_dict()
        with self._standing_lock:
            standing = self._standing
        if standing is not None:
            out["standing"] = standing.stats()
        return out

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop accepting queries and wind the workers down.

        With ``cancel_pending`` queued tickets are cancelled instead of
        drained.  ``wait`` joins the workers (queued work — unless
        cancelled — still completes: the shutdown sentinels sort after
        every real ticket).
        """
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        with self._standing_lock:
            standing = self._standing
            self._standing = None
        if standing is not None:
            standing.close()
        if cancel_pending:
            # Workers still drain the queue; the cancel flag makes each
            # dequeued ticket finish immediately as cancelled.
            for item in list(self._queue.queue):
                if item.ticket is not None:
                    item.ticket.cancel()
        for _ in self._workers:
            self._queue.put(_QueueItem(_SHUTDOWN_PRIORITY, next(self._sequence)))
        if wait:
            for worker in self._workers:
                worker.join()

    def __enter__(self) -> "MediatorService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True, cancel_pending=exc_info[0] is not None)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item.ticket is None:
                return
            with self._lock:
                self._queued -= 1
                self._queue_depth_gauge.set(self._queued)
            self._run_ticket(item.ticket)

    def _run_ticket(self, ticket: QueryTicket) -> None:
        if ticket.queue_span is not None:
            ticket.queue_span.end()
        self._queue_wait_histogram.observe(time.monotonic() - ticket.submitted_at)
        token = attach(ticket.root_span) if ticket.root_span is not None else None
        try:
            ticket._cancel_check()
            ticket.status = RUNNING
            ticket.started_at = time.monotonic()
            # Pin *at execution start*, reflecting the freshest state
            # available when the ticket got a worker.  A failing pin
            # fails this ticket, not the worker.
            ticket.pinned = pin_instance(self.instance)
            executor = ticket.pinned.executor(self.instance, options=ticket.options)
            result = executor.execute(
                ticket.query, distinct=ticket.distinct, limit=ticket.limit,
                cancel_check=ticket._cancel_check, deadline=ticket._remaining,
                metrics=self.metrics)
        except QueryCancelledError as exc:
            self._account(CANCELLED, ticket)
            ticket._finish(CANCELLED, error=exc)
        except QueryTimeoutError as exc:
            self._account(TIMED_OUT, ticket)
            ticket._finish(TIMED_OUT, error=exc)
        except BaseException as exc:  # noqa: BLE001 - reported via ticket
            self._account(FAILED, ticket)
            ticket._finish(FAILED, error=exc)
        else:
            self._account(DONE, ticket)
            ticket._finish(DONE, result=result)
        finally:
            if token is not None:
                detach(token)
            if ticket.root_span is not None:
                ticket.root_span.end(status=ticket.status)
            if ticket.latency is not None:
                self._latency_histogram.observe(ticket.latency)
            with self._lock:
                self._in_flight -= 1
                self._in_flight_gauge.set(self._in_flight)

    def _account(self, status: str, ticket: QueryTicket) -> None:
        key = {DONE: "completed", FAILED: "failed", CANCELLED: "cancelled",
               TIMED_OUT: "timed_out"}[status]
        if status == TIMED_OUT:
            self._deadline_miss_counter.inc()
            logger.warning("query %s missed its deadline",
                           ticket.query.name)
        with self._lock:
            self.counters[key] += 1
        self._status_counters[key].inc()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"MediatorService(instance={self.instance.name!r}, "
                f"workers={len(self._workers)}, stats={self.statistics()})")
