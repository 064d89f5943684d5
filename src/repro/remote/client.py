""":class:`RemoteSource` — a :class:`DataSource` speaking the wire protocol.

The wrapper hides the network behind the exact mediator protocol the
in-process wrappers implement (``execute`` / ``execute_batch`` /
``estimate`` / ``version`` / ``pin``), so planner, executor, cache and
service code need no remote-specific branches.  What *is* remote-specific
lives in the resilience layer wrapped around every call:

* a per-call network **timeout** (:attr:`RemoteOptions.timeout`);
* **retries** with exponential backoff + deterministic jitter — calls
  are idempotent reads, so a timed-out call may safely be re-issued;
* **hedged requests**: when a call exceeds the p95 of recent latencies
  (or an explicit ``hedge_delay``), a duplicate is raced against it and
  the first response wins — tail latency without duplicated rows,
  because both legs carry the identical read;
* a per-source **circuit breaker** failing fast while a source is down,
  with half-open probes (:class:`~repro.remote.resilience.CircuitBreaker`);
* **snapshot pinning**: ``pin()`` hands a CMQ its own clone without a
  round trip; the clone's first use sends the one ``pin`` frame, and
  every later frame carries the pinned version — a source the CMQ never
  reaches gets no frame, and a response from any other version is
  rejected as a retryable protocol error.

Failures escape only as typed :class:`~repro.errors.RemoteError`
subclasses, which the executor turns into graceful degradation.
"""

from __future__ import annotations

import concurrent.futures
import random
import threading
import time
from collections import deque
from typing import Callable, Optional, Sequence

import repro.errors as errors
from repro.core.sources import (
    DataSource,
    Row,
    SourceQuery,
    _instrumented_execute,
    _instrumented_execute_batch,
)
from repro.errors import (
    CircuitOpenError,
    MixedQueryError,
    RemoteError,
    RemoteProtocolError,
    ReproError,
)
from repro.obs import get_registry, span
from repro.remote import protocol
from repro.remote.resilience import CircuitBreaker, RemoteOptions
from repro.remote.transport import Transport

#: Recent latency observations kept per source for p95-derived hedging.
LATENCY_WINDOW = 64

#: The operations a wrapper sends, as ``stats()["calls_by_op"]`` lists them.
OPS = ("pin", "version", "estimate", "execute_batch")


class _SharedState:
    """Call-path state shared by a live wrapper and its per-CMQ clones.

    A clone answers from the same server over the same transport, so
    breaker, latency window, hedge pool and counters must be one per
    *source*, not one per wrapper.
    """

    def __init__(self, uri: str, transport: Transport, options: RemoteOptions,
                 clock: Callable[[], float], seed: int):
        self.transport = transport
        self.options = options
        self.lock = threading.Lock()
        self.rng = random.Random(seed)
        self.latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self.hedge_pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self.calls = 0
        #: Frames by operation (every attempt counts, as in ``calls``).
        self.calls_by_op = dict.fromkeys(OPS, 0)
        #: Seconds attempts took end to end, and the part of it the
        #: server reported spending in its handler (``server_us``).
        self.busy_seconds = 0.0
        self.server_seconds = 0.0
        self.retries = 0
        self.hedges = 0
        self.hedge_wins = 0
        registry = get_registry()
        self.breaker = CircuitBreaker(
            uri, failures=options.breaker_failures,
            reset_after=options.breaker_reset, probes=options.breaker_probes,
            clock=clock,
            on_transition=lambda old, new: registry.counter(
                "remote_breaker_transitions_total",
                source=uri, to=new).inc())

    def pool(self) -> concurrent.futures.ThreadPoolExecutor:
        with self.lock:
            if self.hedge_pool is None:
                self.hedge_pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=4, thread_name_prefix="remote-hedge")
            return self.hedge_pool

    def hedge_delay(self) -> Optional[float]:
        """Seconds before hedging one call, or ``None`` to not hedge."""
        options = self.options
        if options.hedge_delay is not None:
            return options.hedge_delay if options.hedge_delay > 0 else None
        with self.lock:
            if len(self.latencies) < options.hedge_min_samples:
                return None
            ordered = sorted(self.latencies)
        return ordered[min(len(ordered) - 1, int(len(ordered) * 0.95))]

    def jitter(self) -> float:
        with self.lock:
            return self.rng.random()


class RemoteSource(DataSource):
    """A mediator source wrapper answering over a network transport.

    Parameters
    ----------
    transport:
        The client transport (TCP, in-process loopback, or a
        fault-injection proxy around either).
    uri / model / name / size / description:
        Source metadata.  When ``uri`` or ``model`` is omitted the
        wrapper issues a ``hello`` at construction time to learn them
        from the server; pass both to defer all network traffic.
    options:
        Resilience knobs (:class:`RemoteOptions`).
    clock:
        Injectable monotonic clock for the circuit breaker (tests).
    seed:
        Seed of the deterministic backoff jitter.
    """

    model = "remote"

    # The catalog must not dig into this wrapper for digest statistics —
    # estimates come from the remote peer.
    trust_wrapper_estimate = True

    #: True on the clones ``pin()`` hands out, one per CMQ.
    _per_query = False
    #: On a clone: the ``pin`` frame was sent (answered or not).
    _pin_asked = False

    def __init__(self, transport: Transport, uri: str | None = None,
                 model: str | None = None, name: str | None = None,
                 size: int | None = None, description: str = "",
                 options: RemoteOptions | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 seed: int = 0):
        self.options = options or RemoteOptions()
        hello: dict = {}
        if uri is None or model is None:
            hello = transport.request(
                {"op": "hello", "protocol": protocol.PROTOCOL_VERSION},
                timeout=self.options.timeout)
            if not hello.get("ok"):
                raise RemoteProtocolError(
                    f"hello failed: {(hello.get('error') or {}).get('message')}")
            if hello.get("protocol") != protocol.PROTOCOL_VERSION:
                raise RemoteProtocolError(protocol.revision_mismatch(
                    protocol.PROTOCOL_VERSION, hello.get("protocol")))
        uri = uri or hello.get("uri") or "remote://source"
        super().__init__(uri, name=name or hello.get("name"),
                         description=description or hello.get("description", ""))
        self.model = model or hello.get("model") or "remote"
        self._size = size if size is not None else int(hello.get("size") or 0)
        self._shared = _SharedState(uri, transport, self.options, clock, seed)

    # -- metadata ----------------------------------------------------------

    @property
    def cost_kind(self) -> str:
        """Cost-model kind: network-RTT constants, not local-call ones."""
        return "remote"

    @property
    def breaker(self) -> CircuitBreaker:
        return self._shared.breaker

    @property
    def transport(self) -> Transport:
        return self._shared.transport

    def size(self) -> int:
        return self._size

    def close(self) -> None:
        shared = self._shared
        with shared.lock:
            pool, shared.hedge_pool = shared.hedge_pool, None
        if pool is not None:
            pool.shutdown(wait=False)
        shared.transport.close()

    # -- DataSource protocol ----------------------------------------------

    @_instrumented_execute
    def execute(self, query: SourceQuery, bindings: Row | None = None) -> list[Row]:
        return self.execute_batch(query, [bindings or {}])[0]

    @_instrumented_execute_batch
    def execute_batch(self, query: SourceQuery,
                      bindings_batch: Sequence[Row]) -> list[list[Row]]:
        """One ``execute_batch`` frame; each binding's answer arrives as
        column-major batches (:func:`protocol.decode_answer`)."""
        request = {"op": "execute_batch",
                   "query": protocol.encode_query(query),
                   "bindings_batch": [protocol.encode_row(b)
                                      for b in bindings_batch]}
        answers = self._call(request).get("answers")
        if not isinstance(answers, list) or len(answers) != len(bindings_batch):
            raise RemoteProtocolError(
                f"{self.uri} did not answer each of {len(bindings_batch)} "
                f"bindings: {str(answers)[:200]}")
        return [protocol.decode_answer(answer) for answer in answers]

    def estimate(self, query: SourceQuery,
                 bound_variables: set[str] | None = None) -> float:
        """Remote cardinality estimate; ``inf`` when the source is down.

        Planning must never fail on a source fault — an unreachable
        source simply looks maximally expensive, so the planner pushes
        its atoms late (by which point the breaker may have recovered).
        Every call is a round trip: estimates are remembered per source
        version one layer up, in ``StatisticsCatalog.estimate``.
        """
        try:
            response = self._call({
                "op": "estimate", "query": protocol.encode_query(query),
                "bound_variables": sorted(bound_variables or ())})
        except ReproError:
            return float("inf")
        return protocol.decode_estimate(response.get("estimate"))

    def version(self) -> Optional[int]:
        """The remote store version; ``None`` while the source is down.

        The live wrapper asks every time (a ``version`` frame): a stale
        version paired with mutated remote content would let the result
        cache serve wrong rows.  A per-CMQ clone (:meth:`pin`) asks once:
        its first use sends the ``pin`` frame, under a lock because the
        parallel source calls of one stage share the clone, and every later
        read is a field.  ``None`` — here or there — keeps the source
        uncacheable: slower, never wrong.
        """
        if not self._per_query:
            try:
                version = self._exchange({"op": "version"}).get("version")
            except RemoteError:
                return None
            return version if isinstance(version, int) else None
        if not self._pin_asked:
            with self._pin_lock:
                if not self._pin_asked:
                    try:
                        version = self._exchange({"op": "pin"}).get("version")
                    except RemoteError:
                        version = None
                    if isinstance(version, int):
                        self.pinned_at = version
                    self._pin_asked = True
        return self.pinned_at

    def pin(self) -> "RemoteSource":
        """This CMQ's view of the source; no round trip.

        The clone shares the live wrapper's call-path state and cache
        token and pins a server-side snapshot the first time the CMQ
        uses it (:meth:`version`); from then on every frame it sends
        carries ``pinned_at``.  A source the CMQ never reaches gets no
        frame.  While the source is unreachable the clone stays
        unpinned: the query forgoes snapshot isolation for this source
        (exactly like a wrapper without snapshot support) rather than
        failing admission outright.
        """
        if self._per_query:
            return self
        return self._pinned_copy(_per_query=True)

    # -- resilient call path ----------------------------------------------

    def _call(self, request: dict) -> dict:
        """One sub-query call, answered from the snapshot the CMQ pinned."""
        return self._exchange(
            request, self.version() if self._per_query else None)

    def _exchange(self, request: dict, version: Optional[int] = None) -> dict:
        """One logical remote call: breaker, timeout, retries, hedging."""
        shared = self._shared
        options = self.options
        request = dict(request, protocol=protocol.PROTOCOL_VERSION)
        if version is not None:
            request["version"] = version
        # Only data must be answered from the pinned snapshot itself;
        # estimates are advisory, so a (say) evicted-snapshot estimate
        # answered live is not a failure.
        verify_version = (request.get("version") is not None
                          and request["op"] == "execute_batch")
        registry = get_registry()
        with span("remote.call", source=self.uri, op=request["op"]) as sp:
            last_error: Optional[RemoteError] = None
            attempts = 1 + max(0, options.retries)
            for attempt in range(attempts):
                if attempt:
                    shared.retries += 1
                    registry.counter("remote_retries_total",
                                     source=self.uri).inc()
                    time.sleep(options.backoff(attempt - 1, shared.jitter()))
                try:
                    if attempt == 0:
                        response = self._attempt(request)
                    else:
                        with span("remote.retry", source=self.uri,
                                  attempt=attempt):
                            response = self._attempt(request)
                except CircuitOpenError:
                    registry.counter("remote_breaker_rejections_total",
                                     source=self.uri).inc()
                    raise
                except RemoteError as exc:
                    shared.breaker.record_failure()
                    last_error = exc
                    continue
                if verify_version and response.get("ok") and \
                        response.get("version") != request["version"]:
                    shared.breaker.record_failure()
                    last_error = RemoteProtocolError(
                        f"{self.uri} answered from version "
                        f"{response.get('version')} instead of pinned "
                        f"{request['version']}")
                    continue
                shared.breaker.record_success()
                if sp is not None:
                    # What the server spent in its handler; the rest of
                    # the span is the wire (framing, codecs, sockets).
                    sp.set(server_us=response.get("server_us") or 0)
                    if attempt:
                        sp.set(attempts=attempt + 1)
                if not response.get("ok"):
                    self._raise_application_error(response)
                return response
            if sp is not None:
                sp.set(attempts=attempts, failed=True)
            assert last_error is not None
            raise last_error

    def _attempt(self, request: dict) -> dict:
        """One attempt: breaker gate, then a possibly hedged exchange."""
        shared = self._shared
        shared.breaker.before_call()
        op = request["op"]
        with shared.lock:
            shared.calls += 1
            shared.calls_by_op[op] += 1
        registry = get_registry()
        registry.counter("remote_calls_total", source=self.uri, op=op).inc()
        delay = shared.hedge_delay()
        started = time.perf_counter()
        server = 0.0
        try:
            if delay is None:
                response = shared.transport.request(
                    request, timeout=self.options.timeout)
            else:
                response = self._hedged(request, delay)
            server = (response.get("server_us") or 0) / 1e6
        finally:
            elapsed = time.perf_counter() - started
            with shared.lock:
                shared.latencies.append(elapsed)
                shared.busy_seconds += elapsed
                shared.server_seconds += server
            registry.histogram("remote_call_seconds",
                               source=self.uri).observe(elapsed)
        return response

    def _hedged(self, request: dict, delay: float) -> dict:
        """Race a duplicate request against a slow primary.

        Both legs carry the identical idempotent read, so whichever
        answers first is *the* answer — a hedge can never duplicate rows
        or side effects.  The loser is left to drain in the pool.
        """
        shared = self._shared
        pool = shared.pool()
        timeout = self.options.timeout
        primary = pool.submit(shared.transport.request, request, timeout)
        try:
            return primary.result(timeout=delay)
        except concurrent.futures.TimeoutError:
            pass
        with shared.lock:
            shared.hedges += 1
        get_registry().counter("remote_hedges_total", source=self.uri).inc()
        with span("remote.hedge", source=self.uri, delay_s=round(delay, 4)):
            secondary = pool.submit(shared.transport.request, request, timeout)
            pending = {primary, secondary}
            last_error: Optional[BaseException] = None
            while pending:
                done, pending = concurrent.futures.wait(
                    pending, return_when=concurrent.futures.FIRST_COMPLETED)
                for future in done:
                    error = future.exception()
                    if error is None:
                        if future is secondary:
                            with shared.lock:
                                shared.hedge_wins += 1
                            get_registry().counter(
                                "remote_hedge_wins_total",
                                source=self.uri).inc()
                        return future.result()
                    last_error = error
            assert last_error is not None
            raise last_error

    def _raise_application_error(self, response: dict) -> None:
        """Re-raise a server-reported error as its typed local class."""
        error = response.get("error") or {}
        error_type = str(error.get("type") or "")
        message = str(error.get("message") or "remote call failed")
        cls = getattr(errors, error_type, None)
        if isinstance(cls, type) and issubclass(cls, ReproError):
            raise cls(f"{self.uri}: {message}")
        raise MixedQueryError(
            f"remote source {self.uri} failed: {error_type}: {message}")

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Resilience and round-trip counters for ``MediatorService.stats()``.

        ``calls`` counts frames (every attempt); ``calls_by_op`` splits
        them into control (``pin`` / ``version`` / ``estimate``) and data
        (``execute_batch``); ``busy_s`` is what the frames
        took end to end, ``server_s`` the share their servers reported
        spending in the handler and ``wire_s`` the rest.
        """
        shared = self._shared
        with shared.lock:
            latencies = sorted(shared.latencies)
            calls, retries = shared.calls, shared.retries
            hedges, hedge_wins = shared.hedges, shared.hedge_wins
            calls_by_op = dict(shared.calls_by_op)
            busy, server = shared.busy_seconds, shared.server_seconds
        p95 = latencies[min(len(latencies) - 1,
                            int(len(latencies) * 0.95))] if latencies else None
        return {
            "uri": self.uri,
            "model": self.model,
            "breaker": shared.breaker.state,
            "breaker_transitions": len(shared.breaker.transitions),
            "calls": calls,
            "calls_by_op": calls_by_op,
            "retries": retries,
            "hedges": hedges,
            "hedge_wins": hedge_wins,
            "latency_p95_s": p95,
            "busy_s": busy,
            "server_s": server,
            "wire_s": max(0.0, busy - server),
            "connections_opened": getattr(
                shared.transport, "connections_opened", None),
        }
