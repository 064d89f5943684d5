"""Parallel dispatch of independent source calls.

The paper's evaluation strategy exploits parallelism "when possible":
sub-queries with no binding dependency between them can be shipped to
their sources concurrently.  :func:`run_tasks` runs a flat list of
callables in a thread pool (source calls are I/O-like: in the real system
they are network round trips) and returns their results in input order.

Pools are **reused**, not created per stage: each call draws from a
process-wide :class:`WorkPool` (one per worker count) unless the caller
supplies its own — the mediator service owns one its query workers
share.  The executor submits every source call of a stage as one flat
list from the query's own thread, so a pooled task never waits on the
pool it runs in.

``WorkPool.map`` runs each item inside a *copy* of the submitting
thread's :mod:`contextvars` context, so the current span (and any other
context variable) propagates into the workers — nested spans opened by
pooled source calls keep their parentage across threads.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Optional, Sequence

from repro.errors import QueryTimeoutError
from repro.obs.metrics import get_registry


class WorkPool:
    """A reusable, lazily started thread pool with ordered ``map``.

    The underlying :class:`ThreadPoolExecutor` is created on first use
    and kept alive across calls (idle workers are signalled at
    interpreter exit by ``concurrent.futures``' own atexit hook).
    ``times_created`` counts executor constructions — the pool-reuse
    regression test pins it at one.
    """

    def __init__(self, max_workers: int = 4, name: str = "repro-pool"):
        self.max_workers = max(1, int(max_workers))
        self.name = name
        self.times_created = 0
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._instruments: Optional[tuple] = None

    def _ensure(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix=self.name)
                self.times_created += 1
            return self._executor

    def _pool_instruments(self) -> tuple:
        """Instrument handles, cached on the current registry's identity."""
        registry = get_registry()
        cached = self._instruments
        if cached is not None and cached[0] is registry:
            return cached
        cached = (
            registry,
            registry.counter("pool_tasks_total", pool=self.name),
            registry.histogram("pool_task_seconds", pool=self.name),
            registry.gauge("pool_active_tasks", pool=self.name),
        )
        self._instruments = cached
        return cached

    def _run_observed(self, fn: Callable, item, instruments: tuple):
        _, tasks, busy, active = instruments
        active.inc()
        started = time.perf_counter()
        try:
            return fn(item)
        finally:
            active.dec()
            tasks.inc()
            busy.observe(time.perf_counter() - started)

    def map(self, fn: Callable, items: Sequence,
            timeout: Optional[float] = None) -> list:
        """Apply ``fn`` to every item concurrently, preserving order.

        Each item runs in a copy of the caller's contextvars context —
        one copy *per item*, because a single Context object cannot be
        entered by two threads at once.

        ``timeout`` bounds the *total* wait in seconds: when it elapses
        before every item finished, pending items are cancelled and
        :class:`~repro.errors.QueryTimeoutError` is raised — a hung
        item's thread cannot be interrupted, but the caller's deadline
        is honoured instead of waiting forever.  A timeout always takes
        the pool path (the inline shortcut cannot bound a hung call).
        """
        items = list(items)
        instruments = self._pool_instruments()
        if timeout is None and (self.max_workers <= 1 or len(items) <= 1):
            return [self._run_observed(fn, item, instruments) for item in items]
        executor = self._ensure()
        futures = [
            executor.submit(contextvars.copy_context().run,
                            self._run_observed, fn, item, instruments)
            for item in items
        ]
        if timeout is None:
            return [future.result() for future in futures]
        deadline = time.monotonic() + max(0.0, timeout)
        results = []
        try:
            for future in futures:
                remaining = deadline - time.monotonic()
                results.append(future.result(timeout=max(0.0, remaining)))
        except FuturesTimeoutError:
            for future in futures:
                future.cancel()
            raise QueryTimeoutError(
                f"parallel stage exceeded its {timeout:.3f}s deadline "
                f"({len(results)}/{len(futures)} task(s) finished)") from None
        return results

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool's threads (it restarts lazily if used again)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"WorkPool(name={self.name!r}, max_workers={self.max_workers}, "
                f"alive={self._executor is not None})")


#: Process-wide pools, one per worker count; see shared_pool().
_SHARED_POOLS: dict[int, WorkPool] = {}
_SHARED_POOLS_LOCK = threading.Lock()


def shared_pool(max_workers: int) -> WorkPool:
    """The process-wide :class:`WorkPool` for one worker count.

    Repeated calls return the *same* pool, so stage after stage (and
    query after query) reuses warm threads instead of paying a
    ``ThreadPoolExecutor`` construction and teardown per stage.
    """
    size = max(1, int(max_workers))
    with _SHARED_POOLS_LOCK:
        pool = _SHARED_POOLS.get(size)
        if pool is None:
            pool = WorkPool(size, name=f"repro-tasks-{size}")
            _SHARED_POOLS[size] = pool
        return pool


def run_tasks(tasks: Sequence[Callable[[], object]], max_workers: int = 4,
              pool: WorkPool | None = None,
              timeout: Optional[float] = None) -> list[object]:
    """Run arbitrary callables, possibly concurrently, preserving order.

    With ``max_workers=1`` (or a single task) execution is sequential on
    the calling thread, which is how the ablation benchmark measures the
    benefit of parallel dispatch.  ``pool`` overrides the process-wide
    shared pool (the mediator service passes its own).  ``timeout``
    bounds the total wall-clock wait (see :meth:`WorkPool.map`).
    """
    if timeout is None and (max_workers <= 1 or len(tasks) <= 1):
        return [task() for task in tasks]
    pool = pool or shared_pool(max_workers)
    return pool.map(lambda task: task(), tasks, timeout=timeout)
