"""Dispatch of one stage's independent source calls.

The paper ships independent sub-queries concurrently "when possible",
each being a network round trip.  Local sources here are in-memory and
CPU-bound, and under the interpreter lock a thread overlaps only waits,
so :func:`run_calls` pools only the calls that wait (remote sources) —
or every call when a deadline bounds the stage — and runs the rest
inline.  Each pooled call runs in its own copy of the submitting
thread's :mod:`contextvars` context, so its spans keep their parents.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Optional, Sequence

from repro.errors import QueryTimeoutError
from repro.obs.metrics import get_registry

#: Threads of the process-wide dispatch pool, started on first use.
DISPATCH_THREADS = 4

_executor: Optional[ThreadPoolExecutor] = None
_executor_lock = threading.Lock()


def _observed(fn: Callable[[], object]):
    registry = get_registry()
    active = registry.gauge("pool_active_tasks", pool="dispatch")
    active.inc()
    started = time.perf_counter()
    try:
        return fn()
    finally:
        active.dec()
        registry.counter("pool_tasks_total", pool="dispatch").inc()
        registry.histogram("pool_task_seconds", pool="dispatch").observe(
            time.perf_counter() - started)


def _submit(fn: Callable[[], object]) -> Future:
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(DISPATCH_THREADS,
                                           thread_name_prefix="repro-dispatch")
    return _executor.submit(contextvars.copy_context().run, _observed, fn)


def run_calls(calls: Sequence[tuple[Callable[[], object], bool]],
              timeout: Optional[float] = None) -> list:
    """Run a stage's ``(fn, waits)`` calls; results come in call order.

    With a ``timeout`` (seconds) every call is pooled and a wait past it
    raises :class:`~repro.errors.QueryTimeoutError` (a hung call's thread
    cannot be interrupted, but the deadline holds).  Otherwise the
    ``waits`` calls of a multi-call stage are pooled, the rest inline.
    """
    if timeout is None and len(calls) < 2:
        return [fn() for fn, _ in calls]
    futures = [_submit(fn) if waits or timeout is not None else None
               for fn, waits in calls]
    inline = [fn() if future is None else None
              for (fn, _), future in zip(calls, futures)]
    if timeout is None:
        return [result if future is None else future.result()
                for result, future in zip(inline, futures)]
    deadline = time.monotonic() + max(0.0, timeout)
    try:
        return [future.result(timeout=max(0.0, deadline - time.monotonic()))
                for future in futures]
    except FuturesTimeoutError:
        for future in futures:
            future.cancel()
        raise QueryTimeoutError(
            f"stage exceeded its {timeout:.3f}s deadline") from None
