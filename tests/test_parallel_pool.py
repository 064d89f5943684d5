"""The one process-wide dispatch pool behind :func:`run_calls`.

``tests/test_engine_iterators.py::TestRunCalls`` pins the dispatch rule
(local stages inline, remote calls overlap, deadlines bound hung calls).
These tests pin the pool itself: it starts once and is reused, its
threads are named and bounded, results keep call order, errors and
deadlines surface on the query thread, and only pooled calls are counted
in the ``pool="dispatch"`` instruments.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine import parallel
from repro.engine.parallel import DISPATCH_THREADS, run_calls
from repro.errors import QueryTimeoutError
from repro.obs.metrics import MetricsRegistry, set_registry


def remote(value, seconds=0.01):
    time.sleep(seconds)
    return value


def occupy_every_dispatch_thread():
    """Return once every pool thread has finished whatever it ran before
    (a call released late by an earlier test included)."""
    barrier = threading.Barrier(DISPATCH_THREADS)
    run_calls([(lambda: barrier.wait(timeout=5), True)] * DISPATCH_THREADS)


class TestDispatchPool:
    def test_pool_starts_once_and_is_reused_across_stages(self):
        run_calls([(lambda: remote(1), True), (lambda: remote(2), True)])
        first = parallel._executor
        assert first is not None
        for _ in range(3):
            run_calls([(lambda: remote(3), True), (lambda: remote(4), True)])
        assert parallel._executor is first

    def test_pooled_calls_run_on_named_dispatch_threads(self):
        def name():
            return threading.current_thread().name

        names = run_calls([(name, True), (name, True)])
        assert all(n.startswith("repro-dispatch") for n in names)

    def test_concurrency_is_bounded_by_the_pool_size(self):
        active = []
        peak = []
        lock = threading.Lock()

        def tracked():
            with lock:
                active.append(1)
                peak.append(len(active))
            time.sleep(0.02)
            with lock:
                active.pop()

        run_calls([(tracked, True)] * (2 * DISPATCH_THREADS))
        assert 2 <= max(peak) <= DISPATCH_THREADS

    def test_more_waiting_calls_than_threads_keep_call_order(self):
        calls = [(lambda i=i: remote(i, 0.005 * (10 - i)), True) for i in range(10)]
        assert run_calls(calls) == list(range(10))

    def test_a_pooled_call_may_run_a_local_stage_of_its_own(self):
        """A local inner stage runs inline on the dispatch thread, so a
        pooled call that fans out locally cannot starve the pool."""
        def outer(i):
            return run_calls([(lambda j=j: (i, j), False) for j in range(4)])

        done = []
        worker = threading.Thread(target=lambda: done.append(run_calls(
            [(lambda i=i: outer(i), True) for i in range(8)])))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert done == [[[(i, j) for j in range(4)] for i in range(8)]]


class TestDispatchRule:
    def test_a_lone_remote_call_runs_inline(self):
        caller = threading.get_ident()
        assert run_calls([(threading.get_ident, True)]) == [caller]

    def test_an_empty_stage_returns_no_results(self):
        assert run_calls([]) == []
        assert run_calls([], timeout=1.0) == []

    def test_a_deadline_pools_local_calls_too(self):
        caller = threading.get_ident()
        outputs = run_calls([(threading.get_ident, False)] * 2, timeout=5.0)
        assert caller not in outputs

    def test_calls_within_the_deadline_return_in_call_order(self):
        calls = [(lambda: remote("slow", 0.03), False),
                 (lambda: remote("fast", 0), True)]
        assert run_calls(calls, timeout=5.0) == ["slow", "fast"]

    def test_inline_and_pooled_dispatch_agree(self):
        def rows(i):
            return [{"i": i, "j": j} for j in range(3)]

        local = [(lambda i=i: rows(i), False) for i in range(6)]
        pooled = [(lambda i=i: rows(i), True) for i in range(6)]
        assert run_calls(local) == run_calls(pooled) == run_calls(local, timeout=5.0)

    @pytest.mark.parametrize("waits", [False, True])
    def test_a_failing_call_raises_on_the_query_thread(self, waits):
        def broken():
            raise ValueError("source failed")

        with pytest.raises(ValueError, match="source failed"):
            run_calls([(broken, waits), (lambda: remote(1), True)])

    def test_a_hung_remote_call_times_out_beside_a_finished_one(self):
        release = threading.Event()
        try:
            with pytest.raises(QueryTimeoutError):
                run_calls([(lambda: 1, False), (release.wait, True)], timeout=0.05)
        finally:
            release.set()


class TestDispatchInstruments:
    def test_only_pooled_calls_are_counted(self):
        occupy_every_dispatch_thread()
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            run_calls([(lambda: remote(1), True), (lambda: 2, False), (lambda: 3, False)])
            assert registry.value("pool_tasks_total", pool="dispatch") == 1
            run_calls([(lambda: 1, False)] * 3, timeout=5.0)
            assert registry.value("pool_tasks_total", pool="dispatch") == 4
            assert registry.value("pool_active_tasks", pool="dispatch") == 0
            assert registry.value("pool_task_seconds", pool="dispatch")["count"] == 4
        finally:
            set_registry(previous)
