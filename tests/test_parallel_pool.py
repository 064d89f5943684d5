"""Shared-pool reuse in :mod:`repro.engine.parallel`.

``run_tasks`` draws from process-wide :class:`WorkPool`\\ s (one per
worker count) instead of building a ``ThreadPoolExecutor`` per stage.
These tests pin the reuse behaviour, ordering and overlap.  (The
``run_parallel`` / ``ParallelStats`` cases went away with those symbols;
their reuse, ordering, overlap and no-deadlock cases live on here
against ``run_tasks``.)
"""

from __future__ import annotations

import threading
import time

from repro.engine.parallel import WorkPool, run_tasks, shared_pool


def tasks(n: int):
    return [lambda i=i: [{"i": i, "j": j} for j in range(3)] for i in range(n)]


class TestSharedPool:
    def test_same_size_is_same_pool(self):
        assert shared_pool(4) is shared_pool(4)

    def test_sizes_are_distinct_pools(self):
        assert shared_pool(4) is not shared_pool(3)

    def test_run_tasks_reuses_one_executor(self):
        pool = WorkPool(4, name="reuse-test")
        for _ in range(5):
            run_tasks(tasks(6), max_workers=4, pool=pool)
        # One ThreadPoolExecutor constructed across five stages.
        assert pool.times_created == 1
        pool.shutdown()

    def test_run_tasks_default_uses_shared_pool(self):
        pool = shared_pool(4)
        created_before = pool.times_created
        outputs = run_tasks(tasks(5), max_workers=4)
        assert [len(rows) for rows in outputs] == [3] * 5
        assert pool.times_created <= max(1, created_before + 1)
        # A second stage must not construct another executor.
        after_first = pool.times_created
        run_tasks(tasks(5), max_workers=4)
        assert pool.times_created == after_first

    def test_sequential_path_never_builds_a_pool(self):
        pool = WorkPool(1, name="seq-test")
        run_tasks(tasks(4), max_workers=1, pool=pool)
        assert pool.times_created == 0

    def test_pool_restarts_after_shutdown(self):
        pool = WorkPool(2, name="restart-test")
        assert pool.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
        pool.shutdown()
        assert pool.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        assert pool.times_created == 2
        pool.shutdown()

    def test_more_tasks_than_workers_do_not_deadlock(self):
        """A stage's flat batch may exceed the pool; a task that itself
        fans out (into the process-wide pool) completes too."""
        def inner(i):
            return run_tasks([lambda j=j: (i, j) for j in range(4)],
                             max_workers=2)

        pool = WorkPool(2, name="saturated-test")
        done = []
        worker = threading.Thread(target=lambda: done.append(run_tasks(
            [lambda i=i: inner(i) for i in range(8)], max_workers=2, pool=pool)))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert done == [[[(i, j) for j in range(4)] for i in range(8)]]
        pool.shutdown()


class TestRunTasksSemantics:
    def test_order_preserved_regardless_of_completion(self):
        def slow():
            time.sleep(0.05)
            return 0

        assert run_tasks([slow, lambda: 1], max_workers=2) == [0, 1]

    def test_parallelism_actually_overlaps(self):
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

        run_tasks([tracked] * 4, max_workers=4)
        assert max(peak) >= 2

    def test_sequential_matches_parallel_results(self):
        assert run_tasks(tasks(6), max_workers=1) == run_tasks(tasks(6), max_workers=4)
