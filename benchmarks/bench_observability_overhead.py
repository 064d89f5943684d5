"""Observability overhead: tracing on vs off on the service workload.

Spans and metrics are on by default, so their cost has to be provably
negligible.  This bench reuses the mixed latency-bound workload from
:mod:`bench_service_concurrency` and drives it through the
:class:`~repro.service.MediatorService` twice per repetition — once
with tracing enabled (the default) and once with
``ServiceConfig(tracing=False)`` plus ``PlannerOptions(tracing=False)``
— interleaved so machine noise hits both arms equally.  The best
repetition of each arm is compared: tracing-on throughput must stay
within 5% of tracing-off.

Run as a script (``python bench_observability_overhead.py [--smoke]``)
it writes ``BENCH_obs.json`` to the repo root; the full run asserts the
5% bound.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from bench_service_concurrency import build_instance, workload
from repro.core import PlannerOptions
from repro.obs.metrics import reset_registry
from repro.service import MediatorService, ServiceConfig

try:  # pytest import path (benchmarks/conftest.py) vs script execution
    from conftest import report
except ImportError:  # pragma: no cover - script mode
    def report(title, rows, columns=None):
        print(f"\n[{title}]")
        for row in rows:
            print("  " + " | ".join(f"{k}={v}" for k, v in row.items()))

#: Throughput floor: tracing-on must reach this fraction of tracing-off.
OVERHEAD_FLOOR = 0.95


def measure(tracing: bool, total_queries: int, workers: int = 8) -> dict:
    """One service run; returns throughput with tracing on or off."""
    reset_registry()
    instance = build_instance()
    queries = workload(instance)
    config = ServiceConfig(workers=workers, tracing=tracing,
                           max_queue_depth=total_queries + 8,
                           max_in_flight=total_queries + 16)
    options = None if tracing else PlannerOptions(tracing=False)
    with MediatorService(instance, config) as service:
        start = time.perf_counter()
        tickets = [service.submit(queries[i % len(queries)], options=options)
                   for i in range(total_queries)]
        for ticket in tickets:
            ticket.result(timeout=300)
        wall = time.perf_counter() - start
    return {
        "tracing": tracing,
        "queries": total_queries,
        "wall_seconds": round(wall, 4),
        "throughput_qps": round(total_queries / wall, 2),
    }


def run(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    total_queries = 24 if smoke else 80
    repetitions = 2 if smoke else 3

    # Warm both arms (thread pools, plan caches, bytecode) so the first
    # measured repetition is not a cold start.
    measure(False, max(8, total_queries // 4))
    measure(True, max(8, total_queries // 4))

    on_runs, off_runs = [], []
    for _ in range(repetitions):
        off_runs.append(measure(False, total_queries))
        on_runs.append(measure(True, total_queries))

    best_on = max(run["throughput_qps"] for run in on_runs)
    best_off = max(run["throughput_qps"] for run in off_runs)
    ratio = best_on / best_off
    series = [
        {"arm": "tracing_off", "best_qps": best_off,
         "runs": [run["throughput_qps"] for run in off_runs]},
        {"arm": "tracing_on", "best_qps": best_on,
         "runs": [run["throughput_qps"] for run in on_runs]},
    ]
    report("observability overhead (tracing on vs off)", [
        {"arm": row["arm"], "best_qps": row["best_qps"]} for row in series])
    print(f"\ntracing-on / tracing-off throughput: {ratio:.3f} "
          f"(floor {OVERHEAD_FLOOR})")

    payload = {
        "benchmark": "observability_overhead",
        "smoke": smoke,
        "queries_per_run": total_queries,
        "repetitions": repetitions,
        "series": series,
        "on_over_off": round(ratio, 4),
        "floor": OVERHEAD_FLOOR,
    }
    if not smoke:
        assert ratio >= OVERHEAD_FLOOR, (
            f"tracing overhead too high: on/off throughput ratio "
            f"{ratio:.3f} < {OVERHEAD_FLOOR}")

    out_path = Path(__file__).resolve().parents[1] / "BENCH_obs.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# pytest entry point (smoke-sized)
# ---------------------------------------------------------------------------

def test_tracing_overhead_is_bounded():
    """Tracing-on throughput stays within 10% of off (smoke-sized, one
    interleaved repetition each; the full bench asserts the 5% bound)."""
    off = max(measure(False, 16)["throughput_qps"] for _ in range(2))
    on = max(measure(True, 16)["throughput_qps"] for _ in range(2))
    assert on >= off * 0.90


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
