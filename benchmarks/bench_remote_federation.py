"""E13: remote federation — RTT amortisation and fault-tolerant retries.

A mediator that ships one sub-query per binding to a *remote* source pays
the network round-trip once per binding; batched bind joins pay it once
per batch.  This benchmark wraps the relational source of a bind-join
query behind the wire protocol with a simulated round-trip time (5, 25
and 50 ms) and measures, per strategy:

* wall-clock time and ``SubQueryCall`` counts (per-binding vs batched),
* result-set equality against the in-process reference,
* under injected faults (``FaultyTransport``), that retries keep every
  answer correct, and what the retry/latency cost of chaos is.

Run as a script (``python bench_remote_federation.py [--smoke]``) it
also writes ``BENCH_remote.json`` to the repo root for trajectory
tracking; under pytest the same scenarios run as assertions.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core import MixedInstance, PlannerOptions
from repro.rdf import Graph, triple
from repro.relational import Database
from repro.remote import (
    FaultyTransport,
    LocalTransport,
    RemoteOptions,
    RemoteSourceHandler,
)

try:  # pytest import path (benchmarks/conftest.py) vs script execution
    from conftest import report
except ImportError:  # pragma: no cover - script mode
    def report(title, rows, columns=None):
        print(f"\n[{title}]")
        for row in rows:
            print("  " + " | ".join(f"{k}={v}" for k, v in row.items()))

#: Hedging off, generous timeout: the RTT sweep isolates *batching*.
SWEEP_OPTIONS = RemoteOptions(timeout=10.0, retries=1,
                              hedge_min_samples=10**9)

#: Chaos options: enough retries that a 15% fault rate never loses an
#: answer, breaker sized so transient faults do not trip it mid-run.
CHAOS_OPTIONS = RemoteOptions(timeout=10.0, retries=5,
                              backoff_base=0.001, backoff_max=0.01,
                              hedge_min_samples=10**9,
                              breaker_failures=64)


def build_base(accounts: int) -> MixedInstance:
    """An in-process instance whose qG produces ``accounts`` bindings."""
    glue = Graph("bench-remote-glue")
    database = Database("bench-remote-accounts")
    rows = []
    for i in range(accounts):
        handle = f"user{i:05d}"
        glue.add(triple(f"ttn:P{i}", "ttn:twitterAccount", handle))
        rows.append({"handle": handle, "followers": (i * 37) % 10_000})
    database.create_table_from_rows("accounts", rows)
    # Caching off: a warm result cache would answer every strategy after
    # the first without touching the network (see bench_caching.py).
    base = MixedInstance(graph=glue, name="bench-remote-base",
                         entailment=False, cache=False)
    base.register_relational("sql://accounts", database)
    return base


def remote_instance(base: MixedInstance, rtt: float = 0.0,
                    fault_rate: float = 0.0, seed: int = 0,
                    options: RemoteOptions = SWEEP_OPTIONS):
    """The same instance with its relational source behind the wire.

    Returns ``(instance, remote_source, transport)`` — the transport is
    the outermost one (the fault proxy when ``fault_rate`` is set).
    """
    source = base.source("sql://accounts")
    transport = LocalTransport(RemoteSourceHandler(source).handle, rtt=rtt)
    if fault_rate:
        transport = FaultyTransport(transport, seed=seed,
                                    fault_rate=fault_rate,
                                    latency_range=(0.0, 0.001))
    instance = MixedInstance(graph=base.graph, name="bench-remote",
                             entailment=False, cache=False)
    remote = instance.register_remote(transport, uri=source.uri,
                                      model=source.model, name=source.name,
                                      size=source.size(), options=options)
    return instance, remote, transport


def accounts_query(instance: MixedInstance):
    """qG (all handles) |> SQL bind atom answered remotely."""
    return (instance.builder("qRemote", head=["id", "f"])
            .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
            .sql("followers", source="sql://accounts",
                 sql="SELECT handle AS id, followers AS f FROM accounts "
                     "WHERE handle = {id}")
            .build())


def run_once(instance: MixedInstance, options: PlannerOptions) -> dict:
    start = time.perf_counter()
    result = instance.execute(accounts_query(instance), options=options)
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "source calls": len(result.trace.calls),
            "answers": len(result),
            "_rows": sorted(map(str, result.rows))}


def rtt_sweep(base: MixedInstance, rtts_ms) -> list[dict]:
    """Per-binding vs batched bind joins at each simulated RTT."""
    reference = run_once(base, PlannerOptions())["_rows"]
    measurements = []
    for rtt_ms in rtts_ms:
        instance, _, _ = remote_instance(base, rtt=rtt_ms / 1000.0)
        per_binding = run_once(instance, PlannerOptions(bind_batch_size=1))
        batched = run_once(instance, PlannerOptions())
        for label, m in (("per-binding", per_binding), ("batched", batched)):
            assert m["_rows"] == reference, \
                f"{label} @ {rtt_ms}ms diverged from the in-process engine"
        measurements.append({
            "rtt_ms": rtt_ms,
            "per-binding calls": per_binding["source calls"],
            "batched calls": batched["source calls"],
            "per-binding s": per_binding["seconds"],
            "batched s": batched["seconds"],
            "call_reduction": per_binding["source calls"]
                              / max(1, batched["source calls"]),
            "speedup": per_binding["seconds"] / max(1e-9, batched["seconds"]),
        })
    return measurements


def fault_tolerance(base: MixedInstance, rounds: int,
                    fault_rate: float = 0.15) -> dict:
    """Chaos scenario: every answer stays correct despite injected faults.

    Dispatches per binding so each round ships dozens of wire calls
    through the fault proxy — the retry loop, not batching, is what is
    under test here.
    """
    reference = run_once(base, PlannerOptions())["_rows"]
    instance, remote, transport = remote_instance(
        base, rtt=0.002, fault_rate=fault_rate, seed=7,
        options=CHAOS_OPTIONS)
    start = time.perf_counter()
    for _ in range(rounds):
        measurement = run_once(
            instance, PlannerOptions(bind_batch_size=1))
        assert measurement["_rows"] == reference, \
            "a faulty run returned wrong rows"
    elapsed = time.perf_counter() - start
    stats = remote.stats()
    return {
        "rounds": rounds,
        "fault_rate": fault_rate,
        "seconds": elapsed,
        "transport calls": transport.calls,
        "injected": dict(transport.injected),
        "retries": stats["retries"],
        "breaker": stats["breaker"],
        "latency_p95_ms": (stats["latency_p95_s"] or 0.0) * 1000.0,
    }


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

def test_remote_rtt_amortisation():
    base = build_base(accounts=100)
    measurements = rtt_sweep(base, rtts_ms=(25,))
    report("E13: remote bind join, 100 bindings", measurements)
    at_25 = measurements[0]
    assert at_25["call_reduction"] >= 5
    assert at_25["speedup"] >= 5


def test_remote_fault_tolerance_preserves_answers():
    base = build_base(accounts=60)
    outcome = fault_tolerance(base, rounds=3)
    report("E13: chaos runs, 60 bindings", [outcome],
           columns=["rounds", "fault_rate", "transport calls",
                    "retries", "breaker", "latency_p95_ms"])
    assert outcome["retries"] > 0
    assert sum(outcome["injected"].values()) > 0
    assert outcome["breaker"] == "closed"


# ---------------------------------------------------------------------------
# Script mode: the trajectory runner
# ---------------------------------------------------------------------------

def main(argv: list[str]) -> None:
    smoke = "--smoke" in argv
    accounts = 80 if smoke else 200
    rtts_ms = (5, 25) if smoke else (5, 25, 50)
    base = build_base(accounts=accounts)

    sweep = rtt_sweep(base, rtts_ms)
    report(f"remote federation RTT sweep, {accounts} bindings", sweep)
    chaos = fault_tolerance(base, rounds=2 if smoke else 6)
    report("remote federation chaos", [chaos],
           columns=["rounds", "fault_rate", "transport calls",
                    "retries", "breaker", "latency_p95_ms"])

    at_25 = next(m for m in sweep if m["rtt_ms"] == 25)
    payload = {
        "benchmark": "remote_federation", "smoke": smoke,
        "accounts": accounts,
        "scenarios": {"rtt_sweep": sweep, "fault_tolerance": chaos},
        "summary": {"speedup_at_25ms": at_25["speedup"],
                    "call_reduction_at_25ms": at_25["call_reduction"]},
    }
    assert at_25["speedup"] >= 5, \
        f"batched remote bind joins only {at_25['speedup']:.1f}x at 25ms RTT"

    out_path = Path(__file__).resolve().parents[1] / "BENCH_remote.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main(sys.argv[1:])
