"""End-to-end benchmark of the mixed-instance mediator (see README.md).

Driver contract (one workload per process, one JSON object on the last
line of standard output)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Local use::

    python3 benchmarks/e2e/run.py [--seed N] [--traced] [--smoke] [--scale K]
                                  [--out FILE]
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py selfcheck

Without ``--workload`` every workload runs in its own subprocess and the
collected report goes to ``--out``.  A run is a fixed operation count
(``workloads.FULL_BLOCKS``); ``--seconds`` only scales it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # String hashing decides set iteration order inside the program; pin
    # it (before the program is imported), so one seed means one behaviour.
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "PYTHONHASHSEED": "0"})

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402  (needs the path set-up above)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}

#: ``selfcheck``: suite reports per side, and where the two sides go.
REPEATS = 5
BASELINE = HERE / "baseline"


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------

def _untraced(inputs: W.Inputs, ops: int) -> dict:
    """``W.SETUPS`` fresh set-ups, each followed by a slice of ``ops``
    operations.

    Every timing is taken at the reference speed (``W.probe``: the shared
    host runs at anything between full and half speed, and the clock's
    medians move with it; ``plain`` in the record keeps those).
    ``setup_s`` is the median of the set-ups; the latencies count each
    sample as the lower quartile of the repeats of its operation
    (``W.steady``) and ``cmq_per_s`` is operations over the sum of those.
    ``peak_rss_mb`` is read after the first slice: freed memory does not
    go back to the system, so every further set-up in the same process
    raises the high-water mark by however the allocator happened to
    fragment (340-400 MB after three on ``ingest_mixed``, 281-282 MB
    after one).
    """
    setups, wall_setups, passes = [], [], []
    peak_rss_mb = 0.0
    for _ in range(W.SETUPS):
        context = W.Context(inputs)
        try:
            setups.append(context.setup_seconds)
            wall_setups.append(context.setup_wall_seconds)
            passes.append(W.run_pass(context, ops))
        finally:
            context.close()
        del context
        gc.collect()
        peak_rss_mb = peak_rss_mb or (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    failed = W.check(inputs, passes, W.Oracle(inputs))
    cmqs, every = W.steady(passes)
    values = {
        "setup_s": statistics.median(setups),
        "cmq_p50_ms": statistics.median(cmqs),
        "cmq_p95_ms": W.percentile(cmqs, 0.95),
        "cmq_per_s": len(every) / (sum(every) / 1000.0),
        "peak_rss_mb": peak_rss_mb,
    }
    latencies = sorted(ms for measured in passes for ms in measured.latencies())
    hosts = [sample.host for measured in passes for sample in measured.samples]
    return {
        "attempted": sum(measured.operations for measured in passes),
        "failed": failed, "values": values,
        "counts": {"cmq_samples": len(latencies),
                   "distinct_operations": len(set(every)),
                   "write_batches": sum(m.write_batches for m in passes),
                   "ops_per_slice": ops, "clients": 1, "setups": W.SETUPS},
        "quartiles": {"cmq_ms": statistics.quantiles(cmqs, n=4),
                      "setup_s": sorted(setups),
                      "host_slowness": statistics.quantiles(hosts, n=4)},
        # The same run as the clock saw it.
        "plain": {"setup_s": statistics.median(wall_setups),
                  "cmq_p50_ms": statistics.median(latencies),
                  "cmq_p95_ms": W.percentile(latencies, 0.95),
                  "cmq_per_s": statistics.median(m.per_second() for m in passes),
                  "cmq_ms": statistics.quantiles(latencies, n=4)},
    }


def run_workload(args) -> dict:
    """Run one workload here and return its record."""
    scale = W.SMOKE_SCALE if args.smoke else W.Scale()
    if args.scale != 1:
        scale = W.Scale(politicians=scale.politicians * args.scale,
                        weeks=scale.weeks, tweets_per_week=scale.tweets_per_week)
    inputs = W.Inputs.make(args.workload, args.seed, scale)
    W.pin_to_one_cpu()
    ops = W.slice_ops(inputs, args.seconds, args.smoke)
    if args.trace:
        import layers  # the traced pass only: it patches the program

        body = layers.traced_run(inputs, ops, args.out, args.smoke)
        units = PER_LAYER
    else:
        body = _untraced(inputs, ops)
        units = END_TO_END
    metrics = body["values"]
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": body["failed"] == 0,
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]["unit"]}
                    for name in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "seconds": args.seconds, "smoke": args.smoke, "scale": args.scale,
        "failed_share": body["failed"] / max(1, body["attempted"]),
        "counts": body["counts"], "quartiles": body.get("quartiles", {}),
        "plain": body.get("plain", {}),
        "problems": body.get("problems", []), "environment": environment(),
    }
    return {"result": result, "record": record}


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {"git_commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform()}


# ---------------------------------------------------------------------------
# Every workload, one subprocess each
# ---------------------------------------------------------------------------

def _child(workload: str, args, trace: bool) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--trace", "1" if trace else "0",
               "--scale", str(args.scale), "--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: exit code {done.returncode}, no result")
    # A run with failed operations exits 1 *after* printing its result;
    # the report keeps it and ``failed_share`` decides.
    record, result = lines[-2:]
    return {"record": json.loads(record), "result": json.loads(result)}


def run_all(args, traced: bool) -> dict:
    """The report of every workload: untraced, and traced on request."""
    report = {"seed": args.seed, "smoke": args.smoke, "scale": args.scale,
              "seconds": args.seconds, "environment": environment(),
              "workloads": {}}
    for workload in W.WORKLOADS:
        entry = {"end_to_end": _child(workload, args, trace=False)}
        if traced:
            entry["per_layer"] = _child(workload, args, trace=True)
        report["workloads"][workload] = entry
    return report


def print_report(report: dict) -> None:
    for workload, entry in report["workloads"].items():
        for block, body in entry.items():
            result = body["result"]
            print(f"[{workload}] {block}: attempted={result['attempted']} "
                  f"failed={result['failed']} {body['record']['problems'] or ''}")
            for name, metric in result["metrics"].items():
                print(f"  {name:<44} {metric['value']:>14.4f} {metric['unit']}")


def failed_share(report: dict) -> float:
    attempted = failed = 0
    for entry in report["workloads"].values():
        for body in entry.values():
            attempted += body["result"]["attempted"]
            failed += body["result"]["failed"]
    return failed / max(1, attempted)


# ---------------------------------------------------------------------------
# compare / selfcheck
# ---------------------------------------------------------------------------

def _runs(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, end-to-end metric) -> values of every run in a file.

    A file holds one report or a list of reports (repeated runs)."""
    loaded = json.loads(Path(path).read_text())
    values: dict[tuple[str, str], list[float]] = {}
    for report in loaded if isinstance(loaded, list) else [loaded]:
        for workload, entry in report["workloads"].items():
            metrics = entry["end_to_end"]["result"]["metrics"]
            for name in END_TO_END:
                values.setdefault((workload, name), []).append(metrics[name]["value"])
    return values


def _spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def compare(path_a: str, path_b: str) -> int:
    """Print one row per (workload, metric); return how many are not ``ok``.

    ``ratio`` is B's median over A's (base A).  A metric whose run-to-run
    spread on either side exceeds its bound is ``unresolved``: neither
    side's median is known well enough to call it unchanged.
    """
    runs_a, runs_b = _runs(path_a), _runs(path_b)
    print(f"{'workload':<20}{'metric':<14}{'A median':>12}{'B median':>12}"
          f"{'B/A':>8}{'bound':>7}  verdict")
    not_ok = 0
    for key in sorted(runs_a):
        if key not in runs_b:
            continue
        workload, name = key
        spec = END_TO_END[name]
        a, b = statistics.median(runs_a[key]), statistics.median(runs_b[key])
        worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        if worse > spec["bound"]:
            verdict = "regressed"
        elif max(_spread(runs_a[key]), _spread(runs_b[key])) > spec["bound"]:
            verdict = "unresolved"
        else:
            verdict = "ok"
        not_ok += verdict != "ok"
        print(f"{workload:<20}{name:<14}{a:>12.4f}{b:>12.4f}{b / a:>8.3f}"
              f"{spec['bound']:>7.2f}  {verdict}")
    return not_ok


def selfcheck(args) -> int:
    """Two sets of reports of the same code must agree within the bounds.

    The sets are taken alternately (A, B, A, B, …), so that a drift of
    the host lands on both; one report a side is not enough on a shared
    machine.  Report ``i`` of either side runs seed ``--seed + i``, and
    the first also holds the traced passes (the committed per-layer
    baseline).
    """
    BASELINE.mkdir(exist_ok=True)
    sides: dict[str, list[dict]] = {"a": [], "b": []}
    for repeat in range(REPEATS):
        seeded = argparse.Namespace(**{**vars(args), "seed": args.seed + repeat})
        for side in sides.values():
            report = run_all(seeded, traced=repeat == 0)
            if failed_share(report) > 0:
                raise SystemExit("selfcheck: wrong or failed answers")
            side.append(report)
    paths = []
    for label, reports in sides.items():
        path = BASELINE / f"selfcheck_{label}.json"
        path.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
        paths.append(str(path))
    return compare(*paths)


# ---------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return 1 if compare(argv[1], argv[2]) else 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", nargs="?", choices=["selfcheck"])
    parser.add_argument("--workload", choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(W.RUN_SECONDS),
                        help="scales the fixed operation counts "
                             f"(sized to {W.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", action="store_true",
                        help="also run the traced pass of every workload")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--scale", type=int, default=1,
                        help="multiply the number of politicians")
    parser.add_argument("--out", help="write the report (or the spans) here")
    args = parser.parse_args(argv)
    if args.command == "selfcheck":
        return 1 if selfcheck(args) else 0
    if args.workload is not None:
        # The reproducibility record first; the contract's result object
        # is the last line.
        body = run_workload(args)
        print(json.dumps(body["record"], sort_keys=True))
        print(json.dumps(body["result"], sort_keys=True))
        return 1 if body["result"]["failed"] else 0
    report = run_all(args, args.traced)
    print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    share = failed_share(report)
    print(f"failed_share {share:.6f} ratio")
    return 1 if share > 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
