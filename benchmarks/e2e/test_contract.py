"""Contract test: the smoke run emits exactly what BENCHMARK.json names.

Runs ``run.py --smoke`` (small instance, small fixed operation counts)
once in full and the traced passes a second time, in subprocesses like
the driver does.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SEED = 7


def _start(*arguments: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(HERE / "run.py"), *arguments],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _lines(process: subprocess.Popen) -> list[str]:
    out, err = process.communicate(timeout=170)
    assert process.returncode == 0, (out[-2000:], err[-2000:])
    return out.strip().splitlines()


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> dict:
    """The suite's smoke report, traced passes included."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    _lines(_start("--smoke", "--traced", "--seed", str(SEED), "--out", str(out)))
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def repeated() -> dict:
    """Every traced smoke pass once more, in the driver's form (the four
    children run side by side: counts do not depend on timing)."""
    children = {workload: _start("--workload", workload, "--seed", str(SEED),
                                 "--trace", "1", "--smoke")
                for workload in WORKLOADS}
    passes = {}
    for workload, child in children.items():
        record, result = _lines(child)[-2:]
        passes[workload] = {"record": json.loads(record),
                            "result": json.loads(result)}
    return passes


def test_spec_names_and_sizes():
    names = [metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names + WORKLOADS)
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    assert SPEC["paths"] == ["benchmarks/e2e"]
    # The driver's contract: no bound above 25 %, ``setup_s`` carries the
    # largest.  (ISSUE 11's 10 % did not hold on the shared host.)
    bounds = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert min(bounds.values()) > 0


def test_every_layer_metric_says_what_it_should_move():
    """``predictions.json`` holds what the contract's BENCHMARK.json has
    no key for: per layer metric, the (end-to-end metric, workload)
    pairs it should move — none for a reporting-only metric — and the
    claim of the change that defined the benchmark (none)."""
    assert PREDICTIONS["claim"] is None
    moves = PREDICTIONS["moves"]
    assert set(moves) == {metric["name"] for metric in SPEC["per_layer"]}
    measured = ({metric["name"] for metric in SPEC["end_to_end"]}
                | set(moves))
    for name, targets in moves.items():
        for target in targets:
            assert set(target) == {"metric", "workload"}, name
            assert target["metric"] in measured and target["metric"] != name, name
            assert target["workload"] in WORKLOADS, name


def test_every_workload_and_metric_is_emitted(report):
    assert sorted(report["workloads"]) == sorted(WORKLOADS)
    for entry in report["workloads"].values():
        for block, spec in (("end_to_end", SPEC["end_to_end"]),
                            ("per_layer", SPEC["per_layer"])):
            result = entry[block]["result"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            metrics = result["metrics"]
            assert set(metrics) == {metric["name"] for metric in spec}
            for metric in spec:
                assert metrics[metric["name"]]["unit"] == metric["unit"]
                assert isinstance(metrics[metric["name"]]["value"], (int, float))
        for metric in entry["end_to_end"]["result"]["metrics"].values():
            assert metric["value"] > 0


def test_no_operation_failed(report):
    for entry in report["workloads"].values():
        for body in entry.values():
            assert body["result"]["correct"] and body["result"]["failed"] == 0
            assert body["result"]["attempted"] >= 1
            assert body["record"]["failed_share"] == 0
        counts = entry["per_layer"]["record"]["counts"]
        assert counts["same_answers_as_untraced"]
        assert counts["same_source_calls_as_untraced"]
        assert entry["per_layer"]["record"]["problems"] == []


def test_record_says_how_to_reproduce(report):
    assert report["seconds"] == SPEC["run_seconds"]  # the default of a run
    for workload, entry in report["workloads"].items():
        record = entry["end_to_end"]["record"]
        assert record["workload"] == workload and record["seed"] == SEED
        assert {"git_commit", "python", "nproc"} <= set(record["environment"])
        assert {"cmq_samples", "clients", "ops_per_slice"} <= set(record["counts"])
        assert len(record["quartiles"]["cmq_ms"]) == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_on_the_same_seed(report, repeated, workload):
    first = report["workloads"][workload]["per_layer"]
    second = repeated[workload]
    assert first["record"]["counts"] == second["record"]["counts"]
    for name in ("core.executor.source_calls", "core.executor.rows_fetched",
                 "cache.repair.repairs", "cache.repair.fallbacks"):
        assert (first["result"]["metrics"][name]["value"]
                == second["result"]["metrics"][name]["value"]), name
