"""Smoke test of the benchmark itself; not part of tier-1.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs ``run.py --smoke --traced`` (corpora ÷20, a tenth of the measuring
time, stamped not comparable) and checks the shape of what it wrote.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_smoke_run_matches_the_contract():
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--traced", "--seed", "7"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, \
        completed.stdout[-3000:] + completed.stderr[-3000:]
    contract = load(os.path.join(ROOT, "BENCHMARK.json"))
    result = load(os.path.join(OUT, "result.json"))
    assert result["comparable"] is False
    assert result["seed"] == 7

    for workload in (entry["name"] for entry in contract["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            run = result["runs"][f"{workload}:{trace}"]
            declared = {metric["name"]: metric["unit"]
                        for metric in contract[section]}
            assert {name: cell["unit"] for name, cell
                    in run["metrics"].items()} == declared
            assert run["correct"] and run["failed"] == 0
            assert run["attempted"] >= 1
            assert run["info"]["answers_checked"] >= 3
            assert run["info"]["exact_counts"]
            if trace == 0:
                assert all(cell["value"] > 0
                           for cell in run["metrics"].values())
        check_trace(workload, result["runs"][f"{workload}:1"])


def check_trace(workload: str, run: dict) -> None:
    """One root per operation, and self times that add up."""
    events = load(os.path.join(OUT, f"trace_{workload}.json"))["traceEvents"]
    spans = {event["args"]["span"]: event for event in events}
    operations: dict[str, list] = {}
    for event in events:
        if event["args"]["op_id"]:
            operations.setdefault(event["args"]["op_id"], []).append(event)
    assert len(operations) == run["info"]["trace"]["operations"]
    for members in operations.values():
        roots = [event for event in members
                 if event["args"]["parent"] is None]
        assert len(roots) == 1
        for event in members:
            while event["args"]["parent"] is not None:
                event = spans[event["args"]["parent"]]
            assert event is roots[0]

    with open(os.path.join(OUT, f"budget_{workload}.txt"),
              encoding="utf-8") as handle:
        rows = {line[:21].strip(): float(line[21:33])
                for line in handle if line[:21].strip() in (
                    "sum of self", "root spans", "measured wall",
                    "residual")}
    assert abs(rows["sum of self"] - rows["root spans"]) \
        <= 1e-6 + 1e-3 * rows["root spans"]
    residual = rows["measured wall"] - rows["root spans"]
    assert abs(residual - rows["residual"]) <= 1e-5
    assert 0 <= residual < rows["measured wall"]
    assert abs(run["info"]["trace"]["residual_share"]
               - residual / rows["measured wall"]) <= 1e-3
