"""Diff two runs of the repo's one benchmark: ``python -m repro.obs.regress``.

.. code-block:: console

    python -m repro.obs.regress BASE.json CURRENT.json [--contract BENCHMARK.json]

Both files are result documents of ``benchmarks/e2e/run.py``
(``benchmarks/e2e/out/result.json``); runs are paired by their
``"<workload>:<trace>"`` key. The contract (``BENCHMARK.json``) says
which metrics gate, which way each is better and how much of the
baseline it may lose, so the tool has no thresholds of its own:

* every **end-to-end** metric is judged in its own ``better`` direction
  against its own ``bound`` (a share of the baseline); getting better
  never fails, and a zero baseline is reported as an absolute change;
* ``info.exact_counts`` and the failed share ``failed / attempted`` are
  compared with **zero tolerance** — drift in the work done or the
  answers given is never excused by a bound;
* the **per-layer** metrics of the traced runs are printed worst
  relative change first and never gate: they answer "which layer
  regressed between these two commits";
* when either document is stamped ``comparable: false`` (``--smoke``),
  the end-to-end rows are printed as information only; counts and
  failures still gate.

Exit codes: 0 clean, 1 regression, 2 when a file is unreadable or not
an e2e result document, or when no run is paired. Self-diffing a
result exits 0 by construction.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Sequence

#: Exit codes: clean / regression / usage-or-validation error.
EXIT_OK, EXIT_REGRESSION, EXIT_ERROR = 0, 1, 2


def _problem(document: Any) -> str | None:
    """Why ``document`` is not an e2e result document, if it is not."""
    runs = document.get("runs") if isinstance(document, dict) else None
    if not isinstance(runs, dict) or not runs:
        return ("not an e2e result document: no 'runs' "
                "(expected benchmarks/e2e/out/result.json)")
    for key, run in runs.items():
        metrics = run.get("metrics") if isinstance(run, dict) else None
        if not isinstance(metrics, dict) \
                or not isinstance(run.get("attempted"), int) \
                or not isinstance(run.get("failed"), int) \
                or not all(isinstance(cell, dict) and isinstance(
                    cell.get("value"), (int, float))
                    for cell in metrics.values()):
            return f"run {key!r} lacks metrics / attempted / failed"
    return None


def _row(key: str, name: str, base: float, current: float,
         metric: dict) -> tuple[float, str]:
    """How far one metric moved in its worse direction, and its row.

    The number is a share of the baseline; from a zero baseline any
    worsening is infinite and the row states the absolute change.
    """
    delta = current - base
    worse = delta if metric["better"] == "lower" else -delta
    verdict = "worse" if worse > 0 else "better" if worse < 0 else "same"
    if base:
        share, moved = worse / abs(base), f"{delta / abs(base):+.1%}"
    else:
        share = math.copysign(math.inf, worse) if worse else 0.0
        moved = f"{delta:+.6g} from 0"
    return share, (f"{key} {name}: {base:.6g} -> {current:.6g} "
                   f"{metric['unit']}, {moved} {verdict}")


def compare_documents(baseline: Any, current: Any, contract: Any
                      ) -> tuple[int, list[str]]:
    """Diff two loaded result documents; returns (exit_code, lines)."""
    for label, document in (("baseline", baseline), ("current", current)):
        problem = _problem(document)
        if problem:
            return EXIT_ERROR, [f"INVALID {label}: {problem}"]
    try:
        gated = {metric["name"]: metric for metric in contract["end_to_end"]}
        layers = {metric["name"]: metric for metric in contract["per_layer"]}
    except (KeyError, TypeError):
        return EXIT_ERROR, ["INVALID contract: no end_to_end / per_layer "
                            "metric lists (expected BENCHMARK.json)"]
    lines: list[str] = []
    for field in ("seed", "seconds"):
        if baseline.get(field) != current.get(field):
            lines.append(
                f"warn {field} differs ({baseline.get(field)} vs "
                f"{current.get(field)}): exact counts only repeat at one "
                "seed and run length")
    comparable = baseline.get("comparable", True) \
        and current.get("comparable", True)
    if not comparable:
        lines.append("warn a document is stamped comparable: false; "
                     "end-to-end rows are information only")
    compared = regressions = 0
    for key, base in baseline["runs"].items():
        run = current["runs"].get(key)
        if run is None:
            lines.append(f"warn {key} present in baseline only")
            continue
        compared += 2  # the failed share and the exact counts
        if run["failed"] / max(1, run["attempted"]) \
                > base["failed"] / max(1, base["attempted"]):
            regressions += 1
            lines.append(
                f"REGRESSION {key} failed share: {base['failed']}/"
                f"{base['attempted']} -> {run['failed']}/{run['attempted']}")
        before, after = (side.get("info", {}).get("exact_counts") or {}
                         for side in (base, run))
        drift = {name: (before.get(name), after.get(name))
                 for name in sorted(before.keys() | after.keys())
                 if before.get(name) != after.get(name)}
        if drift:
            regressions += 1
            lines.append(f"REGRESSION {key} exact counts differ "
                         f"(baseline, current): {drift}")
        elif not before:
            lines.append(f"warn {key} carries no exact counts")
        layer_rows = []
        for name, cell in base["metrics"].items():
            metric = gated.get(name) or layers.get(name)
            if metric is None or name not in run["metrics"]:
                continue
            values = cell["value"], run["metrics"][name]["value"]
            share, row = _row(key, name, *values, metric)
            if name in layers:
                if any(values):  # both 0: the workload never enters it
                    layer_rows.append((share, f"layer {row}"))
                continue
            row += f", bound {metric['bound']:.0%}"
            if not comparable:
                lines.append(f"info {row}")
                continue
            compared += 1
            over = share > metric["bound"]
            regressions += over
            lines.append(f"{'REGRESSION' if over else 'ok'} {row}")
        lines.extend(row for _, row in
                     sorted(layer_rows, key=lambda entry: -entry[0]))
    for key in sorted(current["runs"].keys() - baseline["runs"].keys()):
        lines.append(f"warn {key} new in current (no baseline)")
    if not compared:
        return EXIT_ERROR, lines + [
            "INVALID nothing comparable: no run is in both documents"]
    lines.append(f"{compared} gated comparisons, {regressions} regressions")
    return (EXIT_REGRESSION if regressions else EXIT_OK), lines


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description="diff two benchmarks/e2e result documents against "
                    "the bounds of the benchmark contract",
    )
    parser.add_argument("baseline", help="baseline result.json")
    parser.add_argument("current", help="current result.json")
    parser.add_argument(
        "--contract", default="BENCHMARK.json", metavar="PATH",
        help="the benchmark contract naming each metric's direction and "
             "bound (default: BENCHMARK.json in the working directory)",
    )
    args = parser.parse_args(argv)
    documents = []
    for path in (args.baseline, args.current, args.contract):
        try:
            with open(path, encoding="utf-8") as handle:
                documents.append(json.load(handle))
        except (OSError, ValueError) as error:  # ValueError: not JSON
            print(f"regress: cannot read {path}: {error}", file=sys.stderr)
            return EXIT_ERROR
    code, lines = compare_documents(*documents)
    stream = sys.stderr if code else sys.stdout
    for line in lines:
        print(line, file=stream)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
