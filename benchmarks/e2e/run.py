"""The repo's one benchmark: four workloads through the real front doors.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}`` with
every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``: nothing
attached, nothing patched) or every per-layer metric (``--trace 1``:
benchmark-owned spans around the layers, plus ``out/trace_<workload>.json``
and ``out/budget_<workload>.txt``). Without ``--workload`` it runs all
four, each in its own child process, one at a time, and writes
``out/result.json``; ``--traced`` adds the traced run of each,
``--smoke`` shrinks everything (not comparable), ``--check-repeat``
runs the set twice, traced runs included and the untraced ones three
times each, and fails unless the sets' median end-to-end metrics agree
within their bounds and the exact counts are identical.

See README.md beside this file for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all-workload mode: also make the traced run")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    return parser.parse_args(argv)


def run_one(args, contract) -> int:
    """One workload in this process; the contract's result line."""
    import batch
    import serve
    from common import Context

    workloads = {
        "city_batch": (batch.run, batch.CITY_BATCH),
        "dna_batch": (batch.run, batch.DNA_BATCH),
        "city_serve": (serve.run, serve.CITY_SERVE),
        "live_mixed": (serve.run, serve.LIVE_MIXED),
    }
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads)}", file=sys.stderr)
        return 2
    context = Context(seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace), smoke=args.smoke)
    function, spec = workloads[args.workload]
    outcome = function(spec, context)

    section = "per_layer" if context.trace else "end_to_end"
    measured = outcome.per_layer if context.trace else outcome.end_to_end
    declared = {metric["name"]: metric["unit"]
                for metric in contract[section]}
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        raise SystemExit(f"metrics not in BENCHMARK.json: {unknown}")
    if not context.trace and set(declared) - set(measured):
        raise SystemExit("end-to-end metrics not measured: "
                         f"{sorted(set(declared) - set(measured))}")
    # A layer the workload never enters did no work there: 0.
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}
    correct = outcome.failed == 0 and outcome.checked > 0
    raw = outcome.info.get("raw", {})
    for name, cell in metrics.items():
        samples = outcome.info.get("samples", {}).get(name)
        note = f"  (n={samples})" if samples is not None else ""
        if name in raw:
            note += f"  (as measured: {raw[name]:.6g})"
        print(f"{args.workload:<11} {name:<38} "
              f"{cell['value']:>14.6g} {cell['unit']}{note}")
    print(f"{args.workload:<11} attempted {outcome.attempted}, failed "
          f"{outcome.failed}, answers checked {outcome.checked}")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "comparable": not args.smoke, "correct": correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": metrics, "info": outcome.info,
    }
    os.makedirs(context.out_dir, exist_ok=True)
    with open(os.path.join(context.out_dir,
                           f"run_{args.workload}_{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


# -- all workloads, each in its own child process ----------------------


#: ``--check-repeat`` makes this many untraced runs of each workload
#: per set and compares the sets' medians. Two single runs of one seed
#: differ by 10 % and more on this box; over 24 comparisons at a 25 %
#: bound, one invocation in three then failed by chance.
CHECK_REPEAT_RUNS = 3


def run_set(args, contract, out_dir, untraced_runs=1) -> tuple[dict, bool]:
    """Every workload once (and traced once with ``--traced``).

    With ``untraced_runs`` above 1 the untraced run is made that many
    times: the record's metrics are then the medians, the single runs
    are kept under ``single_runs``, and exact counts that differ
    between them make the set incorrect, as does a run that left no
    record (it raised before writing one).
    """
    results, correct = {}, True
    for workload in (entry["name"] for entry in contract["workloads"]):
        for trace in ((0, 1) if args.traced else (0,)):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            path = os.path.join(out_dir, f"run_{workload}_{trace}.json")
            records = []
            for _ in range(1 if trace else untraced_runs):
                if os.path.exists(path):
                    os.remove(path)  # never read an earlier run's record
                completed = subprocess.run(command, cwd=ROOT)
                correct = correct and completed.returncode == 0 \
                    and os.path.exists(path)
                if os.path.exists(path):
                    with open(path, encoding="utf-8") as handle:
                        records.append(json.load(handle))
            if not records:
                continue
            record = records[0]
            if len(records) > 1:
                record["single_runs"] = [run["metrics"] for run in records]
                record["metrics"] = {
                    name: {"unit": cell["unit"], "value": statistics.median(
                        run["metrics"][name]["value"] for run in records)}
                    for name, cell in record["metrics"].items()}
                exact = record["info"].get("exact_counts")
                if any(run["info"].get("exact_counts") != exact
                       for run in records):
                    print(f"{workload}: exact counts differ between the "
                          "runs of one set", file=sys.stderr)
                    correct = False
            results[f"{workload}:{trace}"] = record
    return results, correct


def compare_sets(first: dict, second: dict, contract) -> list[str]:
    """Where two sets of runs of the same code disagree too much."""
    bounds = {metric["name"]: metric for metric in contract["end_to_end"]}
    problems = []
    for key, run in first.items():
        again = second.get(key)
        if again is None:
            problems.append(f"{key}: missing from the second set")
            continue
        if key.endswith(":0"):
            for name, cell in run["metrics"].items():
                other = again["metrics"][name]["value"]
                base = cell["value"]
                worse = (other - base if bounds[name]["better"] == "lower"
                         else base - other) / base
                if abs(worse) > bounds[name]["bound"]:
                    problems.append(
                        f"{key} {name}: {base:.6g} then {other:.6g} "
                        f"({worse:+.1%}, bound {bounds[name]['bound']:.0%})")
        exact_a = run["info"].get("exact_counts")
        exact_b = again["info"].get("exact_counts")
        if not exact_a:
            problems.append(f"{key}: no exact counts to compare")
        elif exact_a != exact_b:
            differing = {name: (value, (exact_b or {}).get(name))
                         for name, value in exact_a.items()
                         if (exact_b or {}).get(name) != value}
            problems.append(f"{key} exact counts differ: {differing}")
    for key in second.keys() - first.keys():
        problems.append(f"{key}: missing from the first set")
    return problems


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"no program to measure: {SOURCE}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SOURCE, HERE]
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        contract = json.load(handle)
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
        if args.smoke:
            args.seconds /= 10
    if args.workload is not None:
        return run_one(args, contract)
    args.traced = args.traced or args.check_repeat

    out_dir = os.path.join(HERE, "out")
    untraced_runs = CHECK_REPEAT_RUNS if args.check_repeat else 1
    first, correct = run_set(args, contract, out_dir, untraced_runs)
    document = {
        "seed": args.seed, "seconds": args.seconds,
        "comparable": not args.smoke, "nproc": os.cpu_count(),
        "python": platform.python_version(), "runs": first,
    }
    problems = []
    if args.check_repeat:
        second, again_correct = run_set(args, contract, out_dir,
                                        untraced_runs)
        correct = correct and again_correct
        problems = compare_sets(first, second, contract)
        document["repeat"] = {"runs": second, "problems": problems}
        for problem in problems:
            print(f"repeat check: {problem}", file=sys.stderr)
    with open(os.path.join(out_dir, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"wrote {os.path.join(out_dir, 'result.json')}")
    return 0 if correct and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
