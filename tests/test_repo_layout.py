"""The repository has one benchmark surface, and CI runs what exists.

``BENCHMARK.json`` + ``benchmarks/e2e/`` measure the system;
``benchmarks/bench_*.py`` regenerate the paper's tables and figures
through ``repro.bench.registry``. A ``BENCH_<x>.json`` at the root or a
``bench_*.py`` with its own harness would be a second surface with its
own schema — the state this guard keeps from growing back.

The scalar Myers recurrence is guarded the same way: it is written out
in two files and no third (DESIGN.md, "Two copies of the recurrence").
So are the planner strategy and the batch split that nothing measured
could run (DESIGN.md, "Serving-layer decisions"), and the library surface
the frozen e2e benchmark patches and calls.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from repro.bench.registry import EXPERIMENTS

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = REPO_ROOT / "benchmarks"

#: ``run_experiment("table03", ...)`` or, through pytest-benchmark,
#: ``benchmark.pedantic(run_experiment_raw, args=("table03", scale), ...)``.
REGISTRY_CALL = re.compile(
    r"run_experiment(?:_raw)?\s*(?:,\s*args=)?\(\s*\"(\w+)\"")

#: The one line of the recurrence no rewrite of it can avoid.
RECURRENCE = "xh = (((eq & pv) + pv) ^ pv) | eq"


def test_no_result_records_at_the_root():
    assert sorted(path.name for path in REPO_ROOT.glob("BENCH_*.json")) \
        == []


def test_every_bench_wrapper_runs_a_registered_experiment():
    wrappers = sorted(BENCHMARKS.glob("bench_*.py"))
    assert wrappers, "the paper's table/figure wrappers are gone"
    for wrapper in wrappers:
        ids = REGISTRY_CALL.findall(wrapper.read_text(encoding="utf-8"))
        assert ids, (f"{wrapper.name} runs no experiment through "
                     "repro.bench.registry")
        assert set(ids) <= set(EXPERIMENTS), (wrapper.name, ids)


def test_ci_only_names_targets_that_exist():
    workflow = REPO_ROOT / ".github" / "workflows" / "ci.yml"
    text = "\n".join(
        line for line in workflow.read_text(encoding="utf-8").splitlines()
        if not line.lstrip().startswith("#"))
    paths = set(re.findall(r"\b(?:benchmarks|tests)/[\w./-]*", text))
    modules = set(re.findall(r"-m (repro[\w.]*)", text))
    assert paths and modules
    for path in paths:
        # everything under e2e/out is written by the run, not committed
        if not path.startswith("benchmarks/e2e/out/"):
            assert (REPO_ROOT / path).exists(), f"ci.yml names {path}"
    for module in modules:
        assert importlib.util.find_spec(module) is not None, \
            f"ci.yml runs python -m {module}"


def test_the_myers_recurrence_is_written_twice():
    source = REPO_ROOT / "src"
    copies = {
        str(path.relative_to(source)): count
        for path in sorted(source.rglob("*.py"))
        if (count := path.read_text(encoding="utf-8").count(RECURRENCE))
    }
    assert copies == {
        # the kernel every scan and join path calls
        "repro/distance/bitparallel.py": 1,
        # the paper's hand-inlined stage 4, and the e2e bench's oracle
        "repro/core/sequential.py": 1,
    }


def test_the_planner_prices_only_what_the_engine_runs():
    # Strategies come back through ``STRATEGIES`` and a searcher the
    # engine builds, not through a fourth name only the planner knows
    # or a second execution shape only the engine knows.
    for name in ("planner.py", "engine.py"):
        text = (REPO_ROOT / "src" / "repro" / "core" / name) \
            .read_text(encoding="utf-8")
        for gone in ("PlanGroup", "_split_groups", "batch-split[",
                     "qgram"):
            assert gone not in text, f"{gone!r} is back in core/{name}"


def test_the_serving_stack_builds_searchers_through_one_table():
    # ``core.searcher.BACKENDS`` maps a strategy to its searcher; the
    # engine and the shards name no searcher class of their own.
    for path in ("core/engine.py", "service/sharding.py"):
        text = (REPO_ROOT / "src" / "repro" / path).read_text(
            encoding="utf-8")
        for name in ("IndexedSearcher", "SequentialScanSearcher",
                     "CompiledScanSearcher", "FlatIndexSearcher"):
            assert name not in text, f"{name!r} is back in {path}"


def test_the_e2e_benchmark_finds_what_it_patches_and_calls(monkeypatch):
    # ``benchmarks/e2e`` is frozen: a simplification that deletes a
    # method it traces, or a keyword its probes pass, breaks it there.
    e2e = BENCHMARKS / "e2e"
    monkeypatch.syspath_prepend(str(e2e))
    fresh = "common" not in sys.modules  # layers.py imports its sibling
    try:
        spec = importlib.util.spec_from_file_location(
            "e2e_layers", e2e / "layers.py")
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        points = layers.trace_points()
    finally:
        if fresh:
            sys.modules.pop("common", None)
    assert points
    for owner, attribute, _ in points:
        assert attribute in owner.__dict__, (owner, attribute)
    # The two constructors the pools and sharding probes call.
    from repro import IndexedSearcher
    from repro.exceptions import ReproError
    from repro.scan.corpus import CompiledCorpus
    from repro.traffic import ShardPools

    strings = ["Berlin", "Bern", "Ulm"]
    with ShardPools(strings, shards=2, kind="thread"):
        pass
    IndexedSearcher(strings, index="flat")
    # The segment probe's compile and the code matrix it scores; the
    # keyword's other value went with the tuple layout.
    corpus = CompiledCorpus(strings, packed=True)
    assert corpus.buckets[0].packed.codes.shape == (1, 3)
    with pytest.raises(ReproError):
        CompiledCorpus(strings, packed=False)
    # The bucket kernel call the segment probe times, as it makes it.
    from repro.distance.bitparallel import build_peq, myers_bounded
    from repro.distance.vectorized import bucket_distances, prepare_query

    for query in ("Ulm", "Bonn", "Xyz"):
        codes = corpus.encode_query(query)
        n = len(codes)
        rows = corpus.buckets[0].packed.codes
        scores = bucket_distances(
            prepare_query(codes, corpus.alphabet.size), rows, 2)
        expected = [myers_bounded(build_peq(codes).get, n, (1 << n) - 1,
                                  1 << (n - 1), row, len(row), 2)
                    for row in rows]
        assert scores.tolist() == [3 if e is None else e for e in expected]
