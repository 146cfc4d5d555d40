"""Unit tests for the SearchEngine facade."""

import pytest

from repro.core.engine import SearchEngine
from repro.core.sequential import SequentialScanSearcher
from repro.data.workload import Workload
from repro.exceptions import ReproError


class TestBackendSelection:
    def test_default_plan_is_the_cheapest_feasible(self, city_names):
        plan = SearchEngine(city_names).default_plan
        feasible = [e for e in plan.estimates if e.feasible]
        assert plan.strategy == min(feasible,
                                    key=lambda e: e.cost).strategy

    def test_default_plan_tracks_the_regime(self, city_names,
                                            dna_reads):
        for corpus in (city_names, dna_reads):
            plan = SearchEngine(corpus).default_plan
            assert "regime" in plan.reason
            assert not plan.forced

    def test_default_plan_sees_the_compiled_backend(self, city_names):
        # Regression: the pre-planner decision view was blind to the
        # compiled backend; the plan reports every strategy.
        engine = SearchEngine(city_names, backend="compiled")
        assert engine.default_plan.strategy == "compiled"
        assert engine.default_plan.forced

    def test_forced_backends(self, city_names):
        forced = SearchEngine(city_names, backend="indexed")
        assert forced.default_plan.strategy == "indexed"
        assert forced.default_plan.reason == "forced by caller"
        assert forced.default_plan.forced

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            SearchEngine(["a"], backend="gpu")

    def test_empty_dataset_defaults_to_sequential(self):
        engine = SearchEngine([])
        assert engine.default_plan.strategy == "sequential"
        assert isinstance(engine.searcher, SequentialScanSearcher)


class TestSearch:
    def test_search_results_match_brute_force(self, city_names):
        from repro.distance.levenshtein import edit_distance

        engine = SearchEngine(city_names)
        query = city_names[0]
        expected = sorted(
            {s for s in city_names if edit_distance(query, s) <= 1}
        )
        assert [m.string for m in engine.search(query, 1)] == expected

    def test_both_backends_agree(self, city_names):
        sequential = SearchEngine(city_names, backend="sequential")
        indexed = SearchEngine(city_names, backend="indexed")
        for query in city_names[:5]:
            assert sequential.search(query, 2) == indexed.search(query, 2)

    def test_timed_workload(self, city_names):
        engine = SearchEngine(city_names)
        workload = Workload(tuple(city_names[:5]), 1, "engine-test")
        results, seconds = engine.timed_workload(workload)
        assert len(results) == 5
        assert seconds > 0

    def test_run_workload_through_runner(self, city_names):
        from repro.parallel.executor import ThreadPoolRunner

        workload = Workload(tuple(city_names[:6]), 1, "engine-test")
        plain = SearchEngine(city_names).run_workload(workload)
        threaded = SearchEngine(
            city_names, runner=ThreadPoolRunner(threads=3)
        ).run_workload(workload)
        assert plain == threaded


class TestBatchPath:
    def test_indexed_backend_is_served_by_the_flat_trie(self, dna_reads):
        from repro.index.batch import FlatIndexSearcher

        engine = SearchEngine(dna_reads, backend="indexed")
        assert isinstance(engine.searcher, FlatIndexSearcher)
        assert engine.searcher.flat_trie is not None

    def test_search_many_equals_per_query_loop(self, dna_reads):
        engine = SearchEngine(dna_reads)
        queries = [dna_reads[0], dna_reads[1], dna_reads[0], "ACGT"]
        results = engine.search_many(queries, 4)
        assert results.queries == tuple(queries)
        assert [list(row) for row in results.rows] == [
            engine.search(query, 4) for query in queries
        ]

    def test_search_many_indexed_reports_batch_stats(self, dna_reads):
        engine = SearchEngine(dna_reads)
        assert engine.last_report is None
        engine.search_many([dna_reads[0]] * 4 + [dna_reads[1]], 2)
        batch = engine.last_report.batch
        assert batch.queries_seen == 5
        assert batch.unique_queries == 2
        assert batch.deduplicated == 3

    def test_search_many_agrees_across_backends(self, dna_reads):
        queries = [dna_reads[0], "ACGTACGT", dna_reads[2]]
        indexed = SearchEngine(dna_reads, backend="indexed")
        compiled = SearchEngine(dna_reads, backend="compiled")
        sequential = SearchEngine(dna_reads, backend="sequential")
        expected = sequential.search_many(queries, 4)
        assert indexed.search_many(queries, 4) == expected
        assert compiled.search_many(queries, 4) == expected
