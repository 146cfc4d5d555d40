"""Tests for the redesigned one-call reporting API of SearchEngine.

One SearchReport schema across all four execution paths, per-call
windows that always describe the backend that actually served the call,
counter parity between serial and process-pool execution, deprecation
of the old stats attributes, and the near-zero-cost guarantee of the
always-on counters.
"""

import pytest

from repro.core.engine import SearchEngine
from repro.core.sequential import SequentialScanSearcher
from repro.data.workload import Workload
from repro.obs.registry import MetricsRegistry
from repro.obs.report import SearchReport, validate_report
from repro.parallel.executor import ProcessPoolRunner


class TestOneSchemaAcrossBackends:
    def test_sequential_search_report(self, city_names):
        engine = SearchEngine(city_names, backend="sequential")
        matches, report = engine.search(city_names[0], 1, report=True)
        assert isinstance(report, SearchReport)
        assert validate_report(report.to_dict()) == []
        assert report.backend == "sequential"
        assert report.mode == "search"
        assert report.queries == 1 and report.k == 1
        assert report.matches == len(matches)
        assert report.counters["scan.searches"] == 1
        assert report.counters["scan.candidates"] > 0
        assert report.batch is None

    def test_compiled_search_report(self, city_names):
        engine = SearchEngine(city_names, backend="compiled")
        _, report = engine.search(city_names[0], 1, report=True)
        assert validate_report(report.to_dict()) == []
        assert report.backend == "compiled"
        assert report.engine == "compiled-scan"
        assert report.counters["scan.kernel_calls"] > 0
        assert report.batch is not None      # served by the batch executor

    def test_indexed_search_report(self, city_names):
        engine = SearchEngine(city_names, backend="indexed")
        _, report = engine.search(city_names[0], 1, report=True)
        assert validate_report(report.to_dict()) == []
        assert report.backend == "indexed"
        assert report.counters["trie.searches"] == 1
        assert report.counters["trie.nodes_visited"] > 0

    def test_batch_index_report(self, dna_reads):
        engine = SearchEngine(dna_reads, backend="indexed")
        _, report = engine.search_many(dna_reads[:3], 2, report=True)
        assert validate_report(report.to_dict()) == []
        assert report.backend == "indexed"
        assert report.engine == "flat-index"
        assert report.mode == "batch"
        assert report.queries == 3
        assert report.counters["trie.nodes_visited"] > 0
        assert report.batch.queries_seen == 3

    def test_workload_report(self, city_names, city_workload):
        engine = SearchEngine(city_names)
        results, report = engine.run_workload(city_workload, report=True)
        assert validate_report(report.to_dict()) == []
        assert report.mode == "workload"
        assert report.queries == len(city_workload.queries)
        assert report.matches == results.total_matches

    def test_choice_section_carries_the_decision(self, dna_reads):
        engine = SearchEngine(dna_reads)
        engine.search(dna_reads[0], 2)
        report = engine.last_report.to_dict()
        choice = report["choice"]
        # The choice section now mirrors the per-call QueryPlan: it
        # names the strategy that actually served this call.
        assert choice["backend"] == report["backend"]
        assert "regime" in choice["reason"]
        assert report["plan"]["strategy"] == report["backend"]


class TestReportHistograms:
    """Every backend's report carries per-query latency quantiles."""

    EXPECTED = {
        "sequential": "scan.query_seconds",
        "compiled": "scan.query_seconds",
        "indexed": "trie.query_seconds",
    }

    @pytest.mark.parametrize("backend,series", sorted(EXPECTED.items()))
    def test_search_report_has_latency_quantiles(self, city_names,
                                                 backend, series):
        engine = SearchEngine(city_names, backend=backend)
        _, report = engine.search(city_names[0], 1, report=True)
        histograms = report.to_dict()["histograms"]
        assert series in histograms, sorted(histograms)
        cell = histograms[series]
        assert cell["count"] == 1
        assert cell["p50"] <= cell["p90"] <= cell["p99"]
        assert validate_report(report.to_dict()) == []

    def test_batch_index_report_has_latency_quantiles(self, dna_reads):
        engine = SearchEngine(dna_reads, backend="indexed")
        _, report = engine.search_many(dna_reads[:4], 2, report=True)
        cell = report.to_dict()["histograms"]["trie.query_seconds"]
        assert cell["count"] == 4

    def test_window_isolation(self, city_names):
        engine = SearchEngine(city_names, backend="sequential")
        engine.search(city_names[0], 1)
        engine.search_many(city_names[:5], 1)
        cell = engine.last_report.to_dict()["histograms"][
            "scan.query_seconds"]
        # only the 5 queries of the last call, not the earlier one
        assert cell["count"] == 5

    def test_work_profile_histograms_ride_along(self, city_names):
        engine = SearchEngine(city_names, backend="compiled")
        _, report = engine.search_many(city_names[:3], 1, report=True)
        histograms = report.to_dict()["histograms"]
        assert histograms["scan.candidates_per_query"]["count"] == 3
        assert histograms["scan.kernel_calls_per_query"]["count"] == 3


class TestPerCallWindows:
    def test_last_report_is_none_before_any_call(self, city_names):
        assert SearchEngine(city_names).last_report is None

    def test_report_holds_only_the_last_calls_work(self, city_names):
        engine = SearchEngine(city_names, backend="sequential")
        engine.search(city_names[0], 2)
        first = engine.last_report.counters["scan.candidates"]
        engine.search(city_names[0], 2)
        # cumulative counters keep growing; the window must not
        assert engine.last_report.counters["scan.candidates"] == first
        assert engine.searcher.counters_snapshot()["scan.candidates"] \
            == 2 * first

    def test_report_true_returns_the_same_object_as_last_report(
            self, city_names):
        engine = SearchEngine(city_names)
        _, report = engine.search(city_names[0], 1, report=True)
        assert report is engine.last_report

    def test_timed_workload_seconds_match_the_report(self, city_names):
        engine = SearchEngine(city_names)
        workload = Workload(tuple(city_names[:5]), 1, "report-test")
        _, seconds = engine.timed_workload(workload)
        assert engine.last_report.seconds == seconds


class TestServingBackendNeverStale:
    def test_forced_compiled_batch_on_an_indexed_engine(self, dna_reads):
        # Regression: after a caller forces the compiled path, the
        # report must describe the compiled executor, not the engine's
        # own batch index.
        from repro.core.planner import PlannerPolicy

        engine = SearchEngine(dna_reads, backend="indexed")
        engine.search_many(dna_reads[:2], 2)           # batch index
        engine.search_many(dna_reads[:4], 2,
                           plan=PlannerPolicy(strategy="compiled"))
        report = engine.last_report
        assert report.backend == "compiled"
        assert report.batch.queries_seen == 4
        assert "scan.kernel_calls" in report.counters
        assert "trie.nodes_visited" not in report.counters

    def test_switching_back_to_the_index(self, dna_reads):
        from repro.core.planner import PlannerPolicy

        engine = SearchEngine(dna_reads)
        engine.search_many(dna_reads[:4], 2,
                           plan=PlannerPolicy(strategy="compiled"))
        engine.search_many(dna_reads[:3], 2,
                           plan=PlannerPolicy(strategy="indexed"))
        report = engine.last_report
        assert report.backend == "indexed"
        assert report.batch.queries_seen == 3

    def test_no_batch_section_without_a_batch_executor(self, city_names):
        engine = SearchEngine(city_names, backend="sequential")
        assert engine.last_report is None
        engine.search(city_names[0], 1)
        assert engine.last_report.batch is None


class TestProcessPoolParity:
    def test_compiled_batch_counters_match_serial(self, city_names):
        queries = list(city_names[:6]) + [city_names[0]]
        serial = SearchEngine(city_names, backend="compiled")
        pooled = SearchEngine(city_names, backend="compiled",
                              runner=ProcessPoolRunner(processes=2))
        serial_results, serial_report = serial.search_many(
            queries, 2, report=True)
        pooled_results, pooled_report = pooled.search_many(
            queries, 2, report=True)
        assert serial_results == pooled_results
        # workers ship their counters home: the report must not lose
        # work done in child processes
        assert pooled_report.counters == serial_report.counters
        assert pooled_report.batch.to_dict() \
            == serial_report.batch.to_dict()

    def test_batch_index_counters_match_serial(self, dna_reads):
        queries = list(dna_reads[:5])
        serial = SearchEngine(dna_reads, backend="indexed")
        pooled = SearchEngine(dna_reads, backend="indexed",
                              runner=ProcessPoolRunner(processes=2))
        serial_results, serial_report = serial.search_many(
            queries, 2, report=True)
        pooled_results, pooled_report = pooled.search_many(
            queries, 2, report=True)
        assert serial_results == pooled_results
        assert pooled_report.counters == serial_report.counters

    def test_compiled_histograms_match_serial(self, city_names):
        # Work-profile histograms (candidates, kernel calls per query)
        # must be bucket-for-bucket identical across execution modes:
        # the parent records them from worker-shipped counters, so the
        # pool cannot lose or distort per-query observations. Latency
        # histograms are wall-clock, so only their sample counts match.
        queries = list(city_names[:6])
        serial = SearchEngine(city_names, backend="compiled")
        pooled = SearchEngine(city_names, backend="compiled",
                              runner=ProcessPoolRunner(processes=2))
        _, serial_report = serial.search_many(queries, 2, report=True)
        _, pooled_report = pooled.search_many(queries, 2, report=True)
        serial_hists = serial_report.to_dict()["histograms"]
        pooled_hists = pooled_report.to_dict()["histograms"]
        assert set(serial_hists) == set(pooled_hists)
        for name in ("scan.candidates_per_query",
                     "scan.kernel_calls_per_query"):
            assert pooled_hists[name] == serial_hists[name]
        assert pooled_hists["scan.query_seconds"]["count"] \
            == serial_hists["scan.query_seconds"]["count"] \
            == len(queries)

    def test_batch_index_histograms_match_serial(self, dna_reads):
        queries = list(dna_reads[:5])
        serial = SearchEngine(dna_reads, backend="indexed")
        pooled = SearchEngine(dna_reads, backend="indexed",
                              runner=ProcessPoolRunner(processes=2))
        _, serial_report = serial.search_many(queries, 2, report=True)
        _, pooled_report = pooled.search_many(queries, 2, report=True)
        serial_hists = serial_report.to_dict()["histograms"]
        pooled_hists = pooled_report.to_dict()["histograms"]
        for name in ("trie.nodes_per_query", "trie.symbols_per_query"):
            assert pooled_hists[name] == serial_hists[name]
        assert pooled_hists["trie.query_seconds"]["count"] \
            == serial_hists["trie.query_seconds"]["count"]

    def test_workers_ship_their_timers_home(self, city_names):
        # Satellite guarantee: per-scan timers measured inside worker
        # processes arrive in the parent registry via merge_timers —
        # the pooled run must time the same number of scans the serial
        # run does, not zero.
        queries = list(city_names[:6])
        serial = SearchEngine(city_names, backend="compiled",
                              observe=True)
        pooled = SearchEngine(city_names, backend="compiled",
                              observe=True,
                              runner=ProcessPoolRunner(processes=2))
        _, serial_report = serial.search_many(queries, 2, report=True)
        _, pooled_report = pooled.search_many(queries, 2, report=True)
        assert pooled_report.timers["scan.query"]["calls"] \
            == serial_report.timers["scan.query"]["calls"]
        assert pooled_report.timers["scan.query"]["seconds"] > 0


class TestObserveMode:
    def test_observe_creates_a_registry_and_fills_timers(self, city_names):
        engine = SearchEngine(city_names, backend="compiled", observe=True)
        assert isinstance(engine.metrics, MetricsRegistry)
        engine.search_many(city_names[:4], 1)
        report = engine.last_report
        assert "scan.query" in report.timers
        assert report.timers["scan.query"]["calls"] > 0
        assert engine.metrics.counters()["scan.kernel_calls"] > 0

    def test_caller_owned_registry(self, city_names):
        registry = MetricsRegistry()
        engine = SearchEngine(city_names, backend="sequential",
                              metrics=registry)
        engine.search(city_names[0], 1)
        assert engine.metrics is registry
        assert registry.timers()["scan.search"]["calls"] == 1

    def test_observe_off_means_no_registry_and_no_timers(self, city_names):
        engine = SearchEngine(city_names)
        engine.search(city_names[0], 1)
        assert engine.metrics is None
        assert dict(engine.last_report.timers) == {}


class TestOverheadGuard:
    def test_default_engine_adds_no_work_and_builds_reports_lazily(
            self, city_names, monkeypatch):
        # The one-call API must stay near-zero-cost when nobody asks
        # for reports: the engine does exactly its searcher's work,
        # counters flush once per search, and the report is built only
        # when read. Counted, not timed, so it holds on any machine.
        import repro.core.engine as engine_module

        built = []
        build = engine_module.build_report
        monkeypatch.setattr(engine_module, "build_report",
                            lambda **call: built.append(call) or build(**call))
        queries = list(city_names[:40])
        plain = SequentialScanSearcher(city_names, kernel="bitparallel",
                                       order="length")
        engine = SearchEngine(city_names, backend="sequential")
        for query in queries:
            assert engine.search(query, 2) == plain.search(query, 2)
        assert built == []
        totals = plain.counters_snapshot()
        assert totals["scan.searches"] == len(queries)
        assert engine.searcher.counters_snapshot() == totals
        assert engine.last_report is engine.last_report
        assert len(built) == 1
        assert engine.last_report.counters["scan.searches"] == 1
