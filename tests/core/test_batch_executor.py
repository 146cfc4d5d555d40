"""The batch-executor contract, once, for every probe and runner.

``BatchScanExecutor`` and ``BatchIndexExecutor`` are one
``BatchExecutor`` with different probes, so everything that is not the
algorithm — row order, dedup, the memo, runner fan-out, deadlines,
bookkeeping — must hold identically for both, serial or pooled.
"""

import sys
import threading

import pytest

import repro.core.batch as batch_module
import repro.index.flat as flat_module
from repro.core.batch import BatchExecutor
from repro.core.deadline import Budget
from repro.core.engine import SearchEngine
from repro.core.planner import PlannerPolicy
from repro.core.sequential import SequentialScanSearcher
from repro.data.workload import Workload
from repro.exceptions import (
    DeadlineExceeded,
    InvalidThresholdError,
    ReproError,
)
from repro.index.batch import BatchIndexExecutor, TrieProbe
from repro.index.flat import FlatTrie
from repro.obs.tracing import Tracer
from repro.parallel.executor import ProcessPoolRunner, ThreadPoolRunner
from repro.scan.corpus import CompiledCorpus
from repro.scan.executor import BatchScanExecutor, ScanProbe

# Plain artifacts pickled to pool workers warn (asserted in
# tests/speed/test_segment.py); the contract here is the rows.
pytestmark = pytest.mark.filterwarnings(
    "ignore:pickling a:DeprecationWarning")

DATASET = ["Berlin", "Bern", "Ulm", "Hamburg", "Bremen", "Bonn", "Bern"]

PROBES = {
    "scan": lambda dataset, **options:
        BatchScanExecutor(CompiledCorpus(dataset), **options),
    "trie": lambda dataset, **options:
        BatchIndexExecutor(FlatTrie(dataset), **options),
}

RUNNERS = {
    "serial": lambda: None,
    "threads": lambda: ThreadPoolRunner(threads=3),
    "processes": lambda: ProcessPoolRunner(processes=2),
}


@pytest.fixture(params=sorted(PROBES))
def make_executor(request):
    return PROBES[request.param]


@pytest.fixture(params=sorted(RUNNERS))
def runner(request):
    return RUNNERS[request.param]()


def reference_rows(queries, k, dataset=DATASET):
    searcher = SequentialScanSearcher(dataset, kernel="reference")
    return [tuple(searcher.search(query, k)) for query in queries]


class TestProbeProtocol:
    def test_both_executors_are_the_core_with_a_probe(self):
        scan = PROBES["scan"](DATASET)
        trie = PROBES["trie"](DATASET)
        assert isinstance(scan, BatchExecutor)
        assert isinstance(trie, BatchExecutor)
        assert isinstance(scan.probe, ScanProbe)
        assert isinstance(trie.probe, TrieProbe)
        assert scan.probe.artifact is scan.corpus
        assert trie.probe.artifact is trie.flat

    def test_core_runs_any_probe(self):
        executor = BatchExecutor(TrieProbe(FlatTrie(DATASET)))
        assert list(executor.search_many(["Bern", "Ulm"], 1).rows) == \
            reference_rows(["Bern", "Ulm"], 1)


class TestSearchMany:
    def test_rows_in_input_order_with_duplicates(self, make_executor,
                                                 runner):
        executor = make_executor(DATASET)
        queries = ["Bern", "Ulm", "Bern", "zzz", "Bern", ""]
        results = executor.search_many(queries, 1, runner=runner)
        assert results.queries == tuple(queries)
        assert list(results.rows) == reference_rows(queries, 1)

    def test_deduplication_counted(self, make_executor, runner):
        executor = make_executor(DATASET)
        executor.search_many(["Bern"] * 10 + ["Ulm"], 1, runner=runner)
        assert executor.stats.queries_seen == 11
        assert executor.stats.unique_queries == 2
        assert executor.stats.deduplicated == 9
        assert executor.stats.scans_executed == 2

    def test_memo_spans_batches(self, make_executor, runner):
        executor = make_executor(DATASET)
        first = executor.search_many(["Bern", "Ulm"], 1, runner=runner)
        again = executor.search_many(["Bern", "Ulm"], 1, runner=runner)
        assert first == again
        assert executor.stats.cache_hits == 2
        assert executor.stats.scans_executed == 2

    def test_memo_keyed_by_threshold_too(self, make_executor, runner):
        executor = make_executor(DATASET)
        executor.search_many(["Bern", "Ulm"], 1, runner=runner)
        wider = executor.search_many(["Bern", "Ulm"], 2, runner=runner)
        assert list(wider.rows) == reference_rows(["Bern", "Ulm"], 2)
        assert executor.stats.scans_executed == 4

    def test_single_search_is_memoized_too(self, make_executor):
        executor = make_executor(DATASET)
        first = executor.search("Bern", 1)
        assert executor.search("Bern", 1) == first
        assert executor.search_many(["Bern"], 1).rows[0] == tuple(first)
        assert executor.stats.scans_executed == 1
        assert executor.stats.cache_hits == 2

    def test_cache_disabled(self, make_executor, runner):
        executor = make_executor(DATASET, cache_size=0)
        assert executor.cache is None
        executor.search_many(["Bern", "Ulm"], 1, runner=runner)
        executor.search_many(["Bern", "Ulm"], 1, runner=runner)
        assert executor.stats.scans_executed == 4
        assert executor.stats.cache_hits == 0

    def test_negative_cache_size_rejected(self, make_executor):
        with pytest.raises(ReproError):
            make_executor(DATASET, cache_size=-1)

    def test_invalid_threshold_rejected(self, make_executor):
        executor = make_executor(DATASET)
        with pytest.raises(InvalidThresholdError):
            executor.search_many(["Bern"], -1)
        with pytest.raises(InvalidThresholdError):
            executor.search("Bern", -1)

    def test_empty_batch(self, make_executor, runner):
        executor = make_executor(DATASET)
        assert len(executor.search_many([], 1, runner=runner)) == 0
        assert executor.stats.queries_seen == 0

    def test_run_workload_adapter(self, make_executor, runner):
        executor = make_executor(DATASET)
        workload = Workload(("Bern", "Ulm", "Bern"), 1, "adapter")
        results = executor.run_workload(workload, runner)
        assert list(results.rows) == reference_rows(workload.queries, 1)

    def test_constructor_runner_is_the_default(self, make_executor,
                                               runner):
        executor = make_executor(DATASET, runner=runner)
        queries = ["Bern", "Hamburk", "Bremen", "Ulm", "Bern"]
        assert list(executor.search_many(queries, 2).rows) == \
            reference_rows(queries, 2)

    def test_one_query_batch_with_a_runner_equals_serial(
            self, make_executor, runner, city_names):
        serial = make_executor(city_names, cache_size=0)
        fanned = make_executor(city_names, cache_size=0)
        query = city_names[0]
        assert fanned.search_many([query], 2, runner=runner) == \
            serial.search_many([query], 2)
        assert fanned.counters_snapshot() == serial.counters_snapshot()
        assert fanned.stats == serial.stats
        assert fanned.hists_snapshot().keys() == \
            serial.hists_snapshot().keys()
        for name, hist in fanned.hists_snapshot().items():
            assert hist.count == 1, name

    def test_pooled_counters_equal_serial_counters(
            self, make_executor, runner, city_names):
        queries = list(city_names[:8]) + [city_names[0], "zzz"]
        serial = make_executor(city_names, cache_size=0)
        pooled = make_executor(city_names, cache_size=0)
        assert pooled.search_many(queries, 2, runner=runner) == \
            serial.search_many(queries, 2)
        assert pooled.counters_snapshot() == serial.counters_snapshot()
        assert pooled.stats == serial.stats
        for name, hist in pooled.hists_snapshot().items():
            assert hist.count == serial.hists_snapshot()[name].count


class TestDeadline:
    def test_budget_expiry_gives_an_unmemoized_partial(
            self, make_executor, city_names):
        queries = list(city_names[:6])
        exact = dict(zip(queries, reference_rows(queries, 2, city_names)))
        # What the whole batch costs in this probe's work units; half
        # of it must expire somewhere in the middle.
        meter = Budget(10 ** 9, check_interval=16)
        make_executor(city_names).search_many(queries, 2, deadline=meter)
        executor = make_executor(city_names)
        warm = queries[0]
        assert tuple(executor.search(warm, 2)) == exact[warm]

        with pytest.raises(DeadlineExceeded) as raised:
            executor.search_many(
                queries, 2,
                deadline=Budget(meter.spent // 2, check_interval=16))
        error = raised.value
        assert error.scope == "queries"
        assert error.total == len(queries)
        partial = error.partial
        assert error.completed == len(partial)
        # Completed queries carry full rows (the memo hit included);
        # the in-flight one is dropped, not truncated.
        assert warm in partial
        assert 1 <= len(partial) < len(queries)
        for query, row in partial.items():
            assert row == exact[query]
        # Nothing partial reached the memo: a rerun is exact, and only
        # the completed queries are hits.
        scans = executor.stats.scans_executed
        assert scans == len(partial)
        rerun = executor.search_many(queries, 2)
        assert list(rerun.rows) == [exact[query] for query in queries]
        assert executor.stats.scans_executed == len(queries)

    def test_expired_single_search_is_a_subset_and_not_memoized(
            self, make_executor, city_names):
        executor = make_executor(city_names)
        query = city_names[0]
        exact = reference_rows([query], 2, city_names)[0]
        with pytest.raises(DeadlineExceeded) as raised:
            executor.search(query, 2,
                            deadline=Budget(32, check_interval=16))
        assert set(raised.value.partial) <= set(exact)
        assert executor.stats.scans_executed == 0
        assert tuple(executor.search(query, 2)) == exact
        assert executor.stats.cache_hits == 0


class TestOneDescentPerSerialBatch:
    """The trie probe sends a serial batch's misses down one descent."""

    @pytest.fixture
    def descents(self, monkeypatch):
        """Query counts of every flat-trie descent in this process."""
        calls = []
        descend = flat_module._descend

        def counted(flat, queries, *args):
            calls.append(len(queries))
            return descend(flat, queries, *args)

        monkeypatch.setattr(flat_module, "_descend", counted)
        return calls

    @staticmethod
    def misses(city_names, count=6):
        return list(dict.fromkeys(city_names))[:count]

    def test_serial_batch_descends_once(self, descents, city_names):
        queries = self.misses(city_names)
        executor = BatchIndexExecutor(FlatTrie(city_names))
        result = executor.search_many(queries + queries[:2], 2)
        assert descents == [len(queries)]
        assert list(result.rows) == reference_rows(
            queries + queries[:2], 2, city_names)

    @pytest.mark.parametrize("mode", ["search", "deadline", "threads"])
    def test_other_paths_descend_per_query(self, descents, city_names,
                                           mode):
        queries = self.misses(city_names)
        executor = BatchIndexExecutor(FlatTrie(city_names))
        if mode == "search":
            for query in queries:
                executor.search(query, 2)
        elif mode == "deadline":
            executor.search_many(queries, 2, deadline=Budget(10 ** 9))
        else:
            executor.search_many(queries, 2,
                                 runner=ThreadPoolRunner(threads=3))
        assert descents == [1] * len(queries)

    def test_process_pool_probes_per_query(self, city_names):
        # Worker descents are out of reach of a patch; their spans are
        # not: one ``index.probe`` span per query, against one for the
        # whole serial call.
        queries = self.misses(city_names)
        spans = {}
        for name, runner in (("serial", None),
                             ("processes", ProcessPoolRunner(processes=2))):
            tracer = Tracer()
            with tracer.root("test"):
                BatchIndexExecutor(FlatTrie(city_names)).search_many(
                    queries, 2, runner=runner)
            spans[name] = [dict(span.tags) for span in tracer.spans()
                           if span.name == "index.probe"]
        assert spans["serial"] == [{"queries": str(len(queries))}]
        assert sorted(tags["query"] for tags in spans["processes"]) \
            == sorted(queries)

    def test_bookkeeping_equals_one_at_a_time(self, city_names):
        queries = self.misses(city_names, 8)
        batched = BatchIndexExecutor(FlatTrie(city_names))
        alone = BatchIndexExecutor(FlatTrie(city_names))
        batched.search_many(queries + queries[:3], 2)
        for query in queries + queries[:3]:
            alone.search_many([query], 2)
        assert batched.counters_snapshot() == alone.counters_snapshot()
        assert batched.stats.scans_executed == alone.stats.scans_executed \
            == len(queries)
        assert batched.stats.queries_seen == alone.stats.queries_seen
        for name in ("trie.nodes_per_query", "trie.symbols_per_query"):
            assert batched.hists_snapshot()[name].to_dict() \
                == alone.hists_snapshot()[name].to_dict()

    def test_query_seconds_share_the_calls_wall_time(self, city_names,
                                                     monkeypatch):
        # A clock that advances one second per read: the descent call
        # reads it twice, so its wall time is exactly one second.
        ticks = iter(range(10 ** 6))
        monkeypatch.setattr(batch_module, "perf_counter",
                            lambda: float(next(ticks)))
        queries = self.misses(city_names)
        executor = BatchIndexExecutor(FlatTrie(city_names))
        executor.search_many(queries, 2)
        seconds = executor.hists_snapshot()["trie.query_seconds"]
        assert seconds.count == len(queries)
        assert seconds.total == pytest.approx(1.0)

    def test_budget_expiry_still_gives_a_query_scoped_partial(
            self, city_names):
        queries = self.misses(city_names)
        exact = dict(zip(queries, reference_rows(queries, 2, city_names)))
        meter = Budget(10 ** 9, check_interval=16)
        BatchIndexExecutor(FlatTrie(city_names)).search_many(
            queries, 2, deadline=meter)
        executor = BatchIndexExecutor(FlatTrie(city_names))
        with pytest.raises(DeadlineExceeded) as raised:
            executor.search_many(
                queries, 2,
                deadline=Budget(meter.spent // 2, check_interval=16))
        error = raised.value
        assert error.scope == "queries"
        assert 1 <= len(error.partial) < len(queries)
        for query, row in error.partial.items():
            assert row == exact[query]


class TestSharedAcrossThreads:
    THREADS = 4

    def test_stats_and_counters_survive_concurrent_search(
            self, make_executor, city_names):
        # BatchStats, the work counters and the histograms are all
        # read-modify-write state: four threads hammering one executor
        # must lose no update.
        executor = make_executor(city_names, cache_size=0)
        queries = list(city_names[:25])
        serial = make_executor(city_names, cache_size=0)
        for query in queries:
            serial.search(query, 1)
        failures = []

        def work():
            try:
                for query in queries:
                    executor.search(query, 1)
            except Exception as error:  # surfaced by the assert below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work)
                       for _ in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        total = self.THREADS * len(queries)
        assert executor.stats.queries_seen == total
        assert executor.stats.unique_queries == total
        assert executor.stats.scans_executed == total
        assert executor.counters_snapshot() == {
            name: value * self.THREADS
            for name, value in serial.counters_snapshot().items()}
        for hist in executor.hists_snapshot().values():
            assert hist.count == total

    @pytest.mark.parametrize("strategy", ["compiled", "indexed"])
    def test_report_batch_deltas_sum_to_the_executor_totals(
            self, strategy, city_names):
        engine = SearchEngine(city_names)
        policy = PlannerPolicy(strategy=strategy)
        batches = [list(city_names[:5]), list(city_names[3:9]) * 2,
                   [city_names[0]]]
        deltas = []
        for batch in batches:
            engine.search_many(batch, 1, plan=policy)
            deltas.append(engine.last_report.batch)
        executor, _, _ = engine._batch_executor_for(strategy)
        stats = executor.stats
        assert sum(d.queries_seen for d in deltas) == stats.queries_seen \
            == sum(len(batch) for batch in batches)
        assert sum(d.unique_queries for d in deltas) == \
            stats.unique_queries
        assert sum(d.cache_hits for d in deltas) == stats.cache_hits
        assert sum(d.scans_executed for d in deltas) == \
            stats.scans_executed
