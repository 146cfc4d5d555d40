"""Unit tests for the batch index executor and its Searcher adapter."""

import sys
import threading

import pytest

from repro.core.sequential import SequentialScanSearcher
from repro.core.verification import verify_against_reference
from repro.data.workload import Workload
from repro.exceptions import VerificationError
from repro.index.batch import (
    BatchIndexExecutor,
    FlatIndexSearcher,
    probe_query,
)
from repro.index.flat import FlatTrie
from repro.parallel.executor import ProcessPoolRunner

DATASET = ["Berlin", "Bern", "Ulm", "Hamburg", "Bremen", "Bonn", "Bern"]


def reference_rows(queries, k):
    searcher = SequentialScanSearcher(DATASET, kernel="reference")
    return [tuple(searcher.search(query, k)) for query in queries]


class TestProbeQuery:
    def test_matches_reference_kernel(self):
        flat = FlatTrie(DATASET)
        for query in ("Bern", "Hamburk", "zzz", ""):
            for k in (0, 1, 2):
                assert tuple(probe_query(flat, query, k)) == \
                    reference_rows([query], k)[0]

    def test_frequency_pruning_does_not_change_results(self):
        # A trie built without tracked symbols carries no bounds, so
        # its descent runs with the pruning off.
        pruning = FlatTrie(DATASET, tracked_symbols="AEIOU")
        plain = FlatTrie(DATASET)
        for query in ("Bern", "Brln", "Hamburk"):
            assert probe_query(pruning, query, 2) == \
                probe_query(plain, query, 2)


class TestSharedExecutor:
    # The dedup/memo/fan-out contract both executors share lives in
    # tests/core/test_batch_executor.py.
    def test_process_fanout_through_the_searcher(self):
        # The flat trie is plain arrays, so it must survive pickling
        # into pool workers and answer identically there.
        searcher = FlatIndexSearcher(FlatTrie(DATASET), cache_size=0)
        queries = ["Bern", "Hamburk", "Bremen", "Ulm"]
        with pytest.warns(DeprecationWarning, match="pickling a flat trie"):
            fanned = searcher.search_many(
                queries, 2, runner=ProcessPoolRunner(processes=2)
            )
        assert list(fanned.rows) == reference_rows(queries, 2)

    def test_counters_are_work_counts_only(self):
        executor = BatchIndexExecutor(FlatTrie(DATASET), cache_size=0)
        executor.search("Bern", 1)
        first = executor.counters_snapshot()
        assert set(first) == {
            "trie.searches", "trie.nodes_visited", "trie.symbols_processed",
            "trie.branches_pruned_by_length",
            "trie.branches_pruned_by_frequency", "trie.matches"}
        executor.search_many(["Bern", "Bern"], 1)
        after = executor.counters_snapshot()
        # The repeat is deduplicated: one more descent, the same work.
        assert after == {name: 2 * value for name, value in first.items()}


class TestFlatIndexSearcher:
    def test_search_contract(self):
        searcher = FlatIndexSearcher(DATASET)
        for query in ("Berlino", "Bern", "zzz"):
            for k in (0, 1, 2):
                assert tuple(searcher.search(query, k)) == \
                    reference_rows([query], k)[0]

    def test_accepts_a_prebuilt_flat_trie(self):
        flat = FlatTrie(DATASET)
        searcher = FlatIndexSearcher(flat)
        assert searcher.flat_trie is flat
        assert searcher.executor.flat is flat

    def test_dataset_property_lists_distinct_strings(self):
        searcher = FlatIndexSearcher(DATASET)
        assert searcher.dataset == tuple(sorted(set(DATASET)))

    def test_search_many_matches_per_query_loop(self):
        searcher = FlatIndexSearcher(DATASET)
        queries = ["Bern", "Hamburk", "Bern", ""]
        batched = searcher.search_many(queries, 2)
        assert [list(row) for row in batched.rows] == [
            searcher.search(query, 2) for query in queries
        ]

    def test_verifies_against_reference(self):
        searcher = FlatIndexSearcher(DATASET)
        workload = Workload(("Bern", "Hamburk", "Ulm"), 2, "gate")
        results = verify_against_reference(searcher, DATASET, workload)
        assert results.queries == workload.queries

    def test_verification_catches_a_wrong_dataset(self):
        searcher = FlatIndexSearcher(
            [s for s in DATASET if s != "Bern"]
        )
        workload = Workload(("Bern",), 1, "gate")
        with pytest.raises(VerificationError):
            verify_against_reference(searcher, DATASET, workload)


def test_shared_executor_is_safe_across_threads(city_names):
    # Services cache one searcher per shard and run concurrent
    # submits through it: in-flight descents must neither share
    # state nor lose work counts.
    searcher = FlatIndexSearcher(city_names, cache_size=0)
    reference = SequentialScanSearcher(city_names)
    queries = [name[:-1] + "x" for name in city_names[:40]]
    expected = {query: reference.search(query, 2)
                for query in queries}
    wrong = []

    def work():
        for query in queries:
            if searcher.search(query, 2) != expected[query]:
                wrong.append(query)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    single = FlatIndexSearcher(city_names, cache_size=0)
    for query in queries:
        single.search(query, 2)
    alone = single.counters_snapshot()
    assert alone["trie.searches"] == len(queries)
    assert searcher.counters_snapshot() == {
        name: 4 * value for name, value in alone.items()}
