"""Unit tests for the batch scan executor and its LRU memo."""

import pytest

from repro.core.result import Match
from repro.core.sequential import SequentialScanSearcher
from repro.distance.levenshtein import edit_distance
from repro.exceptions import InvalidThresholdError, ReproError
from repro.parallel.executor import SerialRunner, ThreadPoolRunner
from repro.core.cache import LRUCache
from repro.scan.corpus import CompiledCorpus
from repro.scan.executor import BatchScanExecutor, scan_query

DATASET = ["Berlin", "Bern", "Ulm", "Hamburg", "Bremen", "Bonn"]


def reference_rows(queries, k):
    searcher = SequentialScanSearcher(DATASET, kernel="reference")
    return [tuple(searcher.search(query, k)) for query in queries]


class TestScanQuery:
    def test_matches_reference_kernel(self):
        corpus = CompiledCorpus(DATASET)
        for query in ("Bern", "Hamburk", "zzz", ""):
            for k in (0, 1, 2):
                assert tuple(scan_query(corpus, query, k)) == \
                    reference_rows([query], k)[0]

    def test_bucket_slice_restriction(self):
        corpus = CompiledCorpus(DATASET)
        full = scan_query(corpus, "Bern", 2)
        lo, hi = corpus.window(4, 2)
        parts = []
        for index in range(lo, hi):
            parts.extend(scan_query(corpus, "Bern", 2,
                                    lo=index, hi=index + 1))
        assert sorted(parts) == full

    def test_invalid_threshold_rejected(self):
        with pytest.raises(InvalidThresholdError):
            scan_query(CompiledCorpus(DATASET), "Bern", -1)

    def test_frequency_filter_does_not_change_results(self):
        # The bag-distance select rejects rows here, and every row it
        # keeps or drops agrees with the plain DP.
        corpus = CompiledCorpus(DATASET)
        for query in ("Bern", "Brln", "Hamburk", "Bxrn"):
            for k in (1, 2, 3):
                counters: dict = {}
                found = scan_query(corpus, query, k, counters=counters)
                assert found == sorted(
                    Match(string, edit_distance(query, string))
                    for string in DATASET
                    if edit_distance(query, string) <= k)
                assert counters["scan.freq_rejects"] > 0


class TestBucketFanout:
    # Everything the scan shares with the trie side lives in
    # tests/core/test_batch_executor.py; only the scan probe can split
    # one query's bucket window across a runner.
    def test_single_query_bucket_fanout(self):
        executor = BatchScanExecutor(CompiledCorpus(DATASET), cache_size=0)
        chunked = executor.search_many(
            ["Bern"], 2, runner=ThreadPoolRunner(threads=4)
        )
        assert list(chunked.rows) == reference_rows(["Bern"], 2)

    def test_single_query_fanout_serial_runner(self):
        executor = BatchScanExecutor(CompiledCorpus(DATASET), cache_size=0)
        result = executor.search_many(["Bern"], 2, runner=SerialRunner())
        assert list(result.rows) == reference_rows(["Bern"], 2)

    def test_chunks_partition_the_window(self):
        corpus = CompiledCorpus(DATASET)
        probe = BatchScanExecutor(corpus).probe
        lo, hi = corpus.window(4, 2)
        for workers in (1, 2, 3, 16):
            chunks = probe.chunks(corpus, "Bern", 2, workers)
            assert len(chunks) == min(workers, hi - lo)
            assert chunks[0][0] == lo and chunks[-1][1] == hi
            assert all(left[1] == right[0]
                       for left, right in zip(chunks, chunks[1:]))


class TestBatchAmortization:
    def test_repeated_mix_costs_its_distinct_queries(self):
        # Three times the queries, once the work: each repeat is served
        # by the scan of its first occurrence, so the work counters
        # equal those of the distinct queries alone.
        distinct = ["Bern", "Hamburk", "Ulm", "Bonn"]
        mixed = BatchScanExecutor(CompiledCorpus(DATASET))
        alone = BatchScanExecutor(CompiledCorpus(DATASET))
        repeated = mixed.search_many(distinct * 3, 2)
        assert list(repeated.rows) == reference_rows(distinct, 2) * 3
        alone.search_many(distinct, 2)
        assert mixed.stats.queries_seen == 3 * len(distinct)
        assert mixed.stats.unique_queries == len(distinct)
        assert mixed.stats.scans_executed == len(distinct)
        assert mixed.counters_snapshot() == alone.counters_snapshot()
        assert mixed.counters_snapshot()["scan.kernel_calls"] > 0


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1       # refresh "a"
        cache.put("c", 3)                # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_counters(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.hits == 1
        assert cache.misses == 1

    def test_refresh_on_put(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)               # refresh, no eviction
        cache.put("c", 3)                # evicts "b"
        assert sorted(cache.keys()) == ["a", "c"]
        assert cache.get("a") == 10

    def test_zero_capacity_rejected(self):
        with pytest.raises(ReproError):
            LRUCache(maxsize=0)

    def test_clear(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0

    def test_pickles_to_cold_cache(self):
        import pickle

        cache = LRUCache(maxsize=2)
        cache.put("a", Match("x", 1))
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == 0
        clone.put("b", 2)                # lock restored and usable
        assert clone.get("b") == 2
