"""Unit tests for the index-based searcher."""

import pytest

from repro.core.indexed import INDEX_KINDS, IndexedSearcher
from repro.distance.levenshtein import edit_distance
from repro.exceptions import ReproError

DATASET = ["Berlin", "Bern", "Ulm", "Hamburg", "Bremen", "Bern"]


def brute_force(query, k):
    return sorted({s for s in DATASET if edit_distance(query, s) <= k})


class TestIndexKinds:
    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_every_index_equals_brute_force(self, kind):
        searcher = IndexedSearcher(DATASET, index=kind)
        for query in ("Bern", "Berlln", "Ul", "zzz"):
            for k in (0, 1, 2, 3):
                actual = [m.string for m in searcher.search(query, k)]
                assert actual == brute_force(query, k), (kind, query, k)

    def test_unknown_index_rejected(self):
        with pytest.raises(ReproError):
            IndexedSearcher(DATASET, index="btree")

    def test_node_count_shrinks_under_compression(self):
        plain = IndexedSearcher(DATASET, index="trie")
        compressed = IndexedSearcher(DATASET, index="compressed")
        assert 0 < compressed.node_count < plain.node_count

    def test_qgram_has_no_trie_nodes(self):
        assert IndexedSearcher(DATASET, index="qgram").node_count == 0

    def test_kind_property(self):
        assert IndexedSearcher(DATASET, index="trie").kind == "trie"


class TestFrequencyPruning:
    def test_results_unchanged(self):
        plain = IndexedSearcher(DATASET, index="compressed")
        pruned = IndexedSearcher(DATASET, index="compressed",
                                 frequency_pruning=True,
                                 tracked_symbols="AEIOU")
        for query in ("Bern", "Bremen", "Ulm", "xxxx"):
            for k in (0, 1, 2):
                assert plain.search(query, k) == pruned.search(query, k)

    def test_requires_tracked_symbols(self):
        with pytest.raises(ReproError):
            IndexedSearcher(DATASET, index="trie", frequency_pruning=True)

    def test_incompatible_with_qgram(self):
        with pytest.raises(ReproError):
            IndexedSearcher(DATASET, index="qgram",
                            frequency_pruning=True,
                            tracked_symbols="AEIOU")

    def test_name_reflects_configuration(self):
        searcher = IndexedSearcher(DATASET, index="trie",
                                   frequency_pruning=True,
                                   tracked_symbols="AEIOU")
        assert "freq" in searcher.name


def search_delta(searcher, query, k):
    """(matches, this search's ``trie.*`` work) via snapshot deltas."""
    before = searcher.counters_snapshot()
    matches = searcher.search(query, k)
    after = searcher.counters_snapshot()
    return matches, {name: after[name] - before.get(name, 0)
                     for name in after}


class TestTraversalCounters:
    def test_counters_available_after_trie_search(self):
        searcher = IndexedSearcher(DATASET, index="trie")
        _, work = search_delta(searcher, "Bern", 1)
        assert work["trie.nodes_visited"] > 0

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_every_kind_reports_counters(self, kind):
        searcher = IndexedSearcher(DATASET, index=kind)
        matches, work = search_delta(searcher, "Bern", 1)
        assert work["trie.searches"] == 1
        assert work["trie.matches"] == len(matches)

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_delta_describes_one_search_only(self, kind):
        # Regression: a search must never report a previous search's
        # work — the bktree/qgram kinds used to leave their stats
        # untouched.
        searcher = IndexedSearcher(DATASET, index=kind)
        search_delta(searcher, "Bern", 2)
        _, idle = search_delta(searcher, "zzzzzzzz", 0)
        assert idle["trie.searches"] == 1
        assert idle["trie.matches"] == 0

    def test_bktree_counts_distance_computations(self):
        searcher = IndexedSearcher(DATASET, index="bktree")
        _, work = search_delta(searcher, "Bern", 1)
        assert work["trie.nodes_visited"] > 0

    def test_flat_counters_match_object_trie(self):
        flat = IndexedSearcher(DATASET, index="flat")
        compressed = IndexedSearcher(DATASET, index="compressed")
        flat_matches, flat_work = search_delta(flat, "Berlln", 2)
        matches, work = search_delta(compressed, "Berlln", 2)
        assert flat_matches == matches
        assert flat_work == work

    def test_counters_are_cumulative(self):
        searcher = IndexedSearcher(DATASET, index="trie")
        searcher.search("Bern", 1)
        searcher.search("Bern", 1)
        counters = searcher.counters_snapshot()
        assert counters["trie.searches"] == 2
        assert counters["trie.nodes_visited"] > 0


class TestWorkloadExecution:
    def test_workload_equals_reference(self, city_workload, city_names):
        from repro.core.sequential import SequentialScanSearcher
        from repro.core.verification import verify_result_sets

        reference = SequentialScanSearcher(
            city_names, kernel="reference"
        ).run_workload(city_workload)
        for kind in INDEX_KINDS:
            searcher = IndexedSearcher(city_names, index=kind)
            verify_result_sets(reference,
                               searcher.run_workload(city_workload),
                               candidate_name=kind)


class TestConcurrentSearch:
    def test_shared_flat_searcher_is_safe_across_threads(self):
        import threading

        dataset = [f"city{i:03d}" for i in range(60)] + list(DATASET)
        searcher = IndexedSearcher(dataset, index="flat")
        expected = {
            query: sorted(m.string for m in searcher.search(query, 2))
            for query in ("Bern", "Berlln", "city05", "zzz")
        }
        failures = []

        def worker():
            for _ in range(80):
                for query, answer in expected.items():
                    got = sorted(m.string
                                 for m in searcher.search(query, 2))
                    if got != answer:
                        failures.append((query, got))
                        return

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert failures == []

    def test_per_query_stats_stay_with_their_search(self):
        # One search is parked on its way out of the descent (on the
        # ``index.search`` timer's exit) while a second, far cheaper one
        # runs start to finish on the same searcher — what a service's
        # cached per-shard searcher sees under concurrent submits. Each
        # search must sample its *own* traversal into the per-query
        # histograms, so their totals are the counters' totals.
        import threading
        from contextlib import contextmanager

        descended = threading.Event()
        release = threading.Event()

        class ParkingTimers:
            @contextmanager
            def timer(self, name):
                yield
                if threading.current_thread() is parked:
                    descended.set()
                    assert release.wait(30)

        searcher = IndexedSearcher(DATASET, index="flat")
        searcher.attach_metrics(ParkingTimers())
        parked = threading.Thread(target=searcher.search,
                                  args=("Bern", 2))
        parked.start()
        assert descended.wait(30)
        assert searcher.search("zzzzzzzzzzzz", 0) == []
        release.set()
        parked.join(30)
        assert not parked.is_alive()

        counters = searcher.counters_snapshot()
        hists = searcher.hists_snapshot()
        assert hists["trie.nodes_per_query"].count == 2
        assert hists["trie.nodes_per_query"].total \
            == counters["trie.nodes_visited"]
        assert hists["trie.symbols_per_query"].total \
            == counters["trie.symbols_processed"]
