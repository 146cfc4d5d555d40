"""Noise-free gates on flat-trie construction: counts, not wall clock.

Two facts about set-up that a timing gate could only approximate and a
1-core runner can check exactly:

* no front door that serves from the flat trie constructs a single
  object :class:`~repro.index.node.TrieNode` on the way there — the
  arrays are built from the sorted strings, never through a pointer
  tree;
* building costs a small constant multiple of the finished trie in
  memory (the object-trie route peaked at about 21x).
"""

import gc
import random
import tracemalloc

import pytest

from repro import SearchEngine, Service
from repro.core.indexed import IndexedSearcher
from repro.core.request import PlannerPolicy
from repro.index.flat import FlatTrie
from repro.index.node import TrieNode

CITIES = ["Berlin", "Bern", "Bonn", "Ulm", "Bergen", "Hamburg", "Hamm"]


@pytest.fixture
def object_nodes(monkeypatch):
    """Counts every ``TrieNode`` constructed while the test runs."""
    built = []
    original = TrieNode.__init__

    def counting(self, label=""):
        built.append(label)
        original(self, label)

    monkeypatch.setattr(TrieNode, "__init__", counting)
    return built


class TestNoObjectNodes:
    def test_the_counter_counts(self, object_nodes):
        IndexedSearcher(CITIES, index="compressed")
        assert object_nodes

    def test_flat_trie(self, object_nodes):
        FlatTrie(CITIES)
        FlatTrie(CITIES, compress=False, tracked_symbols="AEIOU")
        assert object_nodes == []

    def test_indexed_searcher(self, object_nodes):
        searcher = IndexedSearcher(CITIES, index="flat")
        assert [m.string for m in searcher.search("Berlino", 2)] \
            == ["Berlin"]
        assert object_nodes == []

    def test_engine_batch(self, object_nodes):
        for plan in (None, PlannerPolicy(strategy="indexed")):
            results = SearchEngine(CITIES).search_many(
                ["Berlino", "Ulm"], 2, plan=plan)
            assert len(results) == 2
        assert object_nodes == []

    def test_sharded_service(self, object_nodes):
        result = Service(CITIES, shards=2).submit("Berlino", 2)
        assert [m.string for m in result.matches] == ["Berlin"]
        assert object_nodes == []


def test_build_peak_is_a_small_multiple_of_the_trie():
    rng = random.Random(15)
    reads = ["".join(rng.choices("ACGT", k=100)) for _ in range(5000)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        flat = FlatTrie(reads)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert flat.string_count == 5000
    assert peak - before <= 3 * (held - before)
