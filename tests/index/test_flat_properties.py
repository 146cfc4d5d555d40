"""Property-based tests: the compiled trie is the object trie, faster.

Three-way equivalence under hypothesis on both of the paper's alphabet
regimes: for any dataset, query and threshold, the flat traversal
returns exactly what the brute-force reference and the object-trie
traversal return — with query alphabets deliberately larger than the
dataset's, so out-of-alphabet symbols (encoded as ``-1`` sentinels)
are exercised throughout. A dedicated property pins the work counters,
not just the results: freezing must never change how much the
algorithm does.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.alphabet import Alphabet
from repro.distance.levenshtein import edit_distance
from repro.index.compressed import CompressedTrie
from repro.index.flat import (
    FlatTrie,
    flat_similarity_search,
    flat_similarity_search_many,
)
from repro.index.traversal import TraversalStats, trie_similarity_search
from repro.index.trie import PrefixTrie

# City-like: short strings, query alphabet exceeds the dataset's.
city_datasets = st.lists(
    st.text(alphabet="abc", min_size=1, max_size=8),
    min_size=0, max_size=12,
)
city_queries = st.text(alphabet="abcd", max_size=8)

# DNA-like: longer strings over the competition's five symbols, with
# 'X' as the guaranteed stranger in queries.
dna_datasets = st.lists(
    st.text(alphabet="ACGNT", min_size=4, max_size=20),
    min_size=0, max_size=8,
)
dna_queries = st.text(alphabet="ACGNTX", max_size=20)

thresholds = st.integers(min_value=0, max_value=4)


def brute_force(dataset, query, k):
    return sorted({s for s in dataset if edit_distance(query, s) <= k})


class TestThreeWayEquivalence:
    @settings(max_examples=80)
    @given(city_datasets, city_queries, thresholds)
    def test_city_alphabet(self, dataset, query, k):
        flat = FlatTrie(dataset)
        actual = [m.string for m in flat_similarity_search(flat, query, k)]
        assert actual == brute_force(dataset, query, k)

    @settings(max_examples=60)
    @given(dna_datasets, dna_queries, thresholds)
    def test_dna_alphabet(self, dataset, query, k):
        flat = FlatTrie(dataset)
        actual = [m.string for m in flat_similarity_search(flat, query, k)]
        assert actual == brute_force(dataset, query, k)

    @settings(max_examples=60)
    @given(city_datasets, city_queries, thresholds)
    def test_uncompressed_equals_prefix_trie(self, dataset, query, k):
        flat = FlatTrie(dataset, compress=False)
        trie = PrefixTrie(dataset)
        assert (
            flat_similarity_search(flat, query, k)
            == trie_similarity_search(trie, query, k)
        )

    @settings(max_examples=60)
    @given(city_datasets, city_queries)
    def test_exact_lookup_at_k_zero(self, dataset, query):
        flat = FlatTrie(dataset)
        matches = flat_similarity_search(flat, query, 0)
        if query in dataset:
            assert [m.string for m in matches] == [query]
            assert (query in flat) and flat.count(query) == \
                dataset.count(query)
        else:
            assert matches == []
            assert query not in flat

    @settings(max_examples=60)
    @given(city_datasets, city_queries, thresholds)
    def test_duplicates_collapse_into_multiplicities(self, dataset,
                                                     query, k):
        doubled = dataset + dataset
        flat = FlatTrie(doubled)
        for match in flat_similarity_search(flat, query, k):
            assert match.multiplicity == doubled.count(match.string)

    @settings(max_examples=40)
    @given(dna_datasets, dna_queries, thresholds)
    def test_frequency_pruning_never_changes_results(self, dataset,
                                                     query, k):
        flat = FlatTrie(dataset, tracked_symbols="ACGNT",
                        case_insensitive_frequencies=False)
        pruned = flat_similarity_search(flat, query, k)
        unpruned = flat_similarity_search(flat, query, k,
                                          use_frequency_pruning=False)
        assert pruned == unpruned
        assert [m.string for m in pruned] == brute_force(dataset, query, k)


def one_at_a_time(flat, batch, k, **options):
    stats = [TraversalStats() for _ in batch]
    rows = [flat_similarity_search(flat, query, k, stats=one, **options)
            for query, one in zip(batch, stats)]
    return rows, [vars(one) for one in stats]


def all_at_once(flat, batch, k, **options):
    stats = [TraversalStats() for _ in batch]
    rows = flat_similarity_search_many(flat, batch, k, stats=stats,
                                       **options)
    return rows, [vars(one) for one in stats]


class TestBatchComposition:
    """A query's row and counters never depend on its batch-mates."""

    @settings(max_examples=80)
    @given(city_datasets, st.lists(city_queries, min_size=1, max_size=5),
           thresholds, st.booleans(), st.booleans(), st.booleans(),
           st.data())
    def test_city_batch_equals_one_at_a_time(self, dataset, queries, k,
                                              explicit, frequencies,
                                              pruning, data):
        # 'd' is a stranger to the dataset; the explicit alphabet's code
        # order is not code-point order.
        flat = FlatTrie(dataset,
                        alphabet=Alphabet("reversed", "dcba")
                        if explicit else None,
                        tracked_symbols="ab" if frequencies else None,
                        case_insensitive_frequencies=False)
        # Duplicates and a query shorter than k ride along, in any order.
        batch = data.draw(st.permutations(queries + queries[:1] + ["a"]))
        options = {"use_frequency_pruning": pruning}
        assert all_at_once(flat, batch, k, **options) \
            == one_at_a_time(flat, batch, k, **options)

    @settings(max_examples=40)
    @given(dna_datasets, st.lists(dna_queries, min_size=1, max_size=4),
           thresholds, st.data())
    def test_dna_batch_with_frequency_boxes(self, dataset, queries, k,
                                            data):
        flat = FlatTrie(dataset, tracked_symbols="ACGNT",
                        case_insensitive_frequencies=False)
        batch = data.draw(st.permutations(queries + [""]))
        assert all_at_once(flat, batch, k) == one_at_a_time(flat, batch, k)

    def test_empty_trie_and_empty_batch(self):
        empty = FlatTrie([])
        batch = ["", "a", "abc"]
        assert all_at_once(empty, batch, 2) == one_at_a_time(empty, batch, 2)
        assert flat_similarity_search_many(FlatTrie(["ab"]), [], 1) == []


class TestStatsParity:
    @settings(max_examples=60)
    @given(city_datasets, city_queries, thresholds)
    def test_city_counters_match_object_traversal(self, dataset, query, k):
        flat = FlatTrie(dataset)
        trie = CompressedTrie(dataset)
        flat_stats, trie_stats = TraversalStats(), TraversalStats()
        flat_matches = flat_similarity_search(flat, query, k,
                                              stats=flat_stats)
        trie_matches = trie_similarity_search(trie, query, k,
                                              stats=trie_stats)
        assert flat_matches == trie_matches
        assert vars(flat_stats) == vars(trie_stats)

    @settings(max_examples=40)
    @given(dna_datasets, dna_queries, thresholds)
    def test_dna_counters_match_with_frequency_pruning(self, dataset,
                                                       query, k):
        flat = FlatTrie(dataset, tracked_symbols="ACGNT",
                        case_insensitive_frequencies=False)
        trie = CompressedTrie(dataset, tracked_symbols="ACGNT",
                              case_insensitive_frequencies=False)
        flat_stats, trie_stats = TraversalStats(), TraversalStats()
        flat_matches = flat_similarity_search(flat, query, k,
                                              stats=flat_stats)
        trie_matches = trie_similarity_search(trie, query, k,
                                              stats=trie_stats)
        assert flat_matches == trie_matches
        assert vars(flat_stats) == vars(trie_stats)
