"""Unit tests for the compiled flat-array trie."""

import pytest

from repro.data.alphabet import Alphabet
from repro.distance.levenshtein import edit_distance
from repro.exceptions import InvalidThresholdError
from repro.index.compressed import CompressedTrie
from repro.index.flat import FlatTrie, flat_similarity_search
from repro.index.traversal import TraversalStats, trie_similarity_search
from repro.index.trie import PrefixTrie

CITY_SAMPLE = ["Berlin", "Bern", "Ulm", "Bergen", "Hamburg", "Hamm"]
DNA_SAMPLE = ["ACGTACGT", "ACGTTTTT", "TTTTACGT", "ACGNACGN"]


class TestConstruction:
    def test_freezes_compressed_trie_by_default(self):
        flat = FlatTrie(CITY_SAMPLE)
        reference = CompressedTrie(CITY_SAMPLE)
        assert flat.node_count == reference.node_count

    def test_freezes_plain_trie_when_uncompressed(self):
        flat = FlatTrie(CITY_SAMPLE, compress=False)
        reference = PrefixTrie(CITY_SAMPLE)
        assert flat.node_count == reference.node_count

    def test_enumeration_is_sorted_and_distinct(self):
        flat = FlatTrie(["Ulm", "Bern", "Ulm", "Aachen"])
        assert list(flat) == ["Aachen", "Bern", "Ulm"]
        # len counts multiplicities, like the object tries it freezes.
        assert len(flat) == 4
        assert flat.string_count == 4

    def test_duplicates_become_multiplicities(self):
        flat = FlatTrie(["Ulm", "Ulm", "Bern"])
        assert dict(flat.iter_with_counts()) == {"Ulm": 2, "Bern": 1}
        assert flat.count("Ulm") == 2
        assert flat.count("Bonn") == 0

    def test_membership(self):
        flat = FlatTrie(CITY_SAMPLE)
        assert "Berlin" in flat
        assert "Berli" not in flat
        assert "Berlins" not in flat

    def test_empty_corpus(self):
        flat = FlatTrie([])
        assert len(flat) == 0
        assert "anything" not in flat
        assert flat_similarity_search(flat, "anything", 3) == []

    def test_alphabet_inferred_from_labels(self):
        flat = FlatTrie(DNA_SAMPLE)
        assert flat.alphabet is not None
        assert set("ACGNT") <= set(flat.alphabet.symbols)

    def test_explicit_alphabet_accepted(self):
        alphabet = Alphabet("dna", "ACGNT")
        flat = FlatTrie(DNA_SAMPLE, alphabet=alphabet)
        assert flat.alphabet is alphabet

    def test_describe_reports_layout(self):
        description = FlatTrie(CITY_SAMPLE).describe()
        assert description["nodes"] == flat_node_count(CITY_SAMPLE)
        assert description["strings"] == len(set(CITY_SAMPLE))

    def test_repr_is_informative(self):
        assert "FlatTrie" in repr(FlatTrie(CITY_SAMPLE))


def flat_node_count(strings):
    return CompressedTrie(strings).node_count


class TestQueryEncoding:
    def test_known_symbols_encode_densely(self):
        flat = FlatTrie(DNA_SAMPLE)
        encoded = flat.encode_query("ACGT")
        assert len(encoded) == 4
        assert all(code >= 0 for code in encoded)

    def test_out_of_alphabet_symbols_become_sentinels(self):
        flat = FlatTrie(DNA_SAMPLE)
        encoded = flat.encode_query("AXGT")
        assert encoded[1] == -1
        assert encoded[0] >= 0

    def test_stranger_symbols_still_search_correctly(self):
        flat = FlatTrie(DNA_SAMPLE)
        matches = flat_similarity_search(flat, "XCGTACGT", 1)
        assert [m.string for m in matches] == ["ACGTACGT"]


class TestSearch:
    def test_exact_match_at_k_zero(self):
        flat = FlatTrie(CITY_SAMPLE)
        matches = flat_similarity_search(flat, "Bern", 0)
        assert [m.string for m in matches] == ["Bern"]
        assert matches[0].distance == 0

    def test_fuzzy_query_matches_object_traversal(self):
        flat = FlatTrie(CITY_SAMPLE)
        trie = CompressedTrie(CITY_SAMPLE)
        for query in ("Berlino", "Hamm", "Ulms", "xxxx", ""):
            for k in (0, 1, 2, 3):
                assert (
                    flat_similarity_search(flat, query, k)
                    == trie_similarity_search(trie, query, k)
                ), (query, k)

    def test_uncompressed_matches_object_traversal(self):
        flat = FlatTrie(CITY_SAMPLE, compress=False)
        trie = PrefixTrie(CITY_SAMPLE)
        for query in ("Berlino", "Bergen", ""):
            for k in (0, 2):
                assert (
                    flat_similarity_search(flat, query, k)
                    == trie_similarity_search(trie, query, k)
                )

    def test_distances_are_exact(self):
        flat = FlatTrie(CITY_SAMPLE)
        for match in flat_similarity_search(flat, "Hamburh", 3):
            assert match.distance == edit_distance("Hamburh", match.string)

    def test_multiplicity_reported(self):
        flat = FlatTrie(["Ulm", "Ulm", "Bern"])
        (match,) = flat_similarity_search(flat, "Ulm", 0)
        assert match.multiplicity == 2

    def test_empty_query(self):
        flat = FlatTrie(["a", "ab", "abc"])
        matches = flat_similarity_search(flat, "", 2)
        assert [m.string for m in matches] == ["a", "ab"]

    def test_invalid_threshold(self):
        with pytest.raises(InvalidThresholdError):
            flat_similarity_search(FlatTrie(["a"]), "a", -1)

    def test_repeated_searches_are_stable(self):
        flat = FlatTrie(CITY_SAMPLE)
        first = flat_similarity_search(flat, "Berlino", 2)
        second = flat_similarity_search(flat, "Hamm", 3)
        assert flat_similarity_search(flat, "Berlino", 2) == first
        assert flat_similarity_search(flat, "Hamm", 3) == second


class TestStatsParity:
    """The flat traversal must do *exactly* the object traversal's work.

    Identical results are necessary but not sufficient — the point of
    the flat layout is to run the same algorithm faster, so every
    counter must match on the same topology.
    """

    def _parity(self, strings, queries, ks, *, tracked=None,
                frequency=False):
        flat = FlatTrie(strings, tracked_symbols=tracked,
                        case_insensitive_frequencies=False)
        trie = CompressedTrie(strings, tracked_symbols=tracked,
                              case_insensitive_frequencies=False)
        for query in queries:
            for k in ks:
                flat_stats = TraversalStats()
                trie_stats = TraversalStats()
                flat_matches = flat_similarity_search(
                    flat, query, k, stats=flat_stats,
                    use_frequency_pruning=frequency,
                )
                trie_matches = trie_similarity_search(
                    trie, query, k, stats=trie_stats,
                    use_frequency_pruning=frequency,
                )
                assert flat_matches == trie_matches, (query, k)
                assert vars(flat_stats) == vars(trie_stats), (query, k)

    def test_city_fixture(self):
        self._parity(CITY_SAMPLE,
                     ["Bern", "Berlino", "Hamm", "zzz", ""],
                     (0, 1, 2, 3))

    def test_dna_fixture(self):
        self._parity(DNA_SAMPLE,
                     ["ACGTACGT", "ACGT", "TTTT", "XXXXXXXX"],
                     (0, 2, 4))

    def test_frequency_pruning_parity(self):
        self._parity(["AAAAAAA", "TTTTTTT", "ATATATA"],
                     ["AAAAAAA", "TTTTTTT"], (0, 2),
                     tracked="AT", frequency=True)

    def test_length_pruning_counted_identically(self):
        strings = ["x" * 30, "ab"]
        flat = FlatTrie(strings)
        stats = TraversalStats()
        flat_similarity_search(flat, "ab", 1, stats=stats)
        assert stats.branches_pruned_by_length >= 1
        assert stats.symbols_processed < 30

    def test_frequency_pruning_cuts_branches(self):
        flat = FlatTrie(["AAAAAAA", "TTTTTTT"], tracked_symbols="AT",
                        case_insensitive_frequencies=False)
        assert flat.has_frequencies
        stats = TraversalStats()
        matches = flat_similarity_search(flat, "AAAAAAA", 2, stats=stats)
        assert [m.string for m in matches] == ["AAAAAAA"]
        assert stats.branches_pruned_by_frequency >= 1
