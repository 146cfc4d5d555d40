"""Property tests: the sorted-LCP builder equals the object-trie freeze.

:class:`FlatTrie` is built straight from the sorted distinct strings
and their adjacent common-prefix lengths; the route it replaced
(insert into an object trie, compress, walk) survives as
``tests/index/flat_oracle.py``. For any multiset — duplicates, strings
that are prefixes of one another, a single string, nothing at all,
one-symbol alphabets — and every build configuration, the two must
agree on every array, so every descent, counter and answer is
unchanged by construction.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.alphabet import Alphabet, city_alphabet
from repro.exceptions import IndexConstructionError
from repro.index.batch import FlatIndexSearcher
from repro.index.flat import FlatTrie, flat_similarity_search
from repro.index.traversal import TraversalStats, trie_similarity_search
from repro.speed import load_segment, save_segment

from tests.index.flat_oracle import FIELDS, fields_of, freeze, object_trie

# Small alphabets force shared prefixes, nested strings and duplicates;
# "a" alone is the one-symbol regime (every string a prefix of the next).
multisets = st.one_of(
    st.lists(st.text(alphabet="abC", min_size=1, max_size=7), max_size=14),
    st.lists(st.text(alphabet="a", min_size=1, max_size=6), max_size=6),
    st.lists(st.text(alphabet="ACGNT", min_size=3, max_size=16),
             max_size=8),
)

#: Explicit alphabets: code-point order, and one whose code order is
#: *not* code-point order (lower case before upper case).
ALPHABETS = {
    "inferred": None,
    "monotone": Alphabet("monotone", "ACGNTabc"),
    "shuffled": Alphabet("shuffled", "cbaTNGCA"),
}

configurations = st.fixed_dictionaries({
    "compress": st.booleans(),
    "tracked_symbols": st.sampled_from([None, "", "A", "acg"]),
    "case_insensitive_frequencies": st.booleans(),
})


class TestArraysEqualTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(multisets, configurations, st.sampled_from(sorted(ALPHABETS)))
    def test_every_field(self, strings, config, alphabet_name):
        alphabet = ALPHABETS[alphabet_name]
        flat = FlatTrie(strings, alphabet=alphabet, **config)
        expected = freeze(object_trie(strings, **config), alphabet)
        found = fields_of(flat)
        for name in ("alphabet",) + FIELDS:
            assert found[name] == expected[name], name
        assert flat.string_count == len(strings)
        assert flat.max_depth == max(map(len, strings), default=0)

    def test_empty_dataset_keeps_an_explicit_alphabet(self):
        alphabet = ALPHABETS["monotone"]
        assert FlatTrie([], alphabet=alphabet).alphabet is alphabet
        assert FlatTrie([]).alphabet is None
        assert fields_of(FlatTrie([])) == freeze(object_trie([]))

    def test_single_string(self):
        for compress in (True, False):
            flat = FlatTrie(["Ulm"], compress=compress)
            assert fields_of(flat) == freeze(
                object_trie(["Ulm"], compress=compress))
            assert flat.node_count == (2 if compress else 4)


class TestDescentsAreUnchanged:
    @settings(max_examples=120, deadline=None)
    @given(multisets, configurations, st.text(alphabet="abCAGTx", max_size=9),
           st.integers(min_value=0, max_value=3))
    def test_stats_equal_the_object_traversal(self, strings, config,
                                              query, k):
        flat_stats, object_stats = TraversalStats(), TraversalStats()
        found = flat_similarity_search(FlatTrie(strings, **config),
                                       query, k, stats=flat_stats)
        expected = trie_similarity_search(object_trie(strings, **config),
                                          query, k, stats=object_stats)
        assert found == expected
        assert flat_stats == object_stats

    @settings(max_examples=60, deadline=None)
    @given(multisets, st.sampled_from(sorted(ALPHABETS)))
    def test_exact_lookup_under_any_alphabet(self, strings, alphabet_name):
        flat = FlatTrie(strings, alphabet=ALPHABETS[alphabet_name])
        assert list(flat) == sorted(set(strings))
        for string in set(strings):
            assert string in flat
            assert flat.count(string) == strings.count(string)
            assert string + "x" not in flat


class TestLookupWithExplicitAlphabet:
    """Siblings are ordered by symbol; the bisect used to run by code."""

    STRINGS = ["a1", "0b", "Zed", "zed", "b2"]

    def test_city_alphabet(self):
        flat = FlatTrie(self.STRINGS, alphabet=city_alphabet())
        assert all(string in flat for string in self.STRINGS)
        assert [flat.count(s) for s in self.STRINGS] == [1] * 5
        assert "zeb" not in flat and flat.count("Ze") == 0
        assert list(flat) == sorted(self.STRINGS)
        assert fields_of(flat) == freeze(object_trie(self.STRINGS),
                                         city_alphabet())

    def test_through_the_searcher(self):
        searcher = FlatIndexSearcher(self.STRINGS,
                                     alphabet=city_alphabet())
        assert all(string in searcher.flat_trie for string in self.STRINGS)
        for string in self.STRINGS:
            assert [m.string for m in searcher.search(string, 0)] \
                == [string]


class TestConstructionErrors:
    @pytest.mark.parametrize("compress", [True, False])
    def test_empty_string_is_rejected(self, compress):
        with pytest.raises(IndexConstructionError):
            FlatTrie(["Bern", "", "Ulm"], compress=compress)

    @pytest.mark.parametrize("compress", [True, False])
    def test_symbol_outside_an_explicit_alphabet(self, compress):
        with pytest.raises(IndexConstructionError, match="'X'.*'dna'"):
            FlatTrie(["ACGT", "ACXT"], compress=compress,
                     alphabet=Alphabet("dna", "ACGNT"))


class TestSegmentRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(multisets.filter(bool), st.sampled_from([None, "acg"]))
    def test_saved_and_loaded_trie_is_unchanged(self, tmp_path_factory,
                                                strings, tracked):
        flat = FlatTrie(strings, tracked_symbols=tracked)
        path = tmp_path_factory.mktemp("segment") / "trie.rseg"
        loaded = load_segment(save_segment(flat, path))
        before, after = fields_of(flat), fields_of(loaded)
        for name in ("alphabet",) + FIELDS:
            if before[name] is None or isinstance(before[name],
                                                  (str, int, bool)):
                assert after[name] == before[name], name
            else:
                assert tuple(after[name]) == before[name], name
        assert all(string in loaded for string in strings)
        stats_before, stats_after = TraversalStats(), TraversalStats()
        assert flat_similarity_search(loaded, strings[0], 2,
                                      stats=stats_after) \
            == flat_similarity_search(flat, strings[0], 2,
                                      stats=stats_before)
        assert stats_after == stats_before
