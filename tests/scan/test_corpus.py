"""Unit tests for the compiled corpus."""

import pickle

import numpy as np
import pytest

from repro.core.sequential import SequentialScanSearcher
from repro.data.alphabet import DNA_ALPHABET, Alphabet
from repro.exceptions import AlphabetError, ReproError
from repro.scan.corpus import (
    MAX_SYMBOL_GROUPS,
    CompiledCorpus,
    count_dtype,
    symbol_groups,
)
from repro.scan.executor import scan_query
from repro.speed import load_segment, save_segment


class TestCompilation:
    def test_duplicates_collapsed_first_occurrence_order(self):
        corpus = CompiledCorpus(["b", "a", "b", "c", "a"])
        assert corpus.strings == ("b", "a", "c")
        assert corpus.size == 3
        assert corpus.total_strings == 5

    def test_empty_strings_rejected(self):
        with pytest.raises(ReproError):
            CompiledCorpus(["ok", ""])

    def test_empty_corpus_is_legal(self):
        corpus = CompiledCorpus([])
        assert corpus.size == 0
        assert corpus.alphabet is None
        assert corpus.buckets == ()
        assert corpus.window(5, 2) == (0, 0)
        assert corpus.encode_query("abc") == (-1, -1, -1)

    def test_alphabet_inferred_from_data(self):
        corpus = CompiledCorpus(["ba", "ab"])
        assert corpus.alphabet is not None
        assert corpus.alphabet.symbols == "ab"

    def test_explicit_alphabet_validates(self):
        with pytest.raises(AlphabetError):
            CompiledCorpus(["ACGT", "HELLO"], alphabet=DNA_ALPHABET)

    def test_foreign_symbol_error_names_the_string(self):
        with pytest.raises(AlphabetError, match="'GAXA'"):
            CompiledCorpus(["ACGT", "GATT", "GAXA", "TTTT"],
                           alphabet=DNA_ALPHABET)

    def test_encoding_round_trips(self):
        corpus = CompiledCorpus(["GATT", "ACA"], alphabet=DNA_ALPHABET)
        for bucket in corpus.buckets:
            for string, codes in zip(bucket.strings, bucket.packed.codes):
                assert DNA_ALPHABET.decode(codes.tolist()) == string

    def test_codes_follow_alphabet_order_not_code_points(self):
        corpus = CompiledCorpus(["abcd", "dcba", "bd"],
                                alphabet=Alphabet("reversed", "dcba"))
        assert corpus.buckets[0].packed.codes.tolist() == [[2, 0]]
        assert corpus.buckets[1].packed.codes.tolist() == \
            [[3, 2, 1, 0], [0, 1, 2, 3]]

    def test_first_occurrence_order_inside_a_bucket(self):
        corpus = CompiledCorpus(["zz", "ab", "x", "ba", "ab", "mm"])
        assert corpus.buckets[1].strings == ("zz", "ab", "ba", "mm")
        assert [corpus.alphabet.decode(row.tolist())
                for row in corpus.buckets[1].packed.codes] == \
            ["zz", "ab", "ba", "mm"]

    def test_the_tuple_layout_is_gone(self):
        assert CompiledCorpus(["ab"], packed=True).size == 1
        with pytest.raises(ReproError, match="tuple layout"):
            CompiledCorpus(["ab"], packed=False)


class TestBuckets:
    def test_buckets_sorted_by_length(self):
        corpus = CompiledCorpus(["aaaa", "a", "aa", "bb", "ccc"])
        assert corpus.lengths == (1, 2, 3, 4)
        assert [len(b) for b in corpus.buckets] == [1, 2, 1, 1]
        assert corpus.min_length == 1
        assert corpus.max_length == 4

    def test_window_is_equation_five(self):
        corpus = CompiledCorpus(["a", "bb", "ccc", "dddd", "eeeee"])
        window = corpus.buckets_in_window(3, 1)
        assert [b.length for b in window] == [2, 3, 4]
        assert corpus.candidates_in_window(3, 1) == 3

    def test_window_outside_lengths_is_empty(self):
        corpus = CompiledCorpus(["aa", "bb"])
        assert corpus.buckets_in_window(10, 2) == ()

    def test_window_k_zero_is_exact_length(self):
        corpus = CompiledCorpus(["a", "bb", "ccc"])
        assert [b.length for b in corpus.buckets_in_window(2, 0)] == [2]


class TestFrequencyVectors:
    """The symbol-group counts the bag-distance select reads."""

    def test_tiny_alphabet_tracks_everything(self):
        corpus = CompiledCorpus(["ACCA"], alphabet=DNA_ALPHABET)
        assert corpus.group_of == (0, 1, 2, 3, 4)
        frequencies = corpus.buckets[0].frequencies
        assert frequencies.dtype == np.uint8
        assert frequencies.tolist() == [[2], [2], [0], [0], [0]]

    def test_sixteen_symbols_keep_one_group_each(self):
        symbols = "abcdefghijklmnop"
        corpus = CompiledCorpus(["aab", "ponm"],
                                alphabet=Alphabet("sixteen", symbols))
        assert corpus.group_of == tuple(range(16))
        assert corpus.group_counts.shape == (16, 2)
        assert corpus.group_counts[:, 0].tolist() == [2, 1] + [0] * 14

    def test_large_alphabet_folds_into_balanced_groups(self):
        # Seventeen symbols, q the most frequent: q opens group 0, the
        # others follow by code into the emptiest group (lowest first),
        # so p, the last, joins a in group 1.
        symbols = "abcdefghijklmnopq"
        corpus = CompiledCorpus([symbols, "qqq"])
        assert len(corpus.group_counts) == MAX_SYMBOL_GROUPS
        assert corpus.group_of == tuple(range(1, 16)) + (1, 0)
        # Columns follow bucket order: "qqq" first.
        assert corpus.group_counts[:, 0].tolist() == [3] + [0] * 15
        assert corpus.group_counts[:, 1].tolist() == [1, 2] + [1] * 14

    def test_balanced_and_deterministic_on_city_names(self, city_names):
        corpus = CompiledCorpus(city_names)
        again = CompiledCorpus(reversed(city_names))
        assert corpus.group_of == again.group_of
        assert len(set(corpus.group_of)) == MAX_SYMBOL_GROUPS
        totals = corpus.group_counts.sum(axis=1, dtype=np.int64)
        codes = np.concatenate([bucket.packed.codes.reshape(-1)
                                for bucket in corpus.buckets])
        heaviest = np.bincount(codes).max()
        # Greedy assignment in descending count: no two groups differ
        # by more than the most frequent symbol's count.
        assert totals.max() - totals.min() <= heaviest
        assert totals.sum() == sum(map(len, corpus.strings))

    def test_count_ties_break_by_code(self):
        counts = [5] * 20
        assert symbol_groups(counts).tolist() == \
            list(range(16)) + [0, 1, 2, 3]
        assert symbol_groups([1, 9] + [0] * 15).tolist()[:2] == [1, 0]

    def test_count_dtype_fits_the_longest_string(self):
        assert CompiledCorpus(["a" * 255]).group_counts.dtype == np.uint8
        wide = CompiledCorpus(["a" * 256, "ab"])
        assert wide.group_counts.dtype == np.uint16
        assert wide.row_lengths.tolist() == [2, 256]
        assert count_dtype(70_000) == np.uint32

    def test_layout_is_group_major_in_bucket_order(self):
        corpus = CompiledCorpus(["abc", "b", "cab", "bb", "ca"])
        assert corpus.offsets.tolist() == [0, 1, 3, 5]
        assert corpus.row_lengths.tolist() == [1, 2, 2, 3, 3]
        assert corpus.group_counts.tolist() == [
            [0, 0, 1, 1, 1],
            [1, 2, 0, 1, 1],
            [0, 0, 1, 1, 1],
        ]
        for bucket, start in zip(corpus.buckets, corpus.offsets.tolist()):
            # Bucket vectors are views, not copies.
            assert bucket.frequencies.base is not None
            assert np.shares_memory(bucket.frequencies, corpus.group_counts)
            assert np.array_equal(
                bucket.frequencies,
                corpus.group_counts[:, start:start + len(bucket)])

    def test_unused_alphabet_symbols_count_zero(self):
        corpus = CompiledCorpus(["ACCA", "GATT"], alphabet=DNA_ALPHABET)
        assert corpus.buckets[0].frequencies.tolist() == \
            [[2, 1], [2, 0], [0, 1], [0, 0], [0, 2]]

    def test_no_tracked_symbols_is_an_empty_matrix(self):
        corpus = CompiledCorpus([])
        assert corpus.group_of == ()
        assert corpus.group_counts.shape == (0, 0)
        assert scan_query(corpus, "abc", 2) == []


class TestWideAlphabet:
    """More than 65,536 distinct symbols need 32-bit codes."""

    @staticmethod
    def _symbols(count: int) -> str:
        points = (point for point in range(0x100, 0x110000)
                  if not 0xD800 <= point < 0xE000)
        return "".join(chr(next(points)) for _ in range(count))

    def test_seventy_thousand_symbols_compile_scan_and_round_trip(
            self, tmp_path):
        symbols = self._symbols(70_000)
        strings = [symbols[start:start + 7]
                   for start in range(0, len(symbols), 7)]
        corpus = CompiledCorpus(strings)
        assert corpus.alphabet.size == 70_000
        assert corpus.buckets[0].packed.codes.dtype == np.uint32
        path = str(tmp_path / "wide.seg")
        save_segment(corpus, path)
        loaded = load_segment(path)
        assert np.array_equal(loaded.buckets[0].packed.codes,
                              corpus.buckets[0].packed.codes)
        reference = SequentialScanSearcher(strings)
        for query, k in ((strings[-1], 0), (strings[5][:6], 1),
                         (strings[9999][1:] + symbols[0], 2)):
            expected = reference.search(query, k)
            assert expected
            assert scan_query(corpus, query, k) == expected
            assert scan_query(loaded, query, k) == expected


class TestQueryEncoding:
    def test_unknown_symbols_map_to_sentinel(self):
        corpus = CompiledCorpus(["ACGT"], alphabet=DNA_ALPHABET)
        assert corpus.encode_query("AXG") == (0, -1, 2)

    def test_picklable_for_process_pools(self):
        corpus = CompiledCorpus(["Bern", "Ulm"])
        clone = pickle.loads(pickle.dumps(corpus))
        assert clone.strings == corpus.strings
        assert clone.lengths == corpus.lengths
        assert clone.encode_query("Bern") == corpus.encode_query("Bern")

    def test_describe_reports_compile_facts(self):
        corpus = CompiledCorpus(["aa", "aa", "b"])
        facts = corpus.describe()
        assert facts["strings"] == 2
        assert facts["duplicates_collapsed"] == 1
        assert facts["buckets"] == 2
