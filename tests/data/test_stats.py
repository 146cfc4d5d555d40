"""Unit tests for dataset statistics."""

from os.path import commonprefix

from repro.data.stats import adjacent_lcp, describe, length_histogram

import pytest


class TestDescribe:
    def test_basic_statistics(self):
        stats = describe(["ab", "abcd", "abcdef"])
        assert stats.count == 3
        assert stats.min_length == 2
        assert stats.max_length == 6
        assert stats.mean_length == 4.0
        assert stats.median_length == 4.0
        assert stats.total_symbols == 12

    def test_alphabet_size(self):
        stats = describe(["aab", "bcc"])
        assert stats.alphabet_size == 3

    def test_even_count_median(self):
        stats = describe(["a", "ab", "abc", "abcd"])
        assert stats.median_length == 2.5

    def test_most_common_symbols(self):
        stats = describe(["aaab", "aab"])
        assert stats.most_common_symbols[0] == ("a", 5)

    def test_empty_dataset(self):
        stats = describe([])
        assert stats.count == 0
        assert stats.alphabet_size == 0
        assert stats.mean_length == 0.0

    def test_table_row_format(self):
        stats = describe(["Berlin", "Bern"])
        row = stats.table_row("City names", (0, 1, 2, 3))
        assert "City names" in row
        assert "0, 1, 2, 3" in row


class TestLengthHistogram:
    def test_buckets(self):
        histogram = length_histogram(["a", "ab", "abcdefgh"],
                                     bucket_width=4)
        assert histogram[range(0, 4)] == 2
        assert histogram[range(8, 12)] == 1

    def test_counts_sum_to_dataset_size(self):
        strings = ["x" * n for n in (1, 3, 7, 9, 15, 16)]
        histogram = length_histogram(strings, bucket_width=8)
        assert sum(histogram.values()) == len(strings)

    def test_empty_dataset(self):
        assert length_histogram([]) == {}

    def test_invalid_bucket_width(self):
        with pytest.raises(ValueError):
            length_histogram(["a"], bucket_width=0)


class TestAdjacentLcp:
    def test_sorted_neighbours(self):
        assert adjacent_lcp(["Berlin", "Bern", "Ulm"]) == [0, 3, 0]
        assert adjacent_lcp([]) == []
        assert adjacent_lcp(["Ulm"]) == [0]

    def test_prefixes_duplicates_and_shrinking_overlap(self):
        # The previous pair's overlap is only a guess for the next one:
        # it must be clipped to the shorter string and dropped when the
        # guessed stretch differs.
        strings = ["a", "ab", "ab", "abcde", "abcdf", "abd", "b", "bcdef",
                   "bcdeg", "bd", "bdaaa", "c"]
        expected = [0] + [len(commonprefix(pair))
                          for pair in zip(strings, strings[1:])]
        assert adjacent_lcp(strings) == expected
