"""Unit tests for result values."""

import pytest

from repro.core.result import Match, ResultSet


class TestMatch:
    def test_ordering_by_string_then_distance(self):
        assert Match("a", 2) < Match("b", 0)
        assert Match("a", 1) < Match("a", 2)

    def test_equality(self):
        assert Match("x", 1) == Match("x", 1)
        assert Match("x", 1) != Match("x", 2)


class TestResultSet:
    def test_rows_are_sorted_on_construction(self):
        results = ResultSet(["q"], [[Match("b", 1), Match("a", 0)]])
        assert results.strings_for(0) == ("a", "b")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ResultSet(["q1", "q2"], [[]])

    def test_equality_same_content(self):
        a = ResultSet(["q"], [[Match("x", 1)]])
        b = ResultSet(["q"], [[Match("x", 1)]])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_different_distance(self):
        a = ResultSet(["q"], [[Match("x", 1)]])
        b = ResultSet(["q"], [[Match("x", 2)]])
        assert a != b

    def test_inequality_different_query_order(self):
        a = ResultSet(["q1", "q2"], [[], []])
        b = ResultSet(["q2", "q1"], [[], []])
        assert a != b

    def test_iteration(self):
        results = ResultSet(["q1", "q2"], [[Match("a", 0)], []])
        pairs = list(results)
        assert pairs[0] == ("q1", (Match("a", 0),))
        assert pairs[1] == ("q2", ())

    def test_total_matches(self):
        results = ResultSet(["q1", "q2"],
                            [[Match("a", 0), Match("b", 1)], []])
        assert results.total_matches == 2

    def test_by_query_keeps_match_rows(self):
        results = ResultSet(["q1", "q2"], [[Match("a", 0)], []])
        assert results.by_query() == {
            "q1": (Match("a", 0),),
            "q2": (),
        }

    def test_by_query_last_row_wins_for_repeats(self):
        results = ResultSet(["q", "q"], [[Match("a", 0)], []])
        assert results.by_query() == {"q": ()}

    def test_flat_merges_and_dedups(self):
        results = ResultSet(
            ["q1", "q2"],
            [[Match("b", 1), Match("a", 0)], [Match("a", 0)]],
        )
        assert results.flat() == (Match("a", 0), Match("b", 1))

    def test_repeated_queries_keep_separate_rows(self):
        results = ResultSet(["q", "q"], [[Match("a", 0)], []])
        assert len(results) == 2
        assert results.strings_for(0) == ("a",)
        assert results.strings_for(1) == ()

    def test_repr(self):
        results = ResultSet(["q"], [[Match("a", 0)]])
        assert "queries=1" in repr(results)
