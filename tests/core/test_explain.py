"""Unit tests for pair explanation."""

import random

import pytest

from repro.core.explain import explain_pair
from repro.exceptions import InvalidThresholdError
from repro.scan.corpus import CompiledCorpus
from repro.scan.executor import scan_query


class TestExplainPair:
    def test_matching_pair(self):
        explanation = explain_pair("Bern", "Berlin", 2)
        assert explanation.matched
        assert explanation.distance == 2
        assert explanation.length_filter
        assert explanation.script  # non-exact match carries a script

    def test_exact_match_has_empty_script(self):
        explanation = explain_pair("Ulm", "Ulm", 0)
        assert explanation.matched
        assert explanation.distance == 0
        assert explanation.script == ()

    def test_length_rejected_pair(self):
        explanation = explain_pair("ab", "abcdefgh", 2)
        assert not explanation.matched
        assert not explanation.length_filter

    def test_frequency_bound_reported(self):
        explanation = explain_pair("Berlin", "Brln", 1)
        bound, rejects = explanation.frequency_bound
        assert bound == 2
        assert rejects  # 2 > k=1

    def test_frequency_bound_tracks_every_symbol(self):
        # No vowel changed: only a whole-alphabet bag sees the loss.
        bound, rejects = explain_pair("Brandt", "Brant", 0).frequency_bound
        assert (bound, rejects) == (1, True)
        # Case-sensitive, like the scan's alphabet codes.
        assert explain_pair("Ulm", "ulm", 0).frequency_bound == (1, True)

    def test_qgram_bound_reported(self):
        explanation = explain_pair("ACGTACGT", "TTTTTTTT", 1)
        shared, needed, rejects = explanation.qgram_bound
        assert shared == 0
        assert needed > 0
        assert rejects

    def test_qgram_bound_counts_trigrams(self):
        # ACG CGT GTA TAC ACG CGT vs ACG CGT GTA TAC ACG CGA: 5 shared,
        # and 8 - 3 + 1 - 1 * 3 = 3 required.
        explanation = explain_pair("ACGTACGT", "ACGTACGA", 1)
        assert explanation.qgram_bound == (5, 3, False)

    def test_bounds_are_the_ones_the_scan_runs(self):
        # Four symbols make 64 trigrams, one group each: the pairs the
        # explanation passes are exactly the rows the scan scores.
        rng = random.Random(5)
        reads = sorted({"".join(rng.choice("ACGT") for _ in range(length))
                        for length in (7, 8, 9) for _ in range(150)})
        corpus = CompiledCorpus(reads)
        for query in reads[::40]:
            for k in (1, 2, 3):
                counters: dict = {}
                scan_query(corpus, query, k, counters=counters)
                passing = sum(
                    explanation.length_filter
                    and not explanation.frequency_bound[1]
                    and not explanation.qgram_bound[2]
                    for explanation in (explain_pair(query, read, k)
                                        for read in reads))
                assert counters["scan.kernel_calls"] == passing

    def test_kernel_rationale_present(self):
        explanation = explain_pair("A" * 100, "A" * 100, 16)
        assert "bit-parallel" in explanation.kernel

    def test_render_is_complete(self):
        text = explain_pair("Bern", "Berlin", 2).render()
        assert "MATCH" in text
        assert "length filter" in text
        assert "frequency bound" in text
        assert "bag distance over every symbol" in text
        assert "q-gram bound" in text
        assert "shared trigrams" in text
        assert "vowels" not in text and "bigrams" not in text
        assert "kernel dispatch" in text
        assert "insert" in text

    def test_render_no_match(self):
        text = explain_pair("aaaa", "zzzz", 1).render()
        assert "NO MATCH" in text

    def test_bounds_never_contradict_the_verdict(self):
        # Sound filters cannot reject a true match.
        cases = [("Bern", "Berne", 1), ("kitten", "sitting", 3),
                 ("same", "same", 0)]
        for query, candidate, k in cases:
            explanation = explain_pair(query, candidate, k)
            assert explanation.matched
            assert explanation.length_filter
            assert not explanation.frequency_bound[1]
            assert not explanation.qgram_bound[2]

    def test_invalid_threshold(self):
        with pytest.raises(InvalidThresholdError):
            explain_pair("a", "b", -1)

    def test_empty_operands(self):
        explanation = explain_pair("", "ab", 2)
        assert explanation.matched
        assert explanation.distance == 2
