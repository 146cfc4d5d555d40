"""Shape of the compiled corpus's trigram-group count table.

On alphabets of at most 16 symbols the compiled corpus counts each
string's trigrams, folded into at most 64 groups, in one row-major
``(size, groups)`` matrix; larger alphabets carry no table. The bound
the select computes from it is checked against the plain DP in
``test_bag_bound_properties.py``.
"""

import pytest

from repro.data.alphabet import Alphabet
from repro.scan.corpus import (
    MAX_QGRAM_GROUPS,
    MAX_SYMBOL_GROUPS,
    QGRAM_LENGTH,
    CompiledCorpus,
)

from .test_bag_bound_properties import SIZES, SYMBOLS


class TestTable:
    @pytest.mark.parametrize("size", SIZES)
    def test_built_only_for_small_alphabets(self, size):
        alphabet = SYMBOLS[:size]
        dataset = [alphabet * 3, alphabet[::-1] * 2 + alphabet[0], "A"]
        corpus = CompiledCorpus(dataset, alphabet=Alphabet("a", alphabet))
        table = corpus.trigram_counts
        if size > MAX_SYMBOL_GROUPS:
            assert table is None and corpus.trigram_group_of == ()
            return
        assert len(corpus.trigram_group_of) == size ** QGRAM_LENGTH
        groups = min(size ** QGRAM_LENGTH, MAX_QGRAM_GROUPS)
        assert table.shape == (corpus.size, groups)
        assert table.dtype == corpus.group_counts.dtype
        # Trigrams the corpus lacks all join one group, so fewer may be
        # in use.
        assert set(corpus.trigram_group_of) <= set(range(groups))
        # Row i counts the trigrams of the i-th string in bucket order.
        strings = [s for bucket in corpus.buckets for s in bucket.strings]
        assert table.sum(1).tolist() == [max(0, len(s) - 2)
                                         for s in strings]

    def test_rows_are_contiguous(self):
        # The select gathers whole rows: one string's groups side by side.
        corpus = CompiledCorpus(["ACGTACGT", "ACG", "TTGCA"])
        assert corpus.trigram_counts.flags.c_contiguous
