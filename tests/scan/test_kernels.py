"""Engine parity at the corpus layer.

Every compiled corpus holds its buckets one way: a ``numpy`` code
matrix, its bit-packed words and a frequency matrix. The frozen
``packed=True`` keyword builds exactly that corpus, and the scan's two
scoring engines — one code row at a time (``encoded``) or every
survivor of the window at once (``packed``) — return identical match sets
*and* identical ``scan.*`` counters over it. The kernel-level suite is
``tests/distance/test_myers_kernel.py``.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequential import SequentialScanSearcher
from repro.data.alphabet import DNA_ALPHABET
from repro.scan.corpus import CompiledCorpus
from repro.scan.executor import scan_query

READS = [
    "ACGTACGTACGTACGTACGT",
    "ACGTACGTACGTACGTACGA",
    "TTTTTTTTTTTTTTTTTTTT",
    "ACGTACGTACGTACGTAC",
    "GGGGCCCCGGGGCCCCGGGG",
    "ACGTACGTACGTACGAACGT",
    "NNNNACGTACGTACGTACGT",
] * 4  # duplicates collapse; repeats keep bucket sizes honest


def _scan(corpus, query, k, threshold):
    counters: dict = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.scan.executor.DEFAULT_VECTOR_MIN_ROWS",
                      threshold)
        matches = scan_query(corpus, query, k, counters=counters)
    return matches, counters


class TestPackedCorpusParity:
    def test_packed_mode_preserves_strings_and_buckets(self):
        plain = CompiledCorpus(READS, alphabet=DNA_ALPHABET)
        packed = CompiledCorpus(READS, alphabet=DNA_ALPHABET,
                                packed=True)
        assert packed.strings == plain.strings
        assert packed.lengths == plain.lengths
        for a, b in zip(plain.buckets, packed.buckets):
            assert tuple(a.strings) == tuple(b.strings)
            assert np.array_equal(a.packed.codes, b.packed.codes)
            assert np.array_equal(a.frequencies, b.frequencies)
            assert [DNA_ALPHABET.decode(row.tolist())
                    for row in b.packed.codes] == list(b.strings)

    def test_storage_profile_reports_the_reduction(self):
        profile = CompiledCorpus(READS,
                                 alphabet=DNA_ALPHABET).storage_profile()
        assert profile["packed_reduction"] > 1.5  # 3-bit DNA: ~2.6x

    @settings(max_examples=50, deadline=None)
    @given(st.text(alphabet="ACGNTX", max_size=30),
           st.integers(min_value=0, max_value=8))
    def test_search_parity_packed_vs_encoded(self, query, k):
        corpus = CompiledCorpus(READS)
        encoded, encoded_counters = _scan(corpus, query, k, sys.maxsize)
        packed, packed_counters = _scan(corpus, query, k, 1)
        assert packed == encoded
        assert packed_counters == encoded_counters
        assert encoded == SequentialScanSearcher(READS).search(query, k)
