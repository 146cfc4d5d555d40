"""Packed storage parity at the corpus layer.

Whatever storage mode the corpus compiled under, it holds the same
strings in the same buckets with the same code rows. What the scan
makes of the two modes — identical match sets *and* identical
``scan.*`` counters, whichever scoring engine the storage selects — is
``tests/distance/test_myers_kernel.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestPackedCorpusParity:
    def test_packed_mode_preserves_strings_and_buckets(self):
        plain = CompiledCorpus(READS, alphabet=DNA_ALPHABET)
        packed = CompiledCorpus(READS, alphabet=DNA_ALPHABET,
                                packed=True)
        assert packed.packed and not plain.packed
        assert packed.strings == plain.strings
        assert packed.lengths == plain.lengths
        for a, b in zip(plain.buckets, packed.buckets):
            assert tuple(a.strings) == tuple(b.strings)
            assert b.packed is not None
            assert [list(row) for row in b.code_rows()] == \
                [list(row) for row in a.code_rows()]

    def test_storage_profile_reports_the_reduction(self):
        profile = CompiledCorpus(READS, alphabet=DNA_ALPHABET,
                                 packed=True).storage_profile()
        assert profile["mode"] == "packed"
        assert profile["packed_reduction"] > 1.5  # 3-bit DNA: ~2.6x

    @settings(max_examples=50, deadline=None)
    @given(st.text(alphabet="ACGNTX", max_size=30),
           st.integers(min_value=0, max_value=8))
    def test_search_parity_packed_vs_encoded(self, query, k):
        plain_counters: dict = {}
        packed_counters: dict = {}
        plain = scan_query(CompiledCorpus(READS), query, k,
                           counters=plain_counters)
        packed = scan_query(CompiledCorpus(READS, packed=True),
                            query, k, counters=packed_counters)
        assert packed == plain
        assert packed_counters == plain_counters
