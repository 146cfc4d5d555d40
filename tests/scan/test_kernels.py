"""Packed storage and kernel-selection parity at the scan layer.

Whatever storage mode the corpus compiled under and whatever kernel the
executor picked, a scan must return bit-identical match sets *and*
bit-identical ``scan.*`` work counters — the counters are an interface
(dashboards, the regression gate), not a debugging nicety.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deadline import Budget
from repro.data.alphabet import DNA_ALPHABET
from repro.exceptions import DeadlineExceeded, ReproError
from repro.scan.corpus import CompiledCorpus
from repro.scan.executor import (
    SCAN_KERNELS,
    BatchScanExecutor,
    scan_query,
)

READS = [
    "ACGTACGTACGTACGTACGT",
    "ACGTACGTACGTACGTACGA",
    "TTTTTTTTTTTTTTTTTTTT",
    "ACGTACGTACGTACGTAC",
    "GGGGCCCCGGGGCCCCGGGG",
    "ACGTACGTACGTACGAACGT",
    "NNNNACGTACGTACGTACGT",
] * 4  # duplicates collapse; repeats keep bucket sizes honest

CITIES = ["Berlin", "Bern", "Bonn", "Bremen", "Berlingen",
          "Hamburg", "Hamm", "Ulm", "Uelzen", "Erlangen"]


def _kernel_runs(dataset, query, k, *, packed):
    corpus = CompiledCorpus(dataset, packed=packed)
    runs = {}
    for kernel in SCAN_KERNELS:
        executor = BatchScanExecutor(corpus, cache_size=0,
                                     kernel=kernel)
        matches = executor.search(query, k)
        runs[kernel] = (matches, executor.counters_snapshot())
    return runs


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
    @given(st.text(alphabet="ACGNT", min_size=1, max_size=30),
           st.integers(min_value=0, max_value=6))
    def test_search_parity_packed_vs_encoded(self, query, k):
        plain = scan_query(CompiledCorpus(READS), query, k)
        packed = scan_query(CompiledCorpus(READS, packed=True),
                            query, k)
        assert packed == plain


class TestKernelParity:
    @pytest.mark.parametrize("dataset,query,k", [
        (READS, "ACGTACGTACGTACGTACGT", 3),
        (READS, "ACGTACGTACGTACGTACGT", 0),
        (READS, "TTTTTTTTTTTTTTTTTTAA", 6),
        (CITIES, "Berlino", 2),
        (CITIES, "Hamborg", 2),
    ])
    def test_matches_and_counters_identical(self, dataset, query, k):
        for packed in (False, True):
            runs = _kernel_runs(dataset, query, k, packed=packed)
            scalar_matches, scalar_counters = runs["scalar"]
            for kernel in ("auto", "vectorized"):
                matches, counters = runs[kernel]
                assert matches == scalar_matches, (kernel, packed)
                assert counters == scalar_counters, (kernel, packed)

    def test_kernel_bound_batch_rows_and_counters_identical(self):
        # Prefilter off: every candidate in the length window reaches
        # the distance kernel — the regime the vectorized path is for.
        corpus = CompiledCorpus(READS, packed=True)
        queries = ["ACGTACGTACGTACGTACGT", "TTTTTTTTTTTTTTTTTTAA",
                   "ACGTACGTACGTACGTACGT"]
        runs = {}
        for kernel in ("scalar", "vectorized"):
            executor = BatchScanExecutor(corpus, cache_size=0,
                                         kernel=kernel,
                                         use_frequency=False)
            runs[kernel] = (executor.search_many(queries, 6),
                            executor.counters_snapshot())
        assert runs["vectorized"] == runs["scalar"]
        counters = runs["scalar"][1]
        assert counters["scan.kernel_calls"] \
            == counters["scan.candidates"] > 0

    @settings(max_examples=50, deadline=None)
    @given(st.text(alphabet="ACGNTX", min_size=1, max_size=40),
           st.integers(min_value=0, max_value=8))
    def test_forced_vectorized_agrees_with_scalar(self, query, k):
        corpus = CompiledCorpus(READS, packed=True)
        scalar = scan_query(corpus, query, k, kernel="scalar")
        vector = scan_query(corpus, query, k, kernel="vectorized")
        assert vector == scalar

    def test_vectorized_budget_expiry_matches_scalar_partial_shape(self):
        corpus = CompiledCorpus(READS, packed=True)
        query = "ACGTACGTACGTACGTACGT"
        with pytest.raises(DeadlineExceeded) as caught:
            scan_query(corpus, query, 3, kernel="vectorized",
                       deadline=Budget(2, check_interval=1))
        assert caught.value.scope == "candidates"

    def test_unknown_kernel_rejected(self):
        corpus = CompiledCorpus(CITIES)
        with pytest.raises(ReproError, match="kernel"):
            scan_query(corpus, "Berlin", 1, kernel="simd")
        with pytest.raises(ReproError, match="kernel"):
            BatchScanExecutor(corpus, kernel="simd")

    def test_executor_exposes_its_kernel(self):
        corpus = CompiledCorpus(CITIES)
        assert BatchScanExecutor(corpus).kernel == "auto"
        assert BatchScanExecutor(corpus,
                                 kernel="scalar").kernel == "scalar"
