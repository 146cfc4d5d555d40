"""Unit tests for the zero-copy segment layer (:mod:`repro.speed`).

A segment must be a perfect stand-in for the artifact it serialized:
same strings, same matches, same counters — with its arrays living in
the page cache instead of the heap. The failure modes matter just as
much: a corrupted or version-skewed file must raise a clear
:class:`repro.exceptions.SegmentError`, never return wrong data.
"""

import os
import struct

import numpy as np
import pytest

from repro.core.batch import _pool_payload
from repro.data.dna import generate_reads
from repro.exceptions import SegmentError
from repro.index.batch import BatchIndexExecutor
from repro.index.flat import FlatTrie
from repro.scan.corpus import CompiledCorpus
from repro.scan.executor import BatchScanExecutor, scan_query
from repro.speed import (
    SEGMENT_MAGIC,
    SEGMENT_VERSION,
    SegmentCache,
    SegmentRef,
    load_or_build_corpus_segment,
    load_segment,
    save_segment,
)

DATASET = ["Berlin", "Bern", "Bonn", "Ulm", "Hamburg", "Hamm",
           "Bremen", "Berlingen", "Ber", "Uelzen"]
QUERIES = [("Berlino", 2), ("Bon", 1), ("Hamborg", 2), ("Ulm", 0)]


@pytest.fixture()
def corpus_segment(tmp_path):
    corpus = CompiledCorpus(DATASET)
    path = str(tmp_path / "corpus.seg")
    save_segment(corpus, path)
    return corpus, path


class TestCorpusRoundTrip:
    def test_search_parity_and_counters(self, corpus_segment):
        corpus, path = corpus_segment
        loaded = load_segment(path)
        assert tuple(loaded.strings) == corpus.strings
        assert loaded.segment_path == os.path.abspath(path)
        fresh = BatchScanExecutor(corpus)
        mapped = BatchScanExecutor(loaded)
        for query, k in QUERIES:
            assert mapped.search(query, k) == fresh.search(query, k)
        assert mapped.counters_snapshot() == fresh.counters_snapshot()

    def test_mmap_groups_scan_like_the_heap_corpus(self, tmp_path,
                                                   city_names):
        # A 120-symbol corpus folds into 16 groups; the mapped group
        # map and counts must select, score and count exactly alike.
        corpus = CompiledCorpus(city_names)
        path = str(tmp_path / "cities.seg")
        save_segment(corpus, path)
        loaded = load_segment(path)
        assert loaded.group_of == corpus.group_of
        assert isinstance(loaded.group_counts, np.memmap)
        assert loaded.group_counts.dtype == corpus.group_counts.dtype
        assert np.array_equal(loaded.group_counts, corpus.group_counts)
        assert np.array_equal(loaded.row_lengths, corpus.row_lengths)
        for mapped, heap in zip(loaded.buckets, corpus.buckets):
            assert np.shares_memory(mapped.frequencies, loaded.group_counts)
            assert np.array_equal(mapped.frequencies, heap.frequencies)
        for query in city_names[:40:4]:
            for k in (1, 2, 3):
                heap_counters: dict = {}
                mapped_counters: dict = {}
                assert scan_query(loaded, query + "#", k,
                                  counters=mapped_counters) == \
                    scan_query(corpus, query + "#", k,
                               counters=heap_counters)
                assert mapped_counters == heap_counters
                assert heap_counters["scan.freq_rejects"] > 0

    def test_packed_dna_is_at_least_twice_as_small(self, tmp_path):
        # The paper's section-6 dictionary compression, in bulk: 3-bit
        # symbols against a byte each, and a segment keeps the saving.
        corpus = CompiledCorpus(generate_reads(200, seed=2013))
        profile = corpus.storage_profile()
        assert profile["byte_code_bytes"] >= 2 * profile["packed_bytes"] > 0
        path = str(tmp_path / "reads.seg")
        save_segment(corpus, path)
        assert load_segment(path).storage_profile() == profile

    def test_empty_corpus_round_trips(self, tmp_path):
        # Zero-byte arrays sit at aligned offsets past the last byte
        # written; the file must still reach them.
        corpus = CompiledCorpus([])
        path = str(tmp_path / "empty.seg")
        save_segment(corpus, path)
        loaded = load_segment(path)
        assert tuple(loaded.strings) == corpus.strings == ()
        assert BatchScanExecutor(loaded).search("Bern", 2) == []

    def test_load_or_build_builds_once_then_loads(self, tmp_path):
        path = str(tmp_path / "nested" / "corpus.seg")
        built = load_or_build_corpus_segment(DATASET, path)
        assert os.path.exists(path)
        stamp = os.stat(path).st_mtime_ns
        again = load_or_build_corpus_segment(DATASET, path)
        assert os.stat(path).st_mtime_ns == stamp
        assert again is built  # served by the process-global cache


class TestTrieRoundTrip:
    def test_probe_parity(self, tmp_path):
        trie = FlatTrie(DATASET)
        path = str(tmp_path / "trie.seg")
        save_segment(trie, path)
        loaded = load_segment(path)
        assert isinstance(loaded, FlatTrie)
        fresh = BatchIndexExecutor(trie)
        mapped = BatchIndexExecutor(loaded)
        for query, k in QUERIES:
            assert mapped.search(query, k) == fresh.search(query, k)


class TestCorruption:
    def test_truncated_file(self, corpus_segment):
        _, path = corpus_segment
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        with pytest.raises(SegmentError):
            load_segment(path)

    def test_bad_magic(self, corpus_segment):
        _, path = corpus_segment
        with open(path, "r+b") as handle:
            handle.write(b"NOPE")
        with pytest.raises(SegmentError):
            load_segment(path)

    def test_version_mismatch_names_the_version(self, corpus_segment):
        _, path = corpus_segment
        with open(path, "r+b") as handle:
            handle.seek(len(SEGMENT_MAGIC))
            handle.write(struct.pack("<I", SEGMENT_VERSION + 41))
        with pytest.raises(SegmentError,
                           match=f"version {SEGMENT_VERSION + 41}"):
            load_segment(path)

    def test_version_1_is_refused(self, corpus_segment):
        # Version 1 stored tracked-symbol frequencies; there is no
        # reader for it.
        _, path = corpus_segment
        with open(path, "r+b") as handle:
            handle.seek(len(SEGMENT_MAGIC))
            handle.write(struct.pack("<I", 1))
        with pytest.raises(SegmentError, match="version 1 is not supported"):
            load_segment(path)

    def test_garbage_header(self, corpus_segment):
        _, path = corpus_segment
        with open(path, "r+b") as handle:
            handle.seek(len(SEGMENT_MAGIC) + 12)
            handle.write(b"\xff" * 16)
        with pytest.raises(SegmentError):
            load_segment(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SegmentError):
            load_segment(str(tmp_path / "absent.seg"))


class TestCache:
    def test_same_stamp_returns_same_object(self, corpus_segment):
        _, path = corpus_segment
        cache = SegmentCache()
        assert cache.get(path) is cache.get(path)
        assert len(cache) == 1

    def test_mtime_change_invalidates(self, corpus_segment):
        corpus, path = corpus_segment
        cache = SegmentCache()
        first = cache.get(path)
        save_segment(corpus, path)  # rewrite: new mtime/size stamp
        stat = os.stat(path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        second = cache.get(path)
        assert second is not first
        assert tuple(second.strings) == tuple(first.strings)

    def test_invalidate(self, corpus_segment):
        _, path = corpus_segment
        cache = SegmentCache()
        first = cache.get(path)
        cache.invalidate(path)
        assert cache.get(path) is not first
        cache.invalidate()
        assert len(cache) == 0


class TestPoolHandoff:
    class _FakePool:
        processes = 2

    def test_segment_backed_corpus_ships_a_ref(self, corpus_segment,
                                               recwarn):
        _, path = corpus_segment
        payload = _pool_payload(load_segment(path), self._FakePool(),
                                "compiled corpus")
        assert isinstance(payload, SegmentRef)
        assert tuple(payload.resolve().strings) == \
            CompiledCorpus(DATASET).strings
        assert not recwarn.list

    def test_plain_corpus_warns_with_the_2_0_message(self):
        corpus = CompiledCorpus(DATASET)
        with pytest.warns(
            DeprecationWarning,
            match=r"deprecated and will be removed in 2\.0.*"
                  r"repro\.speed\.save_segment",
        ):
            payload = _pool_payload(corpus, self._FakePool(),
                                    "compiled corpus")
        assert payload is corpus

    def test_serial_runner_never_warns(self, recwarn):
        corpus = CompiledCorpus(DATASET)
        payload = _pool_payload(corpus, object(), "compiled corpus")
        assert payload is corpus
        assert not recwarn.list
