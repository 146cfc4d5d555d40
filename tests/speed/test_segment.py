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
from repro.data.alphabet import dna_alphabet
from repro.data.dna import generate_reads
from repro.exceptions import SegmentError
from repro.index.batch import BatchIndexExecutor
from repro.index.flat import FlatTrie
from repro.scan.corpus import CompiledCorpus
from repro.scan.executor import BatchScanExecutor, _select, scan_query
from repro.speed import (
    SEGMENT_MAGIC,
    SEGMENT_VERSION,
    SegmentCache,
    SegmentRef,
    load_or_build_corpus_segment,
    load_segment,
    save_segment,
)
from repro.speed.segment import IndexedStrings, LazyStrings

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


def _selects(corpus: CompiledCorpus, queries, ks) -> list:
    """Every query's select over its whole length window, per k."""
    found = []
    for query in queries:
        encoded = corpus.encode_query(query)
        for k in ks:
            lo, hi = corpus.window(len(query), k)
            found.append(_select(corpus, encoded, k,
                                 int(corpus.offsets[lo]),
                                 int(corpus.offsets[hi])).tolist())
    return found


class TestFormatV3:
    """Version 3 adds the trigram-group table; it round-trips whole."""

    def _round_trip(self, tmp_path, corpus):
        path = str(tmp_path / "corpus.seg")
        save_segment(corpus, path)
        loaded = load_segment(path)
        assert loaded.trigram_group_of == corpus.trigram_group_of
        if corpus.trigram_counts is None:
            assert loaded.trigram_counts is None
        else:
            # A zero-byte view of the map is a plain array.
            assert isinstance(loaded.trigram_counts, np.memmap) \
                == bool(corpus.size)
            assert loaded.trigram_counts.dtype == \
                corpus.trigram_counts.dtype
            assert np.array_equal(loaded.trigram_counts,
                                  corpus.trigram_counts)
        return loaded

    def test_dna_corpus_selects_alike(self, tmp_path):
        reads = generate_reads(400, seed=2013)
        corpus = CompiledCorpus(reads)
        assert corpus.trigram_counts.shape == (corpus.size, 64)
        loaded = self._round_trip(tmp_path, corpus)
        queries = [read[:50] + "N" + read[52:] for read in reads[:6]] \
            + [reads[7][:30] + "#" + reads[7][30:]]
        selects = _selects(corpus, queries, (0, 4, 8, 16))
        assert _selects(loaded, queries, (0, 4, 8, 16)) == selects
        assert any(selects)

    def test_city_corpus_carries_no_table(self, tmp_path, city_names):
        corpus = CompiledCorpus(city_names)
        assert corpus.trigram_counts is None
        assert corpus.trigram_group_of == ()
        loaded = self._round_trip(tmp_path, corpus)
        queries = [name + "e" for name in city_names[:40:4]]
        assert _selects(loaded, queries, (1, 2, 3)) == \
            _selects(corpus, queries, (1, 2, 3))

    @pytest.mark.parametrize("alphabet", [None, dna_alphabet()],
                             ids=["inferred", "dna"])
    def test_empty_corpus(self, tmp_path, alphabet):
        corpus = CompiledCorpus([], alphabet=alphabet)
        loaded = self._round_trip(tmp_path, corpus)
        assert (loaded.trigram_counts is None) == (alphabet is None)
        assert _selects(loaded, ["ACGT"], (0, 2)) == \
            _selects(corpus, ["ACGT"], (0, 2)) == [[], []]

    def test_version_2_is_refused(self, corpus_segment):
        # Version 2 had no trigram table; there is no reader for it.
        _, path = corpus_segment
        with open(path, "r+b") as handle:
            handle.seek(len(SEGMENT_MAGIC))
            handle.write(struct.pack("<I", 2))
        with pytest.raises(SegmentError, match="version 2 is not supported"):
            load_segment(path)


class TestLazyStrings:
    NAMES = ["Zürich", "Bern", "Genève", "Malmö", "Łódź", "Ulm", "京都",
             "São Paulo"]

    @pytest.fixture()
    def counted(self, tmp_path, monkeypatch):
        """A loaded segment's string table, and a list that records
        every ``memmap`` access made after loading."""
        path = str(tmp_path / "names.seg")
        save_segment(CompiledCorpus(self.NAMES * 50 + [
            f"{name} {index}" for index, name in enumerate(self.NAMES * 50)
        ]), path)
        loaded = load_segment(path)
        accesses: list = []
        real = np.memmap.__getitem__

        def spy(array, index):
            accesses.append(index)
            return real(array, index)

        monkeypatch.setattr(np.memmap, "__getitem__", spy)
        return loaded, accesses

    def test_full_iteration_copies_the_blob_once(self, counted):
        loaded, accesses = counted
        table = loaded.strings
        assert isinstance(table, LazyStrings)
        strings = list(table)
        # Two accesses (the offsets and one blob copy), not one per
        # string.
        assert len(accesses) == 2
        assert len(strings) == len(set(self.NAMES * 50)) + 400
        accesses.clear()
        assert strings == [table[i] for i in range(len(table))]
        assert strings[:8] == self.NAMES
        assert len(accesses) >= len(strings)

    def test_slices_and_bucket_views(self, counted):
        loaded, accesses = counted
        table = loaded.strings
        expected = [table[i] for i in range(len(table))]
        for window in (slice(None), slice(3, 40), slice(700, 5),
                       slice(-9, None)):
            # A step-1 slice is one contiguous span: one copy.
            accesses.clear()
            assert table[window] == tuple(expected[window])
            assert len(accesses) <= 2
        for window in (slice(None, None, -3), slice(-9, None, 2)):
            assert table[window] == tuple(expected[window])
        for bucket in loaded.buckets:
            # A bucket's ids are scattered over the table, so its view
            # decodes string by string rather than copy their span.
            assert isinstance(bucket.strings, IndexedStrings)
            assert list(bucket.strings) == [
                bucket.strings[i] for i in range(len(bucket.strings))]
            assert bucket.strings[1::2] == tuple(bucket.strings)[1::2]
        assert tuple(loaded.strings) == CompiledCorpus(
            expected).strings


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
