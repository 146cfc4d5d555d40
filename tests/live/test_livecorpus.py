"""Unit tests for the LSM write path (:class:`repro.live.LiveCorpus`)."""

import os

import pytest

from repro.core.deadline import Budget, Deadline
from repro.core.sequential import SequentialScanSearcher
from repro.exceptions import DeadlineExceeded, ReproError, SegmentError
from repro.live import (
    COMPACTION_MODES,
    MANIFEST_NAME,
    CorpusEvent,
    LiveCorpus,
)

DATASET = ["Berlin", "Bern", "Bonn", "Ulm", "Hamburg", "Bremen"]


def reference(strings, query, k):
    return [m.string for m in SequentialScanSearcher(strings)
            .search(query, k)]


class TestConstruction:
    def test_seeds_become_the_first_segment(self):
        corpus = LiveCorpus(DATASET)
        assert corpus.segment_count == 1
        assert corpus.memtable_size == 0
        assert len(corpus) == len(DATASET)
        assert corpus.epoch == 0

    def test_empty_corpus_has_no_segments(self):
        corpus = LiveCorpus()
        assert corpus.segment_count == 0
        assert len(corpus) == 0

    def test_duplicates_accumulate(self):
        corpus = LiveCorpus(["Ulm", "Ulm", "Bern"])
        assert len(corpus) == 3
        assert corpus.count("Ulm") == 2
        assert corpus.distinct == 2

    def test_empty_string_rejected(self):
        with pytest.raises(ReproError):
            LiveCorpus([""])
        with pytest.raises(ReproError):
            LiveCorpus().insert("")

    def test_bad_parameters_rejected(self):
        with pytest.raises(ReproError):
            LiveCorpus(flush_threshold=0)
        with pytest.raises(ReproError):
            LiveCorpus(fanout=1)
        with pytest.raises(ReproError):
            LiveCorpus(compaction="eager")
        assert "inline" in COMPACTION_MODES


class TestMutations:
    def test_insert_lands_in_memtable_and_bumps_epoch(self):
        corpus = LiveCorpus(DATASET)
        corpus.insert("Bonnn")
        assert corpus.memtable_size == 1
        assert corpus.epoch == 1
        assert "Bonnn" in corpus

    def test_delete_of_memtable_copy_cancels_it(self):
        corpus = LiveCorpus(flush_threshold=16)
        corpus.insert("Ulm")
        corpus.delete("Ulm")
        assert corpus.memtable_size == 0
        assert corpus.tombstone_count == 0
        assert "Ulm" not in corpus

    def test_delete_of_segment_copy_tombstones_it(self):
        corpus = LiveCorpus(DATASET)
        corpus.delete("Ulm")
        assert corpus.tombstone_count == 1
        assert "Ulm" not in corpus
        assert reference(corpus.snapshot(), "Ulm", 0) == []

    def test_tombstoned_reinsert_cancels_the_tombstone(self):
        corpus = LiveCorpus(DATASET)
        corpus.delete("Ulm")
        corpus.insert("Ulm")
        # The physical copy still in the segment serves it again: no
        # memtable copy is added, the tombstone is simply cancelled.
        assert corpus.tombstone_count == 0
        assert corpus.memtable_size == 0
        assert "Ulm" in corpus
        assert [m.string for m in corpus.search("Ulm", 0)] == ["Ulm"]

    def test_delete_of_absent_string_raises(self):
        corpus = LiveCorpus(DATASET)
        with pytest.raises(ReproError):
            corpus.delete("Paris")
        corpus.delete("Ulm")
        with pytest.raises(ReproError):
            corpus.delete("Ulm")

    def test_epoch_counts_every_mutation(self):
        corpus = LiveCorpus(DATASET)
        corpus.insert("x1")
        corpus.insert("x2")
        corpus.delete("x1")
        assert corpus.epoch == 3


class TestFlush:
    def test_auto_flush_on_threshold(self):
        corpus = LiveCorpus(flush_threshold=3, fanout=100)
        for string in ("aa", "bb", "cc"):
            corpus.insert(string)
        assert corpus.memtable_size == 0
        assert corpus.segment_count == 1
        assert corpus.flushes == 1

    def test_explicit_flush_returns_whether_anything_moved(self):
        corpus = LiveCorpus(DATASET)
        assert corpus.flush() is False
        corpus.insert("Bonnn")
        assert corpus.flush() is True
        assert corpus.segment_count == 2

    def test_flush_does_not_bump_the_epoch(self):
        corpus = LiveCorpus()
        corpus.insert("aa")
        epoch = corpus.epoch
        corpus.flush()
        assert corpus.epoch == epoch


class TestCompaction:
    def test_fanout_same_level_segments_merge(self):
        corpus = LiveCorpus(flush_threshold=2, fanout=2)
        for string in ("aa", "ab", "ba", "bb"):
            corpus.insert(string)
        # Two level-0 flushes hit the fanout and merged into a level-1
        # segment of 4 strings.
        assert corpus.compactions >= 1
        assert corpus.segment_sizes() == (4,)
        assert [m.string for m in corpus.search("aa", 1)] \
            == ["aa", "ab", "ba"]

    def test_compact_folds_everything_into_one_segment(self):
        corpus = LiveCorpus(DATASET, flush_threshold=100, fanout=100)
        corpus.insert("Bonnn")
        corpus.delete("Ulm")
        corpus.compact()
        assert corpus.segment_count == 1
        assert corpus.memtable_size == 0
        assert corpus.tombstone_count == 0
        assert sorted(corpus.snapshot()) \
            == sorted(set(DATASET) - {"Ulm"} | {"Bonnn"})

    def test_staged_group_merges_inline_into_one_segment(self):
        # Four level-0 flushes held back by a fanout above the group
        # size, then one inline merge: one segment that answers like a
        # corpus built from the same strings in one go.
        strings = ["Berlin", "Bern", "Bonn", "Ulm", "Hamburg", "Bremen",
                   "Berlino", "Bonna", "Ulma", "Hamburk", "Brem", "Ber"]
        corpus = LiveCorpus(flush_threshold=3, fanout=5,
                            compaction="inline")
        for string in strings:
            corpus.insert(string)
        assert corpus.segment_count == 4
        assert corpus.compactions == 0
        corpus.compact()
        assert corpus.segment_count == 1
        assert corpus.compactions == 1
        rebuilt = LiveCorpus(strings)
        for query in ("Berlin", "Ulm", "Hamburg", "Bremn", "zzz"):
            for k in (0, 1, 2):
                assert corpus.search(query, k) == rebuilt.search(query, k)
                assert [m.string for m in corpus.search(query, k)] \
                    == reference(strings, query, k)

    def test_compaction_purges_tombstones(self):
        corpus = LiveCorpus(DATASET, flush_threshold=100, fanout=100)
        corpus.delete("Ulm")
        corpus.delete("Bern")
        corpus.compact()
        assert corpus.tombstones_purged == 2
        assert corpus.tombstone_count == 0
        assert reference(corpus.snapshot(), "Ulm", 0) == []

    def test_compact_is_a_noop_on_a_clean_single_segment(self):
        corpus = LiveCorpus(DATASET)
        corpus.compact()
        assert corpus.compactions == 0

    def test_reinsert_racing_a_merge_is_not_lost(self):
        # A tombstoned string whose only physical copy lives in the
        # group being merged is dropped from the merged segment (its
        # contents count was 0 when survivors were collected). If it
        # is re-inserted before the segment-list swap, insert cancels
        # the tombstone expecting the segment copy to survive — the
        # swap must detect the dropped-but-visible string and re-add
        # it to the memtable. Simulated by interleaving the insert
        # into the merge's build step, which runs between survivor
        # collection and the swap.
        corpus = LiveCorpus(flush_threshold=100, fanout=100)
        corpus.insert("keep")
        corpus.insert("gone")
        corpus.flush()
        corpus.delete("gone")

        real_build = corpus._build_segment
        raced = []

        def hooked_build(strings):
            segment = real_build(strings)
            if not raced:
                raced.append(True)
                corpus.insert("gone")
            return segment

        corpus._build_segment = hooked_build
        corpus.compact()
        assert "gone" in corpus
        assert [m.string for m in corpus.search("gone", 0)] == ["gone"]
        # And the rescue is physical, not just a contents-count claim.
        assert corpus.memtable_size == 1

    def test_post_compaction_matches_a_rebuild_oracle(self):
        corpus = LiveCorpus(DATASET, flush_threshold=2, fanout=2)
        for string in ("Berlino", "Bonna", "Ulma", "Hamburk"):
            corpus.insert(string)
        corpus.delete("Bonna")
        corpus.delete("Ulm")
        corpus.compact()
        oracle = list(corpus.snapshot())
        for query in ("Berlin", "Ulm", "Hamburg", "zzz"):
            for k in (0, 1, 2):
                assert [m.string for m in corpus.search(query, k)] \
                    == reference(oracle, query, k)


class TestBackgroundCompaction:
    def test_background_merge_reaches_the_same_layout(self):
        corpus = LiveCorpus(flush_threshold=2, fanout=2,
                            compaction="background")
        for string in ("aa", "ab", "ba", "bb"):
            corpus.insert(string)
        corpus.drain_compaction()
        assert corpus.compactions >= 1
        assert not corpus.compacting
        assert sorted(corpus.snapshot()) == ["aa", "ab", "ba", "bb"]

    def test_search_during_background_compaction_is_correct(self):
        corpus = LiveCorpus(flush_threshold=2, fanout=2,
                            compaction="background")
        for string in ("aa", "ab", "ba", "bb"):
            corpus.insert(string)
        # Whatever state the merge is in, the answer is exact.
        assert [m.string for m in corpus.search("aa", 1)] \
            == ["aa", "ab", "ba"]
        corpus.drain_compaction()


class TestSearch:
    def test_matches_brute_force_across_parts(self):
        corpus = LiveCorpus(DATASET, flush_threshold=100)
        corpus.insert("Berlino")
        corpus.delete("Bern")
        oracle = list(corpus.snapshot())
        for query in ("Berlin", "Bern", "Hamburg"):
            for k in (0, 1, 2):
                assert [m.string for m in corpus.search(query, k)] \
                    == reference(oracle, query, k)

    def test_duplicate_across_memtable_and_segment_reported_once(self):
        corpus = LiveCorpus(["Ulm"], flush_threshold=100)
        corpus.insert("Ulm")
        matches = corpus.search("Ulm", 1)
        assert [m.string for m in matches] == ["Ulm"]

    def test_expired_budget_raises_with_segment_scope(self):
        corpus = LiveCorpus(DATASET)
        with pytest.raises(DeadlineExceeded) as info:
            corpus.search("Berlin", 1, deadline=Budget(0))
        error = info.value
        assert error.scope == "segments"
        assert error.completed == 0
        assert error.total == corpus.segment_count + 1

    def test_generous_deadline_answers_completely(self):
        corpus = LiveCorpus(DATASET, flush_threshold=100)
        corpus.insert("Berlino")
        matches = corpus.search("Berlin", 1, deadline=Deadline(30.0))
        assert [m.string for m in matches] == ["Berlin", "Berlino"]

    def test_partials_exclude_tombstoned_strings(self):
        corpus = LiveCorpus(DATASET)
        corpus.delete("Bern")
        with pytest.raises(DeadlineExceeded) as info:
            corpus.search("Bern", 1,
                          deadline=Budget(3, check_interval=1))
        partial = [m.string for m in info.value.partial]
        assert "Bern" not in partial

    def test_bad_threshold_rejected(self):
        with pytest.raises(ReproError):
            LiveCorpus(DATASET).search("Ulm", -1)

    def test_answers_from_the_state_it_started_on(self, monkeypatch):
        # Writes landing while a segment is searched must not blend
        # into the answer: before them it is ['Bern'], after them
        # ['Berm']; hiding Bern while missing Berm answers [], a
        # state the corpus never held.
        from repro.scan.searcher import CompiledScanSearcher

        corpus = LiveCorpus(["anchor", "Bern"])
        original = CompiledScanSearcher.search
        writes = []

        def search_then_write(self, query, k, **options):
            row = original(self, query, k, **options)
            if not writes:
                writes.append(None)
                corpus.insert("Berm")
                corpus.delete("Bern")
            return row

        monkeypatch.setattr(CompiledScanSearcher, "search",
                            search_then_write)
        assert [m.string for m in corpus.search("Bern", 1)] == ["Bern"]
        assert writes
        assert [m.string for m in corpus.search("Bern", 1)] == ["Berm"]


class TestEvents:
    def test_mutations_notify_subscribers(self):
        corpus = LiveCorpus(DATASET)
        events: list[CorpusEvent] = []
        corpus.subscribe(events.append)
        corpus.insert("Bonnn")
        corpus.delete("Ulm")
        assert [(e.kind, e.string) for e in events] \
            == [("insert", "Bonnn"), ("delete", "Ulm")]
        assert events[0].epoch == 1
        assert events[1].epoch == 2

    def test_flush_and_compact_events_carry_no_string(self):
        corpus = LiveCorpus(flush_threshold=100, fanout=100)
        events: list[CorpusEvent] = []
        corpus.subscribe(events.append)
        corpus.insert("aa")
        corpus.insert("bb")
        corpus.flush()
        corpus.insert("cc")
        corpus.compact()
        kinds = [e.kind for e in events]
        # compact() emits a flush too: it compiled the pending "cc"
        # memtable into a segment before merging.
        assert kinds == ["insert", "insert", "flush", "insert",
                         "flush", "compact"]
        assert all(e.string is None for e in events
                   if e.kind in ("flush", "compact"))

    def test_auto_flush_emits_ordered_events_outside_the_lock(self):
        import threading

        corpus = LiveCorpus(flush_threshold=2, fanout=2)
        events: list[CorpusEvent] = []
        lock_free: list[bool] = []

        def listener(event):
            events.append(event)
            # Probe from another thread: if the mutating call still
            # held the corpus lock while notifying, this would block.
            def probe():
                got = corpus._lock.acquire(timeout=5)
                lock_free.append(got)
                if got:
                    corpus._lock.release()
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(10)

        corpus.subscribe(listener)
        for string in ("aa", "ab", "ba", "bb"):
            corpus.insert(string)
        kinds = [e.kind for e in events]
        # Every second insert crosses the threshold: the insert event
        # precedes the flush it triggered, and the second flush
        # precedes the compaction it triggered.
        assert kinds == ["insert", "insert", "flush",
                         "insert", "insert", "flush", "compact"]
        assert lock_free == [True] * len(events)

    def test_unsubscribe_stops_delivery(self):
        corpus = LiveCorpus()
        events = []
        corpus.subscribe(events.append)
        corpus.unsubscribe(events.append)
        corpus.unsubscribe(events.append)  # idempotent
        corpus.insert("aa")
        assert events == []


class TestPersistence:
    def test_roundtrip_restores_everything(self, tmp_path):
        directory = str(tmp_path / "live")
        corpus = LiveCorpus(DATASET, flush_threshold=2, fanout=2,
                            segment_dir=directory)
        corpus.insert("Berlino")
        corpus.insert("Bonna")
        corpus.delete("Ulm")
        corpus.insert("unflushed")
        corpus.sync()

        reopened = LiveCorpus.open(directory)
        assert reopened.epoch == corpus.epoch
        assert sorted(reopened.snapshot()) == sorted(corpus.snapshot())
        assert reopened.memtable_size == corpus.memtable_size
        assert reopened.tombstone_count == corpus.tombstone_count
        oracle = list(corpus.snapshot())
        for query in ("Berlin", "Ulm", "unflushed"):
            assert [m.string for m in reopened.search(query, 1)] \
                == reference(oracle, query, 1)

    def test_open_leaves_the_manifest_intact(self, tmp_path):
        # Regression: open() used to run __init__ with segment_dir set
        # and an empty dataset, immediately overwriting MANIFEST.json
        # with empty state — so the *second* open (or any session that
        # never flushed) silently lost everything.
        import json

        directory = str(tmp_path / "live")
        corpus = LiveCorpus(DATASET, flush_threshold=2, fanout=2,
                            segment_dir=directory)
        corpus.insert("unflushed")
        corpus.sync()
        expected = sorted(corpus.snapshot())

        LiveCorpus.open(directory)
        with open(os.path.join(directory, MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert manifest["segments"], "open() wiped the manifest"
        assert manifest["contents"], "open() wiped the contents"

        reopened = LiveCorpus.open(directory)
        assert sorted(reopened.snapshot()) == expected
        assert reopened.epoch == corpus.epoch

    def test_reopened_corpus_keeps_absorbing_writes(self, tmp_path):
        directory = str(tmp_path / "live")
        LiveCorpus(["aa", "bb"], segment_dir=directory).sync()
        reopened = LiveCorpus.open(directory)
        reopened.insert("cc")
        reopened.delete("aa")
        assert sorted(reopened.snapshot()) == ["bb", "cc"]

    def test_compaction_removes_doomed_segment_files(self, tmp_path):
        directory = str(tmp_path / "live")
        corpus = LiveCorpus(flush_threshold=2, fanout=2,
                            segment_dir=directory)
        for string in ("aa", "ab", "ba", "bb"):
            corpus.insert(string)
        assert corpus.compactions >= 1
        files = [name for name in os.listdir(directory)
                 if name.endswith(".seg")]
        assert len(files) == corpus.segment_count

    def test_open_without_manifest_raises(self, tmp_path):
        with pytest.raises(SegmentError):
            LiveCorpus.open(str(tmp_path))

    def test_open_rejects_unknown_manifest_format(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text('{"format": 999}')
        with pytest.raises(SegmentError):
            LiveCorpus.open(str(tmp_path))

    def test_sync_without_segment_dir_is_a_noop(self):
        LiveCorpus(DATASET).sync()


class TestIntrospection:
    def test_describe_is_json_friendly(self):
        import json

        corpus = LiveCorpus(DATASET, flush_threshold=100)
        corpus.insert("Bonnn")
        corpus.delete("Ulm")
        summary = corpus.describe()
        json.dumps(summary)
        assert summary["kind"] == "live"
        assert summary["strings"] == len(corpus)
        assert summary["memtable"] == 1
        assert summary["tombstones"] == 1
        assert summary["epoch"] == 2

    def test_repr_mentions_the_layout(self):
        corpus = LiveCorpus(DATASET)
        text = repr(corpus)
        assert "segments=1" in text
        assert f"strings={len(DATASET)}" in text
