"""Unit tests for the unified :class:`repro.live.Corpus` facade.

Covers the three constructors, the frozen/live split, and the uniform
surface every consuming layer relies on — plus the integrations: the
engine, the sharded corpus and the service all tracking a mutating
corpus by epoch.
"""

import pytest

from repro.core.engine import SearchEngine
from repro.core.sequential import SequentialScanSearcher
from repro.exceptions import FrozenCorpusError, ReproError, SegmentError
from repro.live import Corpus, LiveCorpus
from repro.scan.corpus import CompiledCorpus
from repro.service import Service, ShardedCorpus

DATASET = ["Berlin", "Bern", "Bonn", "Ulm", "Hamburg", "Bremen"]


def reference(strings, query, k):
    return [m.string for m in SequentialScanSearcher(strings)
            .search(query, k)]


class TestConstructors:
    def test_direct_construction_is_forbidden(self):
        with pytest.raises(ReproError):
            Corpus()

    def test_frozen_compiles_the_dataset(self):
        corpus = Corpus.frozen(DATASET)
        assert corpus.kind == "frozen"
        assert not corpus.mutable
        assert corpus.epoch == 0
        assert len(corpus) == len(DATASET)
        assert "Ulm" in corpus
        assert sorted(corpus) == sorted(DATASET)

    def test_frozen_wraps_a_prebuilt_compiled_corpus(self):
        compiled = CompiledCorpus(DATASET)
        corpus = Corpus.frozen(compiled)
        assert corpus.compiled_corpus is compiled
        assert corpus.live_corpus is None

    def test_frozen_with_segment_compiles_then_mmaps(self, tmp_path):
        path = str(tmp_path / "corpus.seg")
        first = Corpus.frozen(DATASET, segment=path)
        second = Corpus.frozen(DATASET, segment=path)
        assert sorted(first) == sorted(second) == sorted(DATASET)

    def test_live_is_mutable(self):
        corpus = Corpus.live(DATASET)
        assert corpus.kind == "live"
        assert corpus.mutable
        assert isinstance(corpus.live_corpus, LiveCorpus)
        assert corpus.compiled_corpus is None

    def test_open_dispatches_on_path_kind(self, tmp_path):
        directory = str(tmp_path / "live")
        Corpus.live(DATASET, segment_dir=directory).sync()
        reopened = Corpus.open(directory)
        assert reopened.mutable
        assert sorted(reopened) == sorted(DATASET)

        from repro.speed import save_segment

        path = str(tmp_path / "frozen.seg")
        save_segment(CompiledCorpus(DATASET), path)
        frozen = Corpus.open(path)
        assert not frozen.mutable
        assert sorted(frozen) == sorted(DATASET)

    def test_open_of_a_bare_directory_raises(self, tmp_path):
        with pytest.raises(SegmentError):
            Corpus.open(str(tmp_path))


class TestUniformSurface:
    def test_search_parity_between_kinds(self):
        frozen = Corpus.frozen(DATASET)
        live = Corpus.live(DATASET)
        for query in ("Berlino", "Ulm", "zzz"):
            expected = reference(DATASET, query, 2)
            assert [m.string for m in frozen.search(query, 2)] \
                == expected
            assert [m.string for m in live.search(query, 2)] \
                == expected

    def test_mutations_raise_on_frozen_with_guidance(self):
        corpus = Corpus.frozen(DATASET)
        with pytest.raises(FrozenCorpusError) as info:
            corpus.insert("Bonnn")
        assert "Corpus.live(...)" in str(info.value)
        for operation in (lambda: corpus.delete("Ulm"), corpus.flush,
                          corpus.compact, corpus.sync):
            with pytest.raises(FrozenCorpusError):
                operation()

    def test_live_mutations_flow_through(self):
        corpus = Corpus.live(DATASET)
        corpus.insert("Berlino")
        corpus.delete("Ulm")
        assert corpus.epoch == 2
        assert "Berlino" in corpus
        assert "Ulm" not in corpus
        corpus.flush()
        corpus.compact()
        assert corpus.live_corpus.segment_count == 1

    def test_frozen_membership_is_cached(self):
        corpus = Corpus.frozen(DATASET)
        assert corpus._members is None
        assert "Ulm" in corpus
        members = corpus._members
        assert members == frozenset(DATASET)
        assert "Paris" not in corpus
        # Repeated checks reuse the set instead of rebuilding it.
        assert corpus._members is members

    def test_subscribe_is_a_noop_on_frozen(self):
        events = []
        corpus = Corpus.frozen(DATASET)
        corpus.subscribe(events.append)
        corpus.unsubscribe(events.append)
        assert events == []

    def test_describe_labels_the_kind(self):
        assert Corpus.frozen(DATASET).describe()["kind"] == "frozen"
        assert Corpus.live(DATASET).describe()["kind"] == "live"

    def test_repr_mentions_the_kind(self):
        assert "frozen" in repr(Corpus.frozen(DATASET))
        assert "live" in repr(Corpus.live(DATASET))


class TestEngineIntegration:
    def test_engine_accepts_a_frozen_corpus(self):
        engine = SearchEngine(Corpus.frozen(DATASET))
        assert [m.string for m in engine.search("Berlino", 2)] \
            == reference(DATASET, "Berlino", 2)

    def test_engine_reuses_the_frozen_compiled_corpus(self):
        corpus = Corpus.frozen(DATASET)
        engine = SearchEngine(corpus, backend="compiled")
        assert engine.searcher.corpus is corpus.compiled_corpus

    def test_engine_tracks_live_mutations_by_epoch(self):
        corpus = Corpus.live(DATASET)
        engine = SearchEngine(corpus)
        assert engine.source_corpus is corpus
        assert [m.string for m in engine.search("Bonna", 1)] == ["Bonn"]
        corpus.insert("Bonna")
        corpus.delete("Bonn")
        assert [m.string for m in engine.search("Bonna", 1)] == ["Bonna"]

    def test_engine_replans_after_drift(self):
        corpus = Corpus.live(["aa", "bb"])
        engine = SearchEngine(corpus)
        for index in range(40):
            corpus.insert(f"string-{index:03d}")
        engine.search("aa", 1)
        # The refreshed statistics price the grown corpus.
        assert engine.plan("aa", 1).statistics["count"] \
            == corpus.live_corpus.distinct


class TestShardingIntegration:
    def test_sharded_corpus_repartitions_on_drift(self):
        corpus = Corpus.live(DATASET)
        sharded = ShardedCorpus(corpus, shards=2)
        assert sharded.source is corpus
        corpus.insert("Berlino")
        assert [m.string for m in sharded.search("Berlino", 0)] \
            == ["Berlino"]
        corpus.delete("Berlino")
        assert [m.string for m in sharded.search("Berlino", 0)] == []

    def test_refresh_reports_whether_anything_changed(self):
        corpus = Corpus.live(DATASET)
        sharded = ShardedCorpus(corpus, shards=2)
        assert sharded.refresh() is False
        corpus.insert("Berlino")
        assert sharded.refresh() is True
        assert sharded.refresh() is False

    def test_frozen_source_never_refreshes(self):
        sharded = ShardedCorpus(Corpus.frozen(DATASET), shards=2)
        assert sharded.refresh() is False

    def test_search_holds_one_view_across_a_concurrent_refresh(self):
        # Refresh swaps an immutable (strings, parts, searchers) view
        # atomically; a search that already captured a view must not
        # mix old parts with new searchers. Writers mutate while
        # readers search; every answer must be internally consistent:
        # exactly the matcher set of SOME corpus state, never a blend
        # that drops or duplicates the always-present anchor.
        import threading

        corpus = Corpus.live(["anchor"] + [f"aa{i:02d}" for i in range(8)])
        sharded = ShardedCorpus(corpus, shards=4)
        failures: list[str] = []
        stop = threading.Event()

        def writer():
            for index in range(200):
                if stop.is_set():
                    return
                corpus.insert(f"bb{index:03d}")
                if index % 3 == 0:
                    corpus.delete(f"bb{index:03d}")

        def reader():
            try:
                for _ in range(100):
                    matches = [m.string for m in
                               sharded.search("anchor", 0)]
                    if matches != ["anchor"]:
                        failures.append(repr(matches))
                        return
            except Exception as error:  # noqa: BLE001
                failures.append(repr(error))

        threads = [threading.Thread(target=writer)] \
            + [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        stop.set()
        assert failures == []


class TestServiceIntegration:
    def test_service_answers_over_a_live_corpus(self):
        corpus = Corpus.live(DATASET)
        service = Service(corpus, shards=2)
        result = service.submit("Berlino", 2)
        assert result.status == "complete"
        assert [m.string for m in result.matches] \
            == reference(DATASET, "Berlino", 2)

    def test_service_counts_corpus_refreshes(self):
        corpus = Corpus.live(DATASET)
        service = Service(corpus, shards=2)
        service.submit("Berlino", 2)
        corpus.insert("Berlinoo")
        result = service.submit("Berlinoo", 0)
        assert [m.string for m in result.matches] == ["Berlinoo"]
        counters = service.counters_snapshot()
        assert counters["service.corpus_refreshes"] == 1

    def test_frozen_corpus_service_never_refreshes(self):
        service = Service(Corpus.frozen(DATASET), shards=2)
        service.submit("Berlino", 2)
        service.submit("Ulm", 1)
        counters = service.counters_snapshot()
        assert counters["service.corpus_refreshes"] == 0
