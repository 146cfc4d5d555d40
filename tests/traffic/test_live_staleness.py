"""The traffic stack never answers staler than a live corpus.

Two ways it used to: a submit overtaken by a write re-cached its
pre-write answer *after* the write's invalidation had run, and
:class:`ShardPools` compiled a live corpus's shards once and never
looked at it again.
"""

import asyncio
import threading

import pytest

from repro.exceptions import ReproError
from repro.live import Corpus
from repro.service import Service, ShardedCorpus
from repro.traffic import AsyncService, ResultCache, ShardPools

DATASET = ["Berlin", "Bern", "Bonn", "Ulm", "Hamburg", "Bremen"]


class TestOvertakenSubmit:
    @pytest.mark.parametrize("write", ["insert", "delete"])
    def test_answer_overtaken_by_a_write_is_not_cached(self, monkeypatch,
                                                       write):
        corpus = Corpus.live(DATASET)
        service = Service(corpus, shards=2)
        cache = ResultCache()
        gateway = AsyncService(service, cache=cache)
        answered = threading.Event()
        release = threading.Event()
        submit = service.submit

        def held_after_answering(request):
            result = submit(request)
            answered.set()
            assert release.wait(30)
            return result

        async def scenario():
            loop = asyncio.get_running_loop()
            monkeypatch.setattr(service, "submit", held_after_answering)
            in_flight = asyncio.create_task(gateway.submit("Ulm", 1))
            assert await loop.run_in_executor(None, answered.wait, 30)
            # The answer exists; the write (and its invalidation of a
            # still-empty cache) lands before the submit returns.
            if write == "insert":
                corpus.insert("Ulma")
            else:
                corpus.delete("Ulm")
            release.set()
            stale = await in_flight
            monkeypatch.setattr(service, "submit", submit)
            assert len(cache) == 0
            return stale, await gateway.submit("Ulm", 1)

        stale, fresh = asyncio.run(scenario())
        names = [match.string for match in fresh.matches]
        if write == "insert":
            assert names == ["Ulm", "Ulma"]
        else:
            assert names == []
        assert stale.matches != fresh.matches
        counters = cache.counters_snapshot()
        assert counters["service.cache.hits"] == 0
        assert counters["service.cache.misses"] == 2
        assert counters["service.cache.stores"] == 1

    def test_undisturbed_submit_is_still_cached(self):
        corpus = Corpus.live(DATASET)
        cache = ResultCache()
        gateway = AsyncService(Service(corpus, shards=2), cache=cache)

        async def scenario():
            corpus.insert("Ulma")
            first = await gateway.submit("Ulm", 1)
            return first, await gateway.submit("Ulm", 1)

        first, second = asyncio.run(scenario())
        assert second is first
        assert cache.counters_snapshot()["service.cache.hits"] == 1


class TestPoolsRefuseLiveCorpora:
    def test_live_source_raises_pointing_at_the_ladder(self):
        sharded = ShardedCorpus(Corpus.live(DATASET), shards=2)
        with pytest.raises(ReproError, match="ladder"):
            ShardPools(sharded)

    def test_frozen_corpus_source_is_served(self):
        sharded = ShardedCorpus(Corpus.frozen(DATASET), shards=2)
        with ShardPools(sharded) as pools:
            assert pools.corpus is sharded
