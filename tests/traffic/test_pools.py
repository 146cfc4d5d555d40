"""Unit tests for the per-shard worker pools."""

import sys
import threading
import time

import pytest

from repro.core.deadline import Deadline
from repro.core.planner import PlannerPolicy
from repro.core.request import SearchRequest
from repro.core.sequential import SequentialScanSearcher
from repro.exceptions import ReproError
from repro.scan.corpus import CompiledCorpus
from repro.service.service import Service
from repro.service.sharding import ShardedCorpus
from repro.traffic.pools import ShardPools

DATASET = ["Berlin", "Bern", "Bonn", "Ulm", "Hamburg", "Bremen",
           "Dresden", "Berlingen", "Bernburg", "Uelzen"] * 3

QUERIES = ["Berlino", "Bern", "Ulme", "Hamburq", "Dresden"]


def reference_row(query, k):
    return tuple(SequentialScanSearcher(DATASET).search(query, k))


class TestThreadPools:
    def test_results_match_reference_scan(self):
        with ShardPools(DATASET, shards=3) as pools:
            for query in QUERIES:
                result = pools.submit(SearchRequest(query, 2)) \
                    .result(timeout=30)
                assert result.status == "complete"
                assert result.verified
                assert result.matches == reference_row(query, 2)

    def test_batch_drain_amortizes_duplicates(self):
        # A pre-filled queue of duplicates must drain in few batches
        # and the shard executors must dedup the repeated query.
        pools = ShardPools(DATASET, shards=2, batch_limit=16)
        try:
            tickets = [pools.submit(SearchRequest("Berlino", 2))
                       for _ in range(16)]
            for ticket in tickets:
                assert ticket.result(timeout=30).status == "complete"
            counters = pools.counters_snapshot()
            assert counters["pool.served"] == 16
            assert counters["pool.batches"] < counters["pool.batched_tasks"]
        finally:
            pools.close()

    def test_mixed_k_batches_grouped_correctly(self):
        with ShardPools(DATASET, shards=2, batch_limit=8) as pools:
            tickets = [
                pools.submit(SearchRequest(query, k))
                for query in QUERIES for k in (1, 2)
            ]
            for ticket in tickets:
                result = ticket.result(timeout=30)
                assert result.matches \
                    == reference_row(result.query, result.k)

    def test_expired_deadline_yields_partial(self):
        pools = ShardPools(DATASET, shards=2, workers_per_shard=1)
        try:
            # A dead wall-clock deadline cannot wait for any shard.
            ticket = pools.submit(
                SearchRequest("Berlino", 2, deadline=Deadline(0.0)))
            result = ticket.result()
            assert result.status in ("partial", "complete")
            if result.status == "partial":
                assert result.verified
                reference = set(reference_row("Berlino", 2))
                assert set(result.matches) <= reference
        finally:
            pools.close()

    def test_queue_depth_counts_outstanding_requests(self):
        with ShardPools(DATASET, shards=2) as pools:
            assert pools.queue_depth() == 0
            ticket = pools.submit(SearchRequest("Berlino", 2))
            ticket.result(timeout=30)
            deadline = time.monotonic() + 5
            while pools.queue_depth() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pools.queue_depth() == 0

    def test_empty_shards_resolve_to_empty_rows(self):
        with ShardPools(["Bern"], shards=4) as pools:
            result = pools.submit(SearchRequest("Bern", 0)) \
                .result(timeout=30)
            assert result.status == "complete"
            assert [m.string for m in result.matches] == ["Bern"]

    def test_submit_after_close_raises(self):
        pools = ShardPools(DATASET, shards=2)
        pools.close()
        with pytest.raises(ReproError):
            pools.submit(SearchRequest("Berlino", 2))

    def test_batch_requests_rejected(self):
        with ShardPools(DATASET, shards=2) as pools:
            with pytest.raises(ReproError):
                pools.submit(SearchRequest(("a", "b"), 1))

    def test_accepts_prebuilt_sharded_corpus(self):
        corpus = ShardedCorpus(DATASET, 2)
        with ShardPools(corpus) as pools:
            assert pools.corpus is corpus

    def test_validation(self):
        with pytest.raises(ReproError):
            ShardPools(DATASET, kind="fiber")
        with pytest.raises(ReproError):
            ShardPools(DATASET, workers_per_shard=0)
        with pytest.raises(ReproError):
            ShardPools(DATASET, batch_limit=0)
        # Process parallelism is the batch runners', not the crews'.
        with pytest.raises(ReproError, match="ProcessPoolRunner"):
            ShardPools(DATASET, kind="process")


class TestSharedShardSearchers:
    """The crews answer through the corpus's own shard searchers."""

    def test_service_and_pools_compile_each_shard_once(self, monkeypatch):
        builds = []
        build = CompiledCorpus.__init__

        def counted(corpus, *args, **kwargs):
            builds.append(1)
            build(corpus, *args, **kwargs)

        monkeypatch.setattr(CompiledCorpus, "__init__", counted)
        service = Service(DATASET, shards=2)
        with ShardPools(service.corpus) as pools:
            pooled = pools.submit(SearchRequest("Berlino", 2)) \
                .result(timeout=30)
        laddered = service.submit(
            "Berlino", 2, plan=PlannerPolicy(strategy="compiled"))
        assert laddered.plan == "compiled"
        assert pooled.matches == laddered.matches \
            == reference_row("Berlino", 2)
        assert len(builds) == 2  # one per shard, shared by both paths

    def test_segment_backed_shards_match_reference(self, tmp_path):
        corpus = ShardedCorpus(DATASET, 2, segment_dir=str(tmp_path))
        with ShardPools(corpus) as pools:
            for query in QUERIES:
                result = pools.submit(SearchRequest(query, 2)) \
                    .result(timeout=30)
                assert result.status == "complete"
                assert result.matches == reference_row(query, 2)
        # One segment file per shard, mmap-loaded on every later start.
        segments = sorted(path.name for path in tmp_path.iterdir())
        assert segments == ["shard-0000.seg", "shard-0001.seg"]

    def test_ladder_and_crews_share_searchers_under_contention(self):
        # Four ladder threads and three workers per shard hit the same
        # shard searchers at once; a lost stats update or a torn memo
        # row would show below.
        service = Service(DATASET, shards=2)
        compiled = PlannerPolicy(strategy="compiled")
        jobs = [(query, k) for query in QUERIES for k in (1, 2)] * 4
        answers: list = []
        barrier = threading.Barrier(5)

        def ladder():
            barrier.wait(timeout=30)
            for query, k in jobs[:10]:
                answers.append(service.submit(query, k, plan=compiled))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ShardPools(service.corpus, workers_per_shard=3,
                            batch_limit=4) as pools:
                threads = [threading.Thread(target=ladder)
                           for _ in range(4)]
                for thread in threads:
                    thread.start()
                barrier.wait(timeout=30)
                tickets = [pools.submit(SearchRequest(query, k))
                           for query, k in jobs]
                answers.extend(ticket.result(timeout=60)
                               for ticket in tickets)
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(answers) == 4 * 10 + len(jobs)
        for result in answers:
            assert result.complete
            assert result.matches == reference_row(result.query, result.k)
        for shard in range(2):
            stats = service.corpus.searcher_for("compiled", shard) \
                .executor.stats
            assert stats.queries_seen == 4 * 10 + len(jobs)
