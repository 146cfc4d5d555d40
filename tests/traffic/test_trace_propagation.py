"""Trace propagation across the stack's concurrency boundaries.

Each serving layer crosses a boundary that drops thread-local state:
the gateway hops from the event loop into executor threads, shard
pools hand tickets to worker threads, and the live corpus compacts on
a background thread. These tests pin the contract that one submit (or
one ingest burst) still yields one coherent span tree, and that
tracing enabled-but-unsampled stays on the null fast path.
"""

import asyncio
import sys
import threading

from repro.core.planner import PlannerPolicy
from repro.core.request import SearchRequest
from repro.live.corpus import LiveCorpus
from repro.obs.events import EventLog
from repro.obs.tracing import (
    TraceContext,
    Tracer,
    span_tree,
    trace_span,
    use_trace,
)
from repro.service.service import Service
from repro.traffic.gateway import AsyncService
from repro.traffic.pools import ShardPools

DATASET = ["Berlin", "Bern", "Bonn", "Ulm", "Hamburg", "Bremen",
           "Dresden", "Berlingen", "Bernburg", "Uelzen"] * 3


class TestGatewayLadderTrace:
    """asyncio -> thread: one submit, one tree, events stamped."""

    def test_one_submit_yields_one_tree(self):
        tracer = Tracer()
        events = EventLog()
        service = Service(DATASET, shards=2)
        gateway = AsyncService(service, tracer=tracer, events=events)
        result = asyncio.run(gateway.submit("Berlino", 2))
        assert result.status == "complete"
        spans = tracer.spans()
        trace_ids = {span.trace_id for span in spans}
        assert len(trace_ids) == 1
        tree = span_tree(spans)
        assert [root.name for root in tree.roots] == ["gateway.submit"]
        depths = {span.name: depth for depth, span in tree.walk()}
        # The ladder ran in an executor thread, yet its spans sit
        # under the gateway root minted on the event loop.
        assert depths["service.submit"] == 1
        assert any(name.startswith("service.attempt[")
                   and depth == 2 for name, depth in depths.items())
        assert any(name.startswith("shard[") for name in depths)

    def test_event_lines_share_the_submit_trace_id(self):
        tracer = Tracer()
        events = EventLog()
        service = Service(DATASET, shards=2)
        gateway = AsyncService(service, tracer=tracer, events=events)
        asyncio.run(gateway.submit("Berlino", 2))
        trace_id = tracer.spans()[0].trace_id
        kinds = {event["kind"] for event in events.for_trace(trace_id)}
        assert "admission" in kinds
        assert "ladder_rung" in kinds

    def test_untraced_gateway_still_answers(self):
        service = Service(DATASET, shards=2)
        gateway = AsyncService(service)
        result = asyncio.run(gateway.submit("Berlino", 2))
        assert result.status == "complete"


class TestConcurrentServiceSubmits:
    """Concurrent submits on one service: one whole tree per submit."""

    def test_each_submit_is_one_tree_down_to_the_searcher(self):
        tracer = Tracer()
        service = Service(DATASET, shards=2, tracer=tracer)
        service.submit("Berlino", 2)  # build the shard searchers once
        tracer.reset()
        queries = ["Berlino", "Bern", "Bremn", "Ulmm"]
        barrier = threading.Barrier(len(queries))
        statuses: dict[str, str] = {}

        def submit(query: str) -> None:
            barrier.wait(timeout=30)
            statuses[query] = service.submit(
                query, 2, plan=PlannerPolicy(strategy="indexed")).status

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit, args=(query,))
                       for query in queries]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert statuses == dict.fromkeys(queries, "complete")
        spans = tracer.spans()
        trace_ids = {span.trace_id for span in spans}
        assert len(trace_ids) == len(queries)
        for trace_id in trace_ids:
            tree = span_tree(spans, trace_id=trace_id)
            assert [root.name for root in tree.roots] == ["service.submit"]
            by_id = {span.span_id: span for span in tree.spans}
            searches = [span for span in tree.spans
                        if span.name == "index.probe"]
            assert len(searches) == 2  # one per shard
            for search in searches:
                shard = by_id[search.parent_id]
                assert shard.name.startswith("shard[")
                assert by_id[shard.parent_id].name \
                    == "service.attempt[flat]"
                # The whole chain ran on the submitting thread.
                assert search.tid == tree.roots[0].tid


class TestPoolProcessTrace:
    """thread -> pool worker: shard spans join the submitter's tree."""

    def test_thread_pools_record_shard_spans(self):
        tracer = Tracer()
        pools = ShardPools(DATASET, shards=2, kind="thread")
        try:
            with tracer.root("client.submit"):
                ticket = pools.submit(SearchRequest("Berlino", 2))
            ticket.result(timeout=60)
        finally:
            pools.close()
        tree = span_tree(tracer.spans())
        assert [root.name for root in tree.roots] == ["client.submit"]
        depths = {span.name: depth for depth, span in tree.walk()}
        # The workers' one span per ticket and shard covers the scan.
        assert depths == {"client.submit": 0, "pool.shard[0]": 1,
                          "pool.shard[1]": 1}


class TestBackgroundCompactionTrace:
    """Background compaction spans land in the triggering trace."""

    def test_compaction_span_joins_the_ingest_tree(self):
        tracer = Tracer()
        corpus = LiveCorpus(compaction="background",
                            flush_threshold=2, fanout=2)
        with tracer.root("client.ingest") as root:
            for word in ("Aachen", "Augsburg", "Ansbach", "Altena"):
                corpus.insert(word)
            corpus.drain_compaction()
        spans = tracer.spans()
        by_name = {span.name: span for span in spans}
        assert "live.compaction" in by_name
        compaction = by_name["live.compaction"]
        assert compaction.trace_id == root.trace_id
        tree = span_tree(spans)
        assert [r.name for r in tree.roots] == ["client.ingest"]
        depths = {span.name: depth for depth, span in tree.walk()}
        assert depths["live.compaction"] >= 1
        assert "live.flush" in depths

    def test_untraced_ingest_compacts_quietly(self):
        corpus = LiveCorpus(compaction="background",
                            flush_threshold=2, fanout=2)
        for word in ("Aachen", "Augsburg", "Ansbach", "Altena"):
            corpus.insert(word)
        corpus.drain_compaction()
        assert len(corpus.segment_sizes()) == 1


class TestUnsampledOverhead:
    """Enabled-but-unsampled tracing must stay on the null fast path.

    What full tracing costs is measured by the e2e benchmark
    (``obs.tracing_overhead_ratio``); unit tests pin the *mechanism*
    that keeps the unsampled path cheap — the shared null span, and no
    span minted or recorded, counted rather than timed.
    """

    def test_unsampled_submit_records_nothing(self):
        tracer = Tracer(sample_rate=0.0)
        service = Service(DATASET, shards=2)
        with use_trace(tracer, tracer.mint()):
            result = service.submit(SearchRequest("Berlino", 2))
        assert result.status == "complete"
        assert tracer.spans() == ()

    def test_unsampled_trace_span_is_the_shared_null(self):
        tracer = Tracer(sample_rate=0.0)
        with use_trace(tracer, tracer.mint()):
            assert trace_span("scan.query") is trace_span("merge")

    def test_unsampled_path_mints_no_spans(self, monkeypatch):
        calls = []

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        service = Service(DATASET, shards=2)
        request = SearchRequest("Berlino", 2)
        tracer = Tracer(sample_rate=0.0)
        context = tracer.mint()
        counted(Tracer, "record_span")
        counted(TraceContext, "child")
        with use_trace(tracer, context):
            for _ in range(40):
                assert service.submit(request).status == "complete"
        assert calls == []
