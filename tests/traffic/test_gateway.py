"""Unit tests for the asyncio traffic gateway."""

import asyncio

import pytest

from repro.core.request import SearchRequest
from repro.core.sequential import SequentialScanSearcher
from repro.exceptions import ReproError, ServiceOverloaded
from repro.obs.registry import MetricsRegistry
from repro.obs.report import validate_report
from repro.service import Service
from repro.traffic import (
    AsyncService,
    LoadShedder,
    ResultCache,
    ShardPools,
    Watermarks,
)

DATASET = ["Berlin", "Bern", "Bonn", "Ulm", "Hamburg", "Bremen",
           "Dresden", "Berlingen"] * 3


def run(coro):
    return asyncio.run(coro)


def make_gateway(**kwargs):
    service = Service(DATASET, shards=2)
    return AsyncService(service, **kwargs)


class TestSubmit:
    def test_ladder_path_matches_reference(self):
        gateway = make_gateway()
        result = run(gateway.submit("Berlino", 2))
        assert result.status == "complete"
        assert result.matches \
            == tuple(SequentialScanSearcher(DATASET).search("Berlino", 2))

    def test_pool_path_matches_reference(self):
        service = Service(DATASET, shards=2)
        pools = ShardPools(service.corpus)
        try:
            gateway = AsyncService(service, pools=pools)
            result = run(gateway.submit("Berlino", 2))
            assert result.status == "complete"
            assert result.plan == "pool[thread]"
            assert result.matches == tuple(
                SequentialScanSearcher(DATASET).search("Berlino", 2))
        finally:
            pools.close()

    def test_batch_requests_rejected(self):
        gateway = make_gateway()
        with pytest.raises(ReproError):
            run(gateway.submit(SearchRequest(("a", "b"), 1)))


class TestCachePath:
    def test_second_submit_answers_from_cache(self):
        cache = ResultCache()
        gateway = make_gateway(cache=cache)

        async def twice():
            first = await gateway.submit("Berlino", 2)
            second = await gateway.submit("Berlino", 2)
            return first, second

        first, second = run(twice())
        assert second is first
        counters = gateway.counters_snapshot()
        assert counters["service.gateway.cache_answers"] == 1
        assert cache.counters_snapshot()["service.cache.hits"] == 1

    def test_hit_count_parity_with_cache_counters(self):
        cache = ResultCache()
        gateway = make_gateway(cache=cache)

        async def workload():
            for query in ["a", "b", "a", "a", "b", "c"]:
                await gateway.submit(query, 1)

        run(workload())
        gateway_hits = gateway.counters_snapshot()[
            "service.gateway.cache_answers"]
        cache_hits = cache.counters_snapshot()["service.cache.hits"]
        assert gateway_hits == cache_hits == 3

    def test_cache_hit_ignores_policy_and_deadline_spelling(self):
        from repro.core.deadline import Deadline
        from repro.core.planner import PlannerPolicy

        cache = ResultCache()
        gateway = make_gateway(cache=cache)

        async def spellings():
            await gateway.submit("Berlino", 2)
            return await gateway.submit(SearchRequest(
                "Berlino", 2, plan=PlannerPolicy(strategy="compiled"),
                deadline=Deadline(5.0)))

        run(spellings())
        assert cache.counters_snapshot()["service.cache.hits"] == 1


class TestSheddingPath:
    def make(self):
        return make_gateway(
            shedder=LoadShedder(Watermarks(shed_depth=1, reject_depth=3)))

    def test_degrade_to_floor_is_honestly_labeled(self):
        gateway = self.make()
        gateway._pending = 1  # simulated backlog at decision time
        result = run(gateway.submit("Berlino", 2))
        assert result.status == "candidates"
        assert not result.verified
        assert result.plan == "filter-only[shed]"
        assert gateway.counters_snapshot()[
            "service.gateway.floor_answers"] == 1

    def test_floor_candidates_are_a_superset(self):
        gateway = self.make()
        gateway._pending = 1
        result = run(gateway.submit("Berlino", 2))
        exact = {m.string for m in
                 SequentialScanSearcher(DATASET).search("Berlino", 2)}
        assert exact <= {m.string for m in result.matches}

    def test_reject_with_retry_after(self):
        gateway = self.make()
        gateway._pending = 3
        with pytest.raises(ServiceOverloaded) as caught:
            run(gateway.submit("Berlino", 2))
        assert caught.value.retry_after_ms is not None
        assert caught.value.retry_after_ms > 0
        assert gateway.counters_snapshot()[
            "service.gateway.rejections"] == 1

    def test_cache_hits_bypass_shedding(self):
        cache = ResultCache()
        gateway = make_gateway(
            cache=cache,
            shedder=LoadShedder(Watermarks(shed_depth=1, reject_depth=2)))
        run(gateway.submit("Berlino", 2))
        gateway._pending = 5  # deep backlog — but the answer is cached
        result = run(gateway.submit("Berlino", 2))
        assert result.status == "complete"

    def test_completions_feed_the_drain_estimator(self):
        shedder = LoadShedder(Watermarks())
        gateway = make_gateway(shedder=shedder)
        run(gateway.submit("Berlino", 2))
        assert shedder.estimator.observations == 1


class TestSubmitMany:
    def test_results_in_request_order(self):
        gateway = make_gateway()
        requests = [SearchRequest(q, 1) for q in ["Bern", "Ulm", "Bonn"]]
        results = run(gateway.submit_many(requests))
        assert [r.query for r in results] == ["Bern", "Ulm", "Bonn"]

    def test_open_loop_arrivals_schedule_launches(self):
        gateway = make_gateway()
        requests = [SearchRequest("Bern", 1) for _ in range(3)]
        results = run(gateway.submit_many(
            requests, arrivals=[0.0, 0.005, 0.01]))
        assert all(r.status == "complete" for r in results)

    def test_rejections_are_returned_not_raised(self):
        gateway = make_gateway(
            shedder=LoadShedder(Watermarks(shed_depth=1, reject_depth=1)))
        gateway._pending = 5
        results = run(gateway.submit_many(
            [SearchRequest("Bern", 1), SearchRequest("Ulm", 1)]))
        assert all(isinstance(r, ServiceOverloaded) for r in results)

    def test_misaligned_arrivals_rejected(self):
        gateway = make_gateway()
        with pytest.raises(ReproError):
            run(gateway.submit_many([SearchRequest("Bern", 1)],
                                    arrivals=[0.0, 1.0]))


class TestObservability:
    def test_gauges_exported_to_registry(self):
        registry = MetricsRegistry()
        cache = ResultCache()
        gateway = make_gateway(cache=cache, metrics=registry)
        run(gateway.submit("Berlino", 2))
        gauges = registry.gauges()
        assert gauges["service.queue_depth"] == 0
        assert gauges["service.cache.size"] == 1

    def test_report_is_schema_valid_and_carries_gauges(self):
        cache = ResultCache()
        shedder = LoadShedder(Watermarks())
        gateway = make_gateway(cache=cache, shedder=shedder)
        run(gateway.submit("Berlino", 2))
        report = gateway.report(queries=1, k=2, matches=1)
        assert validate_report(report.to_dict()) == []
        assert report.gauges["service.queue_depth"] == 0.0
        assert report.gauges["service.cache.size"] == 1.0
        assert "service.cache.hits" in report.counters
        assert "service.shed.admitted" in report.counters
        assert "gateway.submit_seconds" in report.histograms

    def test_report_with_pools_folds_pool_series(self):
        service = Service(DATASET, shards=2)
        pools = ShardPools(service.corpus)
        try:
            gateway = AsyncService(service, pools=pools)
            run(gateway.submit("Berlino", 2))
            report = gateway.report()
            assert "pool.submitted" in report.counters
            assert "pool.batch_seconds" in report.histograms
            assert report.gauges["pool.workers"] >= 1
        finally:
            pools.close()
