"""Unit tests for the hot-query result cache."""

import pytest

from repro.core.deadline import Deadline
from repro.core.planner import PlannerPolicy
from repro.core.request import SearchOptions, SearchRequest
from repro.exceptions import ReproError
from repro.service.service import ServiceResult
from repro.traffic.cache import CACHE_COUNTERS, ResultCache, cache_key

COMPILED = PlannerPolicy(strategy="compiled")


def make_result(query="Berlino", k=2, status="complete",
                matches=(), verified=True):
    return ServiceResult(query=query, k=k, status=status,
                         matches=tuple(matches), verified=verified,
                         plan="flat", attempts=1)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestKeyNormalization:
    def test_planner_policy_dropped(self):
        assert cache_key(SearchRequest("q", 1, plan=COMPILED)) \
            == cache_key(SearchRequest("q", 1))

    def test_deadline_dropped(self):
        assert cache_key(SearchRequest("q", 1, deadline=Deadline(5))) \
            == cache_key(SearchRequest("q", 1))

    def test_default_options_explicit_or_implicit(self):
        assert cache_key(SearchRequest("q", 1,
                                       options=SearchOptions())) \
            == cache_key(SearchRequest("q", 1))

    def test_query_and_k_distinguish(self):
        assert cache_key(SearchRequest("q", 1)) \
            != cache_key(SearchRequest("q", 2))
        assert cache_key(SearchRequest("q", 1)) \
            != cache_key(SearchRequest("p", 1))

    def test_hit_across_spellings(self):
        cache = ResultCache()
        result = make_result()
        assert cache.put(SearchRequest("Berlino", 2), result)
        hit = cache.get(SearchRequest("Berlino", 2, plan=COMPILED,
                                      deadline=Deadline(5)))
        assert hit is result


class TestLRUEviction:
    def test_bounded_at_maxsize(self):
        cache = ResultCache(maxsize=2)
        for i in range(5):
            cache.put(SearchRequest(f"q{i}", 1), make_result(f"q{i}", 1))
        assert len(cache) == 2
        assert cache.counters_snapshot()["service.cache.evictions"] == 3

    def test_least_recently_used_goes_first(self):
        cache = ResultCache(maxsize=2)
        cache.put(SearchRequest("a", 1), make_result("a", 1))
        cache.put(SearchRequest("b", 1), make_result("b", 1))
        assert cache.get(SearchRequest("a", 1)) is not None  # refresh a
        cache.put(SearchRequest("c", 1), make_result("c", 1))  # evicts b
        assert cache.get(SearchRequest("a", 1)) is not None
        assert cache.get(SearchRequest("b", 1)) is None

    def test_restore_overwrites_in_place(self):
        cache = ResultCache(maxsize=2)
        first = make_result()
        second = make_result()
        request = SearchRequest("Berlino", 2)
        cache.put(request, first)
        cache.put(request, second)
        assert len(cache) == 1
        assert cache.get(request) is second

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ReproError):
            ResultCache(maxsize=0)


class TestTTLExpiry:
    def test_expires_after_ttl(self):
        clock = FakeClock()
        cache = ResultCache(ttl_seconds=10.0, clock=clock)
        request = SearchRequest("Berlino", 2)
        cache.put(request, make_result())
        clock.now = 9.9
        assert cache.get(request) is not None
        clock.now = 10.0
        assert cache.get(request) is None
        counters = cache.counters_snapshot()
        assert counters["service.cache.expirations"] == 1
        assert len(cache) == 0

    def test_hit_does_not_refresh_ttl(self):
        clock = FakeClock()
        cache = ResultCache(ttl_seconds=10.0, clock=clock)
        request = SearchRequest("Berlino", 2)
        cache.put(request, make_result())
        clock.now = 9.0
        assert cache.get(request) is not None
        clock.now = 10.5
        assert cache.get(request) is None

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        cache = ResultCache(clock=clock)
        request = SearchRequest("Berlino", 2)
        cache.put(request, make_result())
        clock.now = 1e9
        assert cache.get(request) is not None

    def test_bad_ttl_rejected(self):
        with pytest.raises(ReproError):
            ResultCache(ttl_seconds=0)


class TestHonestContents:
    @pytest.mark.parametrize("status", ["partial", "candidates"])
    def test_non_complete_results_refused(self, status):
        cache = ResultCache()
        request = SearchRequest("Berlino", 2)
        refused = make_result(status=status, verified=False)
        assert not cache.put(request, refused)
        assert len(cache) == 0
        assert cache.counters_snapshot()["service.cache.skips"] == 1

    def test_degraded_still_complete_hence_cached(self):
        cache = ResultCache()
        request = SearchRequest("Berlino", 2)
        assert cache.put(request, make_result(status="degraded"))


class TestCounterParity:
    def test_all_counters_present_from_birth(self):
        counters = ResultCache().counters_snapshot()
        assert set(counters) == set(CACHE_COUNTERS)
        assert all(value == 0 for value in counters.values())

    def test_hits_and_misses_add_up(self):
        cache = ResultCache()
        hits = misses = 0
        for i in range(20):
            request = SearchRequest(f"q{i % 3}", 1)
            if cache.get(request) is None:
                misses += 1
                cache.put(request, make_result(f"q{i % 3}", 1))
            else:
                hits += 1
        counters = cache.counters_snapshot()
        assert counters["service.cache.hits"] == hits
        assert counters["service.cache.misses"] == misses
        assert counters["service.cache.stores"] == misses
        assert hits + misses == 20


class TestInvalidation:
    def test_invalidate_everything(self):
        cache = ResultCache()
        for i in range(4):
            cache.put(SearchRequest(f"q{i}", 1), make_result(f"q{i}", 1))
        assert cache.invalidate() == 4
        assert len(cache) == 0
        assert cache.counters_snapshot()[
            "service.cache.invalidations"] == 4

    def test_invalidate_by_string_drops_only_matching_entries(self):
        from repro.core.result import Match

        cache = ResultCache()
        cache.put(SearchRequest("a", 1),
                  make_result("a", 1, matches=[Match("Berlin", 1)]))
        cache.put(SearchRequest("b", 1),
                  make_result("b", 1, matches=[Match("Bern", 0)]))
        assert cache.invalidate("Berlin") == 1
        assert cache.get(SearchRequest("a", 1)) is None
        assert cache.get(SearchRequest("b", 1)) is not None
