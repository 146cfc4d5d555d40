"""Unit tests for the unified SearchRequest/SearchOptions surface."""

import pytest

from repro.core.deadline import Budget, Deadline
from repro.core.engine import SearchEngine
from repro.core.planner import PlannerPolicy
from repro.core.request import (
    DEFAULT_OPTIONS,
    SearchOptions,
    SearchRequest,
    as_request,
)
from repro.data.workload import Workload
from repro.exceptions import InvalidThresholdError, ReproError

CITIES = ["Berlin", "Bern", "Ulm", "Hamburg", "Bremen", "Dresden"]


class TestSearchRequest:
    def test_single_query(self):
        request = SearchRequest("Berlino", 2)
        assert not request.is_batch
        assert request.queries == ("Berlino",)

    def test_batch_query(self):
        request = SearchRequest(["Bern", "Ulm"], 1)
        assert request.is_batch
        assert request.query == ("Bern", "Ulm")

    def test_threshold_validated_at_construction(self):
        with pytest.raises(InvalidThresholdError):
            SearchRequest("q", -1)

    def test_plan_strategy_validated(self):
        with pytest.raises(ReproError):
            SearchRequest("q", 1, plan=PlannerPolicy(strategy="bogus"))

    def test_non_string_batch_item_rejected(self):
        with pytest.raises(ReproError):
            SearchRequest(["ok", 42], 1)

    def test_from_workload(self):
        workload = Workload(("Bern", "Ulm"), 1)
        request = SearchRequest.from_workload(workload)
        assert request.queries == ("Bern", "Ulm")
        assert request.k == 1

    def test_with_options(self):
        request = SearchRequest("q", 1).with_options(report=True)
        assert request.options.report
        assert request.options.allow_partial  # untouched default

    def test_frozen(self):
        request = SearchRequest("q", 1)
        with pytest.raises(AttributeError):
            request.k = 2


class TestCanonicalIdentity:
    """Equality/hash must agree with cache keys and dedup (regression:
    two spellings of the same request used to compare unequal)."""

    def test_default_options_explicit_or_implicit(self):
        implicit = SearchRequest("q", 1)
        explicit = SearchRequest("q", 1, options=SearchOptions())
        assert implicit == explicit
        assert hash(implicit) == hash(explicit)

    def test_options_value_equality(self):
        one = SearchRequest("q", 1,
                            options=SearchOptions(report=True))
        two = SearchRequest("q", 1,
                            options=SearchOptions(report=True))
        assert one == two
        assert hash(one) == hash(two)

    def test_differing_options_differ(self):
        plain = SearchRequest("q", 1)
        reporting = SearchRequest("q", 1,
                                  options=SearchOptions(report=True))
        assert plain != reporting

    def test_auto_policy_equals_none(self):
        assert SearchRequest("q", 1, plan=PlannerPolicy()) \
            == SearchRequest("q", 1)
        assert hash(SearchRequest("q", 1, plan=PlannerPolicy())) \
            == hash(SearchRequest("q", 1))

    def test_forced_strategy_distinguishes(self):
        assert SearchRequest(
            "q", 1, plan=PlannerPolicy(strategy="compiled")) \
            != SearchRequest("q", 1)

    def test_deadline_is_execution_context_not_identity(self):
        bounded = SearchRequest("q", 1, deadline=Deadline(5.0))
        unbounded = SearchRequest("q", 1)
        assert bounded == unbounded
        assert hash(bounded) == hash(unbounded)

    def test_query_and_k_still_distinguish(self):
        assert SearchRequest("q", 1) != SearchRequest("q", 2)
        assert SearchRequest("q", 1) != SearchRequest("p", 1)

    def test_dedup_in_sets_and_dicts(self):
        requests = [
            SearchRequest("q", 1),
            SearchRequest("q", 1, plan=PlannerPolicy()),
            SearchRequest("q", 1, deadline=Deadline(1.0)),
            SearchRequest("q", 1, options=SearchOptions()),
            SearchRequest("q", 2),
        ]
        assert len(set(requests)) == 2

    def test_not_equal_to_other_types(self):
        assert SearchRequest("q", 1) != ("q", 1)


class TestAsRequest:
    def test_legacy_form(self):
        request = as_request("Berlino", 2)
        assert request.query == "Berlino"
        assert request.k == 2
        assert request.options is DEFAULT_OPTIONS

    def test_request_passthrough(self):
        original = SearchRequest("q", 1)
        assert as_request(original) is original

    def test_request_plus_k_conflicts(self):
        with pytest.raises(ReproError, match="inside the SearchRequest"):
            as_request(SearchRequest("q", 1), 3)

    @pytest.mark.parametrize("kwargs", [
        {"deadline": Deadline(1.0)},
        {"plan": PlannerPolicy(strategy="compiled")},
        {"options": SearchOptions(report=True)},
    ])
    def test_request_plus_kwarg_conflicts(self, kwargs):
        with pytest.raises(ReproError, match="inside the SearchRequest"):
            as_request(SearchRequest("q", 1), **kwargs)

    def test_k_required_without_request(self):
        with pytest.raises(ReproError, match="k is required"):
            as_request("q")

    def test_batch_rejects_bare_string(self):
        with pytest.raises(ReproError):
            as_request("q", 1, batch=True)


class TestEngineAcceptsRequests:
    def test_search_request_equals_legacy(self):
        engine = SearchEngine(CITIES)
        legacy = engine.search("Berlino", 2)
        via_request = engine.search(SearchRequest("Berlino", 2))
        assert legacy == via_request

    def test_search_many_request_equals_legacy(self):
        engine = SearchEngine(CITIES)
        legacy = engine.search_many(["Bern", "Ulm"], 1)
        via_request = engine.search_many(SearchRequest(("Bern", "Ulm"), 1))
        assert legacy == via_request

    def test_run_workload_request_equals_legacy(self):
        engine = SearchEngine(CITIES)
        workload = Workload(("Bern", "Ulm"), 1)
        legacy = engine.run_workload(workload)
        via_request = engine.run_workload(
            SearchRequest.from_workload(workload))
        assert legacy == via_request

    def test_batch_request_through_search_delegates(self):
        engine = SearchEngine(CITIES)
        results = engine.search(SearchRequest(("Bern", "Ulm"), 1))
        assert results == engine.search_many(["Bern", "Ulm"], 1)

    def test_options_report_returns_pair(self):
        engine = SearchEngine(CITIES)
        request = SearchRequest("Berlino", 2,
                                options=SearchOptions(report=True))
        matches, report = engine.search(request)
        assert report.mode == "search"
        assert report.matches == len(matches)

    def test_legacy_report_flag_still_works(self):
        engine = SearchEngine(CITIES)
        matches, report = engine.search("Berlino", 2, report=True)
        assert report.queries == 1

    def test_report_flag_conflicts_with_request(self):
        engine = SearchEngine(CITIES)
        with pytest.raises(ReproError):
            engine.search(SearchRequest("q", 1), report=True)

    def test_per_request_plan_on_single_search(self):
        engine = SearchEngine(CITIES)
        planned = engine.search(
            SearchRequest("Berlino", 2,
                          plan=PlannerPolicy(strategy="indexed"))
        )
        assert engine.last_report.backend == "indexed"
        assert planned == engine.search("Berlino", 2)

    def test_deadline_kwarg_reaches_backend(self):
        engine = SearchEngine(CITIES)
        from repro.exceptions import DeadlineExceeded

        with pytest.raises(DeadlineExceeded):
            engine.search("Berlino", 2,
                          deadline=Budget(0, check_interval=1))
