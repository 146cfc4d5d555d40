"""The degradation ladder: fallbacks and honest labels."""

from dataclasses import dataclass, field

import pytest

from repro.core.deadline import Budget
from repro.core.planner import PlannerPolicy
from repro.core.request import SearchOptions, SearchRequest
from repro.core.result import Match
from repro.core.sequential import SequentialScanSearcher
from repro.exceptions import (
    DeadlineExceeded,
    PartialResultError,
    ReproError,
)
from repro.obs.events import EventLog
from repro.service import (
    BackendPlan,
    FilterOnlyPlan,
    PlanResult,
    Service,
    default_ladder,
)
from repro.service.sharding import STRATEGY_PLAN_KIND

DATASET = ["Berlin", "Berlyn", "Bern", "Merlin", "Ulm", "Hamburg"] * 4


@dataclass
class ScriptedPlan:
    """Test double: raises per script, then succeeds."""

    name: str
    failures: list = field(default_factory=list)
    matches: tuple = (Match("Berlin", 1),)
    calls: int = 0

    def run(self, corpus, query, k, deadline):
        self.calls += 1
        if self.failures:
            raise self.failures.pop(0)
        return PlanResult(plan=self.name, matches=self.matches,
                          verified=True)


class TestLadderFallback:
    def test_first_rung_success_is_complete(self):
        service = Service(DATASET, shards=2)
        result = service.submit("Berlino", 2)
        assert result.status == "complete"
        assert result.verified
        # The planner's choice is the rung that answered.
        choice = service.planner.plan_queries(["Berlino"], 2).strategy
        assert result.plan == STRATEGY_PLAN_KIND[choice]

    def test_results_verified_correct_down_the_ladder(self):
        # Whatever rung answers, an exact-status result must equal the
        # plain reference searcher's answer.
        reference = set(SequentialScanSearcher(sorted(set(DATASET)))
                        .search("Berlino", 2))
        for plans in ([BackendPlan("flat")], [BackendPlan("compiled")],
                      [BackendPlan("sequential")], default_ladder()):
            service = Service(DATASET, shards=3, plans=plans)
            result = service.submit("Berlino", 2)
            assert result.complete
            assert set(result.matches) == reference

    def test_expiry_degrades_to_next_rung(self):
        flaky = ScriptedPlan("flaky", failures=[
            DeadlineExceeded("expired", partial=(Match("Bern", 2),)),
        ])
        solid = ScriptedPlan("solid")
        service = Service(DATASET, plans=[flaky, solid])
        result = service.submit("Berlino", 2)
        assert result.status == "degraded"
        assert result.plan == "solid"
        assert flaky.calls == 1  # expiry does not retry the same rung
        assert result.attempts == 2

    def test_erroring_rung_degrades_without_retry(self):
        # A rung is a pure function of immutable shards, so an error
        # would only repeat: the rung runs once, the next one answers.
        events = EventLog()
        always_down = ScriptedPlan("down", failures=[
            ReproError("boom")] * 10)
        solid = ScriptedPlan("solid")
        service = Service(DATASET, plans=[always_down, solid],
                          events=events)
        result = service.submit("Berlino", 2)
        assert result.status == "degraded"
        assert result.plan == "solid"
        assert always_down.calls == 1
        assert result.attempts == 2
        rungs = [event["outcome"] for event in events.events()
                 if event["kind"] == "ladder_rung"]
        assert rungs == ["error", "degraded"]

    def test_full_default_ladder_ends_in_candidates(self):
        service = Service(DATASET, shards=2)
        result = service.submit("Berlino", 2,
                                deadline=Budget(0, check_interval=1))
        assert result.status == "candidates"
        assert not result.verified
        assert result.plan == "filter-only"
        # Candidates are a superset of the exact answer.
        exact = {m.string for m in SequentialScanSearcher(
            sorted(set(DATASET))).search("Berlino", 2)}
        assert exact <= {m.string for m in result.matches}

    def test_exhausted_ladder_surfaces_best_partial(self):
        first = ScriptedPlan("a", failures=[
            DeadlineExceeded("expired", partial=(Match("Bern", 2),))])
        second = ScriptedPlan("b", failures=[
            DeadlineExceeded("expired", partial=(
                Match("Bern", 2), Match("Berlin", 1)))])
        service = Service(DATASET, plans=[first, second])
        result = service.submit("Berlino", 2)
        assert result.status == "partial"
        assert result.verified
        assert set(result.matches) == {Match("Bern", 2),
                                       Match("Berlin", 1)}

    def test_allow_partial_false_raises_with_result_attached(self):
        service = Service(DATASET, shards=2)
        with pytest.raises(PartialResultError) as caught:
            service.submit(SearchRequest(
                "Berlino", 2, deadline=Budget(0, check_interval=1),
                options=SearchOptions(allow_partial=False)))
        refused = caught.value.result
        assert refused.status == "candidates"

    def test_plan_policy_promotes_rung(self):
        service = Service(DATASET, shards=2)
        result = service.submit(
            "Berlino", 2, plan=PlannerPolicy(strategy="compiled"))
        assert result.status == "complete"
        assert result.plan == "compiled"


class TestFilterOnlyPlan:
    def test_superset_and_lower_bound_distances(self):
        from repro.service.sharding import ShardedCorpus

        corpus = ShardedCorpus(DATASET, shards=2)
        outcome = FilterOnlyPlan().run(corpus, "Berlino", 2, None)
        assert not outcome.verified
        exact = SequentialScanSearcher(sorted(set(DATASET))).search(
            "Berlino", 2)
        candidates = {m.string: m.distance for m in outcome.matches}
        for match in exact:
            assert match.string in candidates
            assert candidates[match.string] <= match.distance
