"""Tests for the cost-model query planner (`repro.core.planner`)."""

import dataclasses
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SearchEngine
from repro.core.planner import (
    AUTO_POLICY,
    BATCH_STRATEGIES,
    STRATEGIES,
    CostProfile,
    Planner,
    PlannerPolicy,
    QueryPlan,
    calibrate,
    collect_statistics,
    validate_plan,
)
from repro.core.request import SearchRequest
from repro.exceptions import ReproError
from repro.obs.report import validate_report


class TestCostProfile:
    def test_round_trip_through_disk(self, tmp_path):
        profile = CostProfile(seq_candidate=3.3e-6, trie_node=1.1e-6)
        path = profile.save(str(tmp_path / "profile.json"))
        loaded = CostProfile.load(path)
        assert loaded == profile
        assert loaded.seq_candidate == 3.3e-6
        assert loaded.trie_node == 1.1e-6

    def test_serialized_form_is_versioned(self, tmp_path):
        path = CostProfile().save(str(tmp_path / "p.json"))
        with open(path, encoding="utf-8") as handle:
            on_disk = json.load(handle)
        assert on_disk["profile_version"] == 1

    def test_future_version_rejected(self):
        mapping = CostProfile().to_dict()
        mapping["profile_version"] = 99
        with pytest.raises(ReproError):
            CostProfile.from_dict(mapping)

    def test_version_1_profile_with_removed_constants_loads(self):
        mapping = CostProfile(trie_node=1.1e-6).to_dict()
        mapping.update(qgram_posting=1.2e-7, qgram_setup=2.0e-5,
                       scan_row=8.0e-8)
        assert mapping["profile_version"] == 1
        assert CostProfile.from_dict(mapping) \
            == CostProfile(trie_node=1.1e-6, source="default")

    def test_non_positive_constants_rejected(self):
        with pytest.raises(ReproError):
            CostProfile(seq_candidate=0.0)

    def test_engine_accepts_a_profile_path(self, city_names, tmp_path):
        path = CostProfile().save(str(tmp_path / "p.json"))
        engine = SearchEngine(city_names, profile=path)
        assert engine.planner.profile == CostProfile()


class TestStatistics:
    def test_candidate_window_is_exact(self, city_names):
        stats = collect_statistics(city_names)
        for length, k in ((7, 0), (7, 2), (1, 4), (40, 2)):
            expected = sum(
                1 for s in city_names
                if length - k <= len(s) <= length + k
            )
            assert stats.candidates_in_window(length, k) == expected

    def test_trie_shape_is_the_character_tries(self, city_names,
                                               dna_reads):
        from repro.index.trie import PrefixTrie

        for dataset in (city_names, dna_reads, ["a", "ab", "ab", "b"], []):
            per_depth: dict[int, int] = {}
            frontier = list(PrefixTrie(dataset).root.children.values())
            depth = 0
            while frontier:
                per_depth[depth] = len(frontier)
                frontier = [child for node in frontier
                            for child in node.children.values()]
                depth += 1
            stats = collect_statistics(dataset)
            assert stats.nodes_by_depth == tuple(
                per_depth[d] for d in range(depth))
            assert stats.trie_nodes == sum(per_depth.values())

    def test_golden_statistics_of_a_fixed_corpus(self):
        # Every field, at the values the ANALYZE pass returned while it
        # also sliced q-grams: dropping those passes moved none of them.
        corpus = ["Berlin", "Bern", "Bonn", "Ulm", "Hamburg", "Bremen",
                  "Dresden", "Berlingen", "Bernburg", "Uelzen", "Bern",
                  "São Paulo", "ACGTACGTTGCA", "ACGTNCGTTGCA",
                  "TTGACCGTAACG", "ACGTACGTTGCA", ""]
        stats = collect_statistics(corpus)
        assert dataclasses.asdict(stats) == {
            "count": 17,
            "distinct": 15,
            "alphabet_size": 27,
            "total_chars": 121,
            "mean_length": 121 / 17,
            "max_length": 12,
            "lengths": (0, 3, 4, 6, 7, 8, 9, 12),
            "cumulative": (1, 2, 5, 8, 10, 11, 13, 17),
            "nodes_by_depth": (7, 10, 10, 10, 10, 10, 8, 6, 5, 3, 3, 3),
            "trie_nodes": 85,
        }
        assert stats.to_dict() == {
            "count": 17, "distinct": 15, "alphabet_size": 27,
            "mean_length": 7.12, "max_length": 12, "trie_nodes": 85,
        }
        assert [stats.candidates_in_window(length, k)
                for length, k in ((6, 1), (12, 2), (0, 0), (30, 3))] \
            == [5, 4, 1, 0]

    def test_to_dict_is_stable_and_serializable(self, dna_reads):
        stats = collect_statistics(dna_reads)
        again = collect_statistics(dna_reads)
        assert stats.to_dict() == again.to_dict()
        assert json.loads(json.dumps(stats.to_dict())) \
            == stats.to_dict()


class TestPlanner:
    def test_planning_is_deterministic(self, city_names):
        first = Planner(city_names)
        second = Planner(city_names)
        for k in (0, 1, 2, 4):
            a = first.plan(length=8, k=k)
            b = second.plan(length=8, k=k)
            assert a.strategy == b.strategy
            assert [e.cost for e in a.estimates] \
                == [e.cost for e in b.estimates]

    def test_picks_the_cheapest_feasible(self, city_names, dna_reads):
        for corpus in (city_names, dna_reads):
            planner = Planner(corpus)
            for k in (0, 1, 2, 4):
                plan = planner.plan(length=len(corpus[0]), k=k)
                feasible = [e for e in plan.estimates if e.feasible]
                assert plan.cost_for(plan.strategy) \
                    == min(e.cost for e in feasible)

    def test_every_strategy_is_scored(self, city_names):
        plan = Planner(city_names).plan(length=7, k=2)
        assert {e.strategy for e in plan.estimates} == set(STRATEGIES)

    def test_costs_grow_with_k(self, city_names):
        planner = Planner(city_names)
        seq = [planner.estimate("sequential", 7, k) for k in range(5)]
        assert seq == sorted(seq)

    def test_batch_mode_drops_non_batch_strategies(self, city_names):
        plan = Planner(city_names).plan(queries=["Berlin", "Hamburg"],
                                        k=1, batch=True)
        assert plan.strategy in BATCH_STRATEGIES
        infeasible = {e.strategy for e in plan.estimates
                      if not e.feasible}
        assert infeasible == set(STRATEGIES) - set(BATCH_STRATEGIES)

    def test_a_batch_pays_one_trie_setup(self, city_names):
        # Four distinct queries of one length: the batch executor runs
        # one descent for all of them, per-query execution four.
        planner = Planner(city_names)
        profile = planner.profile
        queries = ["Berlin", "Bremen", "Erfurt", "Hameln"]
        nodes = planner.estimate("indexed", 6, 1) - profile.trie_setup
        batch = planner.plan_queries(queries, 1, batch=True)
        assert batch.cost_for("indexed") == pytest.approx(
            profile.trie_setup + 4 * nodes)
        apart = planner.plan_queries(queries, 1, batch=False)
        assert apart.cost_for("indexed") == pytest.approx(
            4 * (profile.trie_setup + nodes))
        # One query is one query either way.
        assert planner.plan_queries(queries[:1], 1, batch=True).cost_for(
            "indexed") == pytest.approx(profile.trie_setup + nodes)

    def test_forced_policy_wins_regardless_of_cost(self, city_names):
        planner = Planner(city_names)
        for strategy in STRATEGIES:
            plan = planner.plan(
                length=7, k=2,
                policy=PlannerPolicy(strategy=strategy),
            )
            assert plan.strategy == strategy
            assert plan.forced

    def test_observe_window_bends_future_estimates(self, city_names):
        planner = Planner(city_names)
        before = planner.estimate("sequential", 7, 2)
        # Report the sequential scan running 10x slower than predicted.
        planner.observe_window("sequential", 2, [7] * 20, before * 200)
        after = planner.estimate("sequential", 7, 2)
        assert after > before
        assert planner.observed_windows == 1

    def test_corrections_are_clamped(self, city_names):
        planner = Planner(city_names)
        predicted = planner.estimate("indexed", 7, 1)
        planner.observe_window("indexed", 1, [7], predicted * 1e6)
        assert planner.estimate("indexed", 7, 1) <= predicted * 32


class TestPlanSerialization:
    def test_to_dict_validates(self, city_names):
        plan = Planner(city_names).plan(length=7, k=2)
        assert validate_plan(plan.to_dict()) == []

    def test_validate_plan_flags_problems(self, city_names):
        mapping = Planner(city_names).plan(length=7, k=2).to_dict()
        mapping["strategy"] = "gpu"
        del mapping["estimates"]
        problems = validate_plan(mapping)
        assert problems

    def test_report_carries_a_valid_plan_section(self, city_names):
        engine = SearchEngine(city_names)
        engine.search("Berlino", 2)
        mapping = engine.last_report.to_dict()
        assert validate_report(mapping) == []
        assert mapping["plan"]["strategy"] == mapping["backend"]
        assert validate_plan(mapping["plan"]) == []

    def test_corrupt_plan_section_fails_report_validation(
            self, city_names):
        engine = SearchEngine(city_names)
        engine.search("Berlino", 2)
        mapping = engine.last_report.to_dict()
        mapping["plan"] = {"strategy": 42}
        assert validate_report(mapping)


class TestEnginePlanAPI:
    def test_explain_matches_the_executed_plan(self, city_names):
        engine = SearchEngine(city_names)
        explained = engine.explain("Berlino", 2)
        engine.search("Berlino", 2)
        assert engine.last_report.backend == explained.strategy

    def test_explain_does_not_execute(self, city_names):
        engine = SearchEngine(city_names)
        engine.explain("Berlino", 2)
        assert engine.last_report is None

    def test_plan_render_mentions_every_strategy(self, city_names):
        rendered = SearchEngine(city_names).explain("Berlino", 2) \
                                           .render()
        for strategy in STRATEGIES:
            assert strategy in rendered

    def test_default_plan_is_a_query_plan(self, city_names):
        plan = SearchEngine(city_names).default_plan
        assert isinstance(plan, QueryPlan)
        assert plan.strategy in STRATEGIES

    def test_qgram_is_not_a_strategy(self, city_names):
        for build in (lambda: SearchEngine(city_names, backend="qgram"),
                      lambda: PlannerPolicy(strategy="qgram"),
                      lambda: PlannerPolicy(allow=("qgram",))):
            with pytest.raises(ReproError) as raised:
                build()
            for strategy in STRATEGIES:
                assert strategy in str(raised.value)

    def test_auto_batch_matches_forced_batch(self, city_names,
                                             dna_reads):
        # A batch mixing the two regimes is served by one executor of
        # the planner's choosing; rows must equal a forced one's.
        corpus = tuple(city_names) + tuple(dna_reads)
        queries = [city_names[0], dna_reads[0], city_names[1],
                   dna_reads[1]]
        engine = SearchEngine(corpus)
        forced = SearchEngine(corpus, backend="compiled")
        assert engine.search_many(queries, 2) \
            == forced.search_many(queries, 2)


class TestVerdictsAreExecutable:
    """Whatever the planner can answer, the stack can run as named."""

    def test_every_strategy_serves_a_forced_search(self, city_names):
        expected = SearchEngine(city_names, backend="sequential") \
            .search("Berlino", 2)
        for strategy in STRATEGIES:
            engine = SearchEngine(city_names, backend=strategy)
            assert engine.search("Berlino", 2) == expected
            assert engine.last_report.backend == strategy

    def test_every_batch_strategy_serves_a_forced_search_many(
            self, city_names):
        queries = ["Berlino", "Hamburq", "Berlino"]
        engine = SearchEngine(city_names)
        rows = [engine.search_many(
                    queries, 2, plan=PlannerPolicy(strategy=strategy))
                for strategy in BATCH_STRATEGIES]
        assert rows[0] == rows[1]
        assert set(BATCH_STRATEGIES) <= set(STRATEGIES)
        for strategy in set(STRATEGIES) - set(BATCH_STRATEGIES):
            with pytest.raises(ReproError):
                engine.search_many(
                    queries, 2, plan=PlannerPolicy(strategy=strategy))

    def test_the_service_maps_every_strategy_to_a_rung(self):
        from repro.service.sharding import (
            SHARD_PLAN_KINDS,
            STRATEGY_PLAN_KIND,
        )

        assert tuple(sorted(STRATEGY_PLAN_KIND)) \
            == tuple(sorted(STRATEGIES))
        assert set(STRATEGY_PLAN_KIND.values()) <= set(SHARD_PLAN_KINDS)

    def test_the_planner_prices_what_runs(self, city_names, monkeypatch):
        # The engine and the ladder build every strategy's searcher
        # through the one backend table, and that is the class
        # calibrate() times.
        from repro.core.searcher import BACKENDS
        from repro.service import Service

        strings = list(city_names[:60])
        assert set(BACKENDS) == set(STRATEGIES)
        built = {strategy: type(BACKENDS[strategy].build(strings))
                 for strategy in STRATEGIES}
        timed: set[type] = set()
        with monkeypatch.context() as patch:
            for cls in set(built.values()):
                def record(self, *args, _init=cls.__init__, **kwargs):
                    timed.add(type(self))
                    _init(self, *args, **kwargs)

                patch.setattr(cls, "__init__", record)
            calibrate(city_count=40, dna_count=12, queries=2, repeats=1)
        service = Service(strings, shards=1)
        for strategy in STRATEGIES:
            rung = BACKENDS[strategy].rung
            assert type(SearchEngine(strings, backend=strategy).searcher) \
                is built[strategy]
            assert type(service.corpus.searcher_for(rung, 0)) \
                is built[strategy]
            assert built[strategy] in timed

    def test_the_cli_offers_exactly_the_strategies(self):
        from repro.cli import _build_parser

        commands = next(
            action for action in _build_parser()._actions
            if action.dest == "command")
        backend = next(
            action for action in commands.choices["search"]._actions
            if action.dest == "backend")
        assert tuple(backend.choices) == ("auto",) + STRATEGIES


class TestPerCallPolicy:
    def test_the_backend_string_hint_is_gone(self, city_names):
        with pytest.raises(TypeError):
            SearchRequest("q", 1, backend="indexed")
        with pytest.raises(TypeError):
            SearchEngine(city_names).search("Berlino", 2,
                                            backend="sequential")

    def test_plan_policy_forces_a_strategy_without_warning(
            self, city_names):
        engine = SearchEngine(city_names)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            hinted = engine.search(
                "Berlino", 2, plan=PlannerPolicy(strategy="sequential"))
        assert engine.last_report.backend == "sequential"
        assert hinted == engine.search("Berlino", 2)


class TestPlannerProperty:
    @settings(max_examples=40, deadline=None)
    @given(length=st.integers(min_value=1, max_value=120),
           k=st.integers(min_value=0, max_value=6),
           batch=st.booleans())
    def test_never_picks_a_costlier_strategy(self, city_names, length,
                                             k, batch):
        plan = Planner(city_names).plan(length=length, k=k, batch=batch)
        feasible = [e for e in plan.estimates if e.feasible]
        minimum = min(e.cost for e in feasible)
        assert plan.cost_for(plan.strategy) <= minimum
        assert any(e.strategy == plan.strategy and e.feasible
                   for e in plan.estimates)


class TestCalibrate:
    def test_calibrate_smoke(self, tmp_path):
        profile = calibrate(city_count=120, dna_count=24, queries=4,
                            repeats=1)
        for name, value in profile.constants().items():
            assert value > 0, name
        path = profile.save(str(tmp_path / "calibrated.json"))
        assert CostProfile.load(path) == profile

    def test_auto_policy_is_the_default(self):
        assert AUTO_POLICY.is_auto
        assert PlannerPolicy() == AUTO_POLICY
