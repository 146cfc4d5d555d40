"""The shard overlay: a write costs its own size, not the corpus.

Over a mutable :class:`repro.live.Corpus`, :class:`ShardedCorpus` keeps
its base partitioning (and the base shards' searchers) across writes
and carries the drift as an overlay — ``added`` strings searched as one
more shard, ``removed`` strings filtered out of every row — folding it
into a fresh base (a *rebase*) only under the square-root rule. Three
things are pinned here:

* **the oracle** — any interleaving of writes and searches, on every
  shard plan, answers exactly like a from-scratch reference scan of the
  model multiset, and deadline partials stay verified subsets of it;
* **the work gate** — counted, not timed: a write followed by a read
  hands at most the overlay to searcher constructors, the base shards'
  searchers survive as the same objects, and the planner's ANALYZE pass
  runs once per rebase and never in between;
* **the telemetry** — ``service.corpus_refreshes`` vs
  ``service.corpus_rebases``, the ``service.delta_strings`` gauge and
  the ``corpus_rebase`` event line.
"""

from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.deadline import Budget
from repro.core.planner import Planner
from repro.core.sequential import SequentialScanSearcher
from repro.exceptions import DeadlineExceeded
from repro.live import Corpus
from repro.obs import EventLog
from repro.obs.events import validate_event
from repro.obs.registry import MetricsRegistry
from repro.obs.report import validate_report
from repro.service import Service, ShardedCorpus
from repro.service.sharding import SHARD_PLAN_KINDS


def reference(model, query, k):
    """A from-scratch scan of the model multiset."""
    return tuple(SequentialScanSearcher(list(model.elements()))
                 .search(query, k))


def base_strings(sharded):
    return {string for index in range(sharded.shard_count)
            for string in sharded.shard(index)}


# -- the oracle ---------------------------------------------------------

strings = st.text(alphabet="abc", min_size=1, max_size=4)
plans = st.sampled_from(SHARD_PLAN_KINDS)

#: Six strings: the rule ``drift ** 2 > 2 * base`` fires at a drift of
#: four, so a 30-step run crosses it several times.
SEED_STRINGS = ["aa", "ab", "abc", "ba", "cab", "ccc"]


class OverlayMachine(RuleBasedStateMachine):
    """Writes against the live corpus, reads through the shards."""

    def __init__(self):
        super().__init__()
        self.corpus = Corpus.live(SEED_STRINGS, flush_threshold=3,
                                  fanout=2)
        self.sharded = ShardedCorpus(self.corpus, shards=2)
        self.model: Counter = Counter(SEED_STRINGS)

    def _delete(self, string):
        self.corpus.delete(string)
        self.model[string] -= 1
        self.model += Counter()

    def _insert(self, string):
        self.corpus.insert(string)
        self.model[string] += 1

    @rule(string=strings)
    def insert(self, string):
        self._insert(string)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def insert_duplicate(self, data):
        self._insert(data.draw(st.sampled_from(sorted(self.model))))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        self._delete(data.draw(st.sampled_from(sorted(self.model))))

    @precondition(lambda self: set(self.model) - base_strings(self.sharded))
    @rule(data=st.data())
    def delete_an_added_string(self, data):
        self._delete(data.draw(st.sampled_from(
            sorted(set(self.model) - base_strings(self.sharded)))))

    @precondition(lambda self: base_strings(self.sharded) - set(self.model))
    @rule(data=st.data())
    def reinsert_a_removed_string(self, data):
        self._insert(data.draw(st.sampled_from(
            sorted(base_strings(self.sharded) - set(self.model)))))

    @rule(query=st.text(alphabet="abcd", max_size=5),
          k=st.integers(min_value=0, max_value=2), plan=plans)
    def search(self, query, k, plan):
        assert self.sharded.search(query, k, plan=plan) \
            == reference(self.model, query, k)

    @rule(query=st.text(alphabet="abcd", max_size=5),
          k=st.integers(min_value=0, max_value=2), plan=plans,
          limit=st.integers(min_value=0, max_value=12))
    def search_on_a_budget(self, query, k, plan, limit):
        exact = reference(self.model, query, k)
        try:
            answer = self.sharded.search(
                query, k, plan=plan,
                deadline=Budget(limit, check_interval=1))
        except DeadlineExceeded as error:
            assert set(error.partial) <= set(exact)
        else:
            assert answer == exact

    @invariant()
    def view_describes_the_model(self):
        self.sharded.refresh()
        shape = self.sharded.describe()
        assert set(self.sharded.strings) == set(self.model)
        assert shape["strings"] == len(self.model)
        assert shape["base"] + shape["added"] - shape["removed"] \
            == shape["strings"]
        assert (shape["added"] + shape["removed"]) ** 2 \
            <= 2 * shape["base"]


TestOverlayMachine = OverlayMachine.TestCase
TestOverlayMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None,
)


def test_the_rebase_rule_is_crossed_and_answers_stay_exact():
    corpus = Corpus.live(SEED_STRINGS)
    sharded = ShardedCorpus(corpus, shards=2)
    model = Counter(SEED_STRINGS)
    rebases = []
    for index in range(24):
        string = f"a{'bc'[index % 2]}{index % 5}"
        if index % 3 == 2 and model:
            victim = sorted(model)[index % len(model)]
            corpus.delete(victim)
            model[victim] -= 1
            model += Counter()
        else:
            corpus.insert(string)
            model[string] += 1
        for plan in SHARD_PLAN_KINDS:
            assert sharded.search("ab", 2, plan=plan) \
                == reference(model, "ab", 2)
        rebases.append(sharded.describe()["rebases"])
    assert rebases == sorted(rebases)
    assert rebases[-1] >= 3
    # ... and most writes did not pay for one.
    assert rebases[-1] < len(rebases) / 2


# -- deadlines over base + overlay --------------------------------------

QUERY = "Berlino"
K = 2
PADS = [f"pad{i:04d}x" for i in range(40)]


def overlaid():
    """Two base shards plus an overlay shard; ``Berlin`` (a match,
    found in base shard 0) has been removed since the base was cut."""
    corpus = Corpus.live(["Berlin", "Merlin"] + PADS)
    sharded = ShardedCorpus(corpus, shards=2)
    assert "Berlin" in sharded.shard(0)
    corpus.delete("Berlin")
    for string in ("Berlina", "Berlinx", "padding", "padlock"):
        corpus.insert(string)
    sharded.refresh()
    shape = sharded.describe()
    assert (shape["added"], shape["removed"], shape["rebases"]) == (4, 1, 0)
    model = Counter(corpus.snapshot())
    return sharded, reference(model, QUERY, K)


def units(searcher):
    """Work units one full search of ``searcher`` charges."""
    budget = Budget(10 ** 9, check_interval=1)
    searcher.search(QUERY, K, deadline=budget)
    return budget.spent


class TestDeadlinesOverTheOverlay:
    def test_complete_answer_is_exact(self):
        sharded, exact = overlaid()
        assert "Berlin" not in [match.string for match in exact]
        for plan in SHARD_PLAN_KINDS:
            assert sharded.search(QUERY, K, plan=plan) == exact

    def test_expiry_in_a_base_shard_hides_removed_matches(self):
        sharded, exact = overlaid()
        first = units(sharded.searcher_for("sequential", 0))
        with pytest.raises(DeadlineExceeded) as caught:
            sharded.search(QUERY, K, plan="sequential",
                           deadline=Budget(first + 2, check_interval=1))
        error = caught.value
        # Shard 0 finished — and verified the removed "Berlin" —
        # before shard 1 ran out of budget.
        assert (error.completed, error.total) == (1, 3)
        assert set(error.partial) <= set(exact)
        assert "Berlin" not in [match.string for match in error.partial]

    def test_expiry_in_the_overlay_shard(self):
        sharded, exact = overlaid()
        base = sum(units(sharded.searcher_for("sequential", index))
                   for index in range(sharded.shard_count))
        with pytest.raises(DeadlineExceeded) as caught:
            sharded.search(QUERY, K, plan="sequential",
                           deadline=Budget(base + 1, check_interval=1))
        error = caught.value
        assert (error.completed, error.total) == (2, 3)
        assert error.scope == "shards"
        partial = [match.string for match in error.partial]
        assert set(error.partial) <= set(exact)
        assert "Merlin" in partial and "Berlin" not in partial


# -- the work gate: counted, not timed ----------------------------------

BIG = [f"name{i:04d}" for i in range(400)]


@pytest.fixture
def indexed(monkeypatch):
    """Every ``len(part)`` handed to a shard searcher constructor."""
    built = []
    original = ShardedCorpus._build_searcher

    def spy(self, plan, index, part):
        built.append(len(part))
        return original(self, plan, index, part)

    monkeypatch.setattr(ShardedCorpus, "_build_searcher", spy)
    return built


@pytest.fixture
def analyzes(monkeypatch):
    """One entry per ``Planner.refresh_statistics`` call."""
    calls = []
    original = Planner.refresh_statistics

    def spy(self, strings):
        calls.append(len(strings))
        return original(self, strings)

    monkeypatch.setattr(Planner, "refresh_statistics", spy)
    return calls


class TestWorkGate:
    @pytest.mark.parametrize("plan", SHARD_PLAN_KINDS)
    def test_a_write_then_a_read_indexes_only_the_overlay(self, indexed,
                                                         plan):
        corpus = Corpus.live(BIG)
        sharded = ShardedCorpus(corpus, shards=2)
        sharded.search("name0001", 1, plan=plan)
        assert indexed == [200, 200]
        kept = [sharded.searcher_for(plan, index) for index in range(2)]
        writes = 0
        for index in range(12):
            del indexed[:]
            corpus.insert(f"fresh{index:03d}")
            writes += 1
            if index % 4 == 3:
                corpus.delete(BIG[index])
                writes += 1
            sharded.search("name0001", 1, plan=plan)
            shape = sharded.describe()
            assert shape["rebases"] == 0
            assert shape["added"] + shape["removed"] == writes
            assert sum(indexed) <= shape["added"]
            for shard, before in enumerate(kept):
                assert sharded.searcher_for(plan, shard) is before

    def test_reads_between_writes_index_nothing(self, indexed):
        corpus = Corpus.live(BIG)
        sharded = ShardedCorpus(corpus, shards=2)
        corpus.insert("fresh")
        sharded.search("name0001", 1)
        del indexed[:]
        for _ in range(5):
            sharded.search("name0002", 2)
        assert indexed == []

    def test_a_rebase_reindexes_the_corpus_once(self, indexed):
        corpus = Corpus.live(BIG)
        sharded = ShardedCorpus(corpus, shards=2)
        sharded.search("name0001", 1)
        del indexed[:]
        # 28 ** 2 = 784 <= 800 < 29 ** 2: the 29th drifted string rebases.
        for index in range(28):
            corpus.insert(f"fresh{index:03d}")
        sharded.search("name0001", 1)
        assert indexed == [28]
        assert sharded.describe()["rebases"] == 0
        corpus.insert("fresh028")
        sharded.search("name0001", 1)
        shape = sharded.describe()
        assert (shape["rebases"], shape["folded"]) == (1, 29)
        assert (shape["base"], shape["added"], shape["removed"]) \
            == (429, 0, 0)
        assert sorted(indexed[1:]) == [214, 215]

    def test_analyze_runs_once_per_rebase_and_never_between(self, analyzes):
        corpus = Corpus.live(BIG)
        service = Service(corpus, shards=2)
        service.submit("name0001", 1)   # builds the planner
        seen = 0
        for index in range(70):
            corpus.insert(f"fresh{index:03d}")
            result = service.submit(f"fresh{index:03d}", 0)
            assert [match.string for match in result.matches] \
                == [f"fresh{index:03d}"]
            rebases = service.corpus.describe()["rebases"]
            assert len(analyzes) == rebases
            assert rebases - seen in (0, 1)
            seen = rebases
        counters = service.counters_snapshot()
        assert counters["service.corpus_refreshes"] == 70
        assert counters["service.corpus_rebases"] == seen == 2
        # Each ANALYZE saw the corpus as it stood at its rebase.
        assert analyzes == [429, 459]


# -- telemetry ----------------------------------------------------------

class TestOverlayTelemetry:
    def test_rebase_counter_gauge_and_event(self):
        corpus = Corpus.live(SEED_STRINGS)
        metrics = MetricsRegistry()
        events = EventLog()
        service = Service(corpus, shards=2, metrics=metrics,
                          events=events)
        service.submit("ab", 1)
        for string in ("x1", "x2", "x3"):
            corpus.insert(string)
        service.submit("ab", 1)
        counters = service.counters_snapshot()
        assert counters["service.corpus_refreshes"] == 1
        assert counters["service.corpus_rebases"] == 0
        assert metrics.gauges()["service.delta_strings"] == 3
        assert service.gauges_snapshot() == {"service.delta_strings": 3.0}
        assert not [event for event in events.events()
                    if event["kind"] == "corpus_rebase"]

        corpus.insert("x4")
        service.submit("ab", 1)
        counters = service.counters_snapshot()
        assert counters["service.corpus_refreshes"] == 2
        assert counters["service.corpus_rebases"] == 1
        assert metrics.gauges()["service.delta_strings"] == 0
        lines = [event for event in events.events()
                 if event["kind"] == "corpus_rebase"]
        assert len(lines) == 1
        assert (lines[0]["base"], lines[0]["delta"]) == (10, 4)
        assert lines[0]["seconds"] >= 0.0
        assert validate_event(lines[0]) == []

    def test_report_carries_the_gauge_only_over_a_live_corpus(self):
        corpus = Corpus.live(SEED_STRINGS)
        service = Service(corpus, shards=2)
        corpus.insert("x1")
        service.submit("ab", 1)
        report = service.report().to_dict()
        assert validate_report(report) == []
        assert report["gauges"] == {"service.delta_strings": 1.0}
        frozen = Service(SEED_STRINGS, shards=2)
        frozen.submit("ab", 1)
        assert "gauges" not in frozen.report().to_dict()
        assert frozen.gauges_snapshot() == {}
