"""The LSM overlay: a write costs its own size, not the corpus.

Over a mutable :class:`repro.live.Corpus`, the shards of
:class:`ShardedCorpus` are the live corpus's immutable segments, and
what writes lay over them — the memtable strings, scanned as part 0,
and the tombstoned strings, filtered out of every row — is read from
one :meth:`repro.live.LiveCorpus.view` per search. Three things are
pinned here:

* **the oracle** — any interleaving of writes and searches, on every
  shard plan, answers exactly like a from-scratch reference scan of the
  model multiset, and deadline partials stay verified subsets of it;
* **the work gate** — counted, not timed, on the
  :data:`repro.core.searcher.BACKENDS` builders: reads and writes that
  do not flush build no searcher, the first read after a flush builds
  one per rung it runs over that flush's strings, the largest
  segment's searchers survive as the same objects, and the planner's
  ANALYZE pass runs under the square-root rule;
* **the telemetry** — ``service.corpus_refreshes`` vs
  ``service.corpus_analyzes``, the ``service.delta_strings`` gauge and
  the ``corpus_analyze`` event line.
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
from repro.core.searcher import BACKENDS, Backend
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

#: Six strings; with ``flush_threshold=3`` and ``fanout=2`` a 30-step
#: run flushes and compacts several times.
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
        view = self.corpus.live_corpus.view()
        assert set(self.sharded.strings) == set(self.model)
        assert self.sharded.shard_count == len(view.segments)
        # The segments and the memtable hold every visible string; the
        # hidden ones are stored in a segment and visible nowhere.
        assert set(self.model) <= base_strings(self.sharded) \
            | set(view.memtable)
        assert view.removed <= base_strings(self.sharded) - set(self.model)


TestOverlayMachine = OverlayMachine.TestCase
TestOverlayMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None,
)


def test_answers_stay_exact_across_flushes_and_compactions():
    corpus = Corpus.live(SEED_STRINGS, flush_threshold=3, fanout=2)
    sharded = ShardedCorpus(corpus, shards=2)
    model = Counter(SEED_STRINGS)
    layouts = set()
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
        layouts.add(corpus.live_corpus.segment_sizes())
    shape = corpus.describe()
    assert shape["flushes"] >= 4 and shape["compactions"] >= 1
    assert len(layouts) >= 4


# -- deadlines over segments, memtable and tombstones -------------------

QUERY = "Berlino"
K = 2
PADS = [f"pad{i:04d}x" for i in range(40)]


def overlaid():
    """A base segment, a flushed segment and a memtable; ``Berlin`` (a
    match, stored in the base segment) has been deleted since."""
    corpus = Corpus.live(["Berlin", "Merlin"] + PADS)
    sharded = ShardedCorpus(corpus, shards=2)
    assert "Berlin" in sharded.shard(0)
    corpus.delete("Berlin")
    corpus.insert("Berlina")
    corpus.flush()
    for string in ("Berlinx", "padding", "padlock"):
        corpus.insert(string)
    view = corpus.live_corpus.view()
    assert [segment.size for segment in view.segments] == [42, 1]
    assert view.memtable == ("Berlinx", "padding", "padlock")
    assert view.removed == {"Berlin"}
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
        # The memtable costs a unit per string; the base segment
        # finishes — and verifies the deleted "Berlin" — before the
        # flushed one runs out of budget.
        with pytest.raises(DeadlineExceeded) as caught:
            sharded.search(QUERY, K, plan="sequential",
                           deadline=Budget(3 + first + 1,
                                           check_interval=1))
        error = caught.value
        assert (error.completed, error.total) == (2, 3)
        assert set(error.partial) <= set(exact)
        partial = [match.string for match in error.partial]
        assert "Merlin" in partial and "Berlinx" in partial
        assert "Berlin" not in partial

    def test_expiry_in_the_overlay_shard(self):
        sharded, exact = overlaid()
        # The memtable, part 0, is scanned whole and charged a unit per
        # string: its three use up the budget, and its verified match
        # is kept.
        with pytest.raises(DeadlineExceeded) as caught:
            sharded.search(QUERY, K, plan="sequential",
                           deadline=Budget(2, check_interval=1))
        error = caught.value
        assert (error.completed, error.total) == (1, 3)
        assert error.scope == "shards"
        assert [match.string for match in error.partial] == ["Berlinx"]
        assert set(error.partial) <= set(exact)


# -- the work gate: counted, not timed ----------------------------------

BIG = [f"name{i:04d}" for i in range(400)]
FLUSH = 8


@pytest.fixture
def built(monkeypatch):
    """``(rung, strings)`` for every searcher a BACKENDS builder makes."""
    calls = []
    for strategy, backend in BACKENDS.items():
        def spy(dataset, *, segment=None, _backend=backend):
            calls.append((_backend.rung, len(list(dataset))))
            return _backend.build(dataset, segment=segment)

        monkeypatch.setitem(BACKENDS, strategy, Backend(backend.rung, spy))
    return calls


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
    def test_a_write_then_a_read_indexes_only_the_overlay(self, built,
                                                         plan):
        corpus = Corpus.live(BIG, flush_threshold=FLUSH)
        sharded = ShardedCorpus(corpus)
        sharded.search("name0001", 1, plan=plan)
        assert built == [(plan, 400)]
        kept = sharded.searcher_for(plan, 0)
        for index in range(FLUSH - 1):
            del built[:]
            corpus.insert(f"fresh{index:03d}")
            if index % 3 == 2:
                corpus.delete(BIG[index])
            sharded.search("name0001", 1, plan=plan)
            # The memtable is scanned, the hidden strings filtered:
            # neither costs a searcher.
            assert built == []
            assert sharded.shard_count == 1
            assert sharded.searcher_for(plan, 0) is kept

    def test_reads_between_writes_index_nothing(self, built):
        corpus = Corpus.live(BIG, flush_threshold=FLUSH)
        sharded = ShardedCorpus(corpus)
        corpus.insert("fresh")
        sharded.search("name0001", 1)
        del built[:]
        for _ in range(5):
            for plan in SHARD_PLAN_KINDS:
                sharded.search("name0002", 2, plan=plan)
        del built[:]
        for _ in range(5):
            for plan in SHARD_PLAN_KINDS:
                sharded.search("name0003", 1, plan=plan)
        assert built == []

    def test_a_flush_indexes_the_new_segment_once(self, built):
        corpus = Corpus.live(BIG, flush_threshold=FLUSH)
        sharded = ShardedCorpus(corpus)
        run = ("flat", "compiled")
        for plan in run:
            sharded.search("name0001", 1, plan=plan)
        largest = {plan: sharded.searcher_for(plan, 0) for plan in run}
        for flush in range(3):
            for index in range(FLUSH):
                corpus.insert(f"fresh{flush}{index:03d}")
            del built[:]
            for plan in run:
                sharded.search("name0001", 1, plan=plan)
                sharded.search("fresh0001", 1, plan=plan)
            # One searcher per rung that ran, over the flushed strings.
            assert sorted(rung for rung, _ in built) == sorted(run)
            assert all(size <= FLUSH for _, size in built)
            for plan in run:
                assert sharded.searcher_for(plan, 0) is largest[plan]
        assert sharded.shard_count == 4

    def test_racing_first_reads_share_one_searcher(self):
        import sys
        import threading

        corpus = Corpus.live(BIG, flush_threshold=FLUSH)
        sharded = ShardedCorpus(corpus)
        for index in range(FLUSH):
            corpus.insert(f"fresh{index:03d}")
        expected = reference(Counter(corpus.snapshot()), "fresh001", 1)
        readers = 6
        barrier = threading.Barrier(readers)
        answers, used = [], []

        def reader():
            barrier.wait(10)
            answers.append(sharded.search("fresh001", 1, plan="compiled"))
            used.append(sharded.searcher_for("compiled", 1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader)
                       for _ in range(readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [expected] * readers
        # Both segments' searchers were built by whichever reader got
        # there first; every reader sees that one object.
        assert len({id(searcher) for searcher in used}) == 1

    def test_analyze_follows_the_square_root_rule(self, analyzes):
        corpus = Corpus.live(BIG)
        service = Service(corpus, shards=2)
        service.submit("name0001", 1)   # builds the planner
        for index in range(70):
            corpus.insert(f"fresh{index:03d}")
            result = service.submit(f"fresh{index:03d}", 0)
            assert [match.string for match in result.matches] \
                == [f"fresh{index:03d}"]
        counters = service.counters_snapshot()
        assert counters["service.corpus_refreshes"] == 70
        # 29 ** 2 <= 2 * 429 < 30 ** 2 > 2 * 430: the 30th write
        # re-ANALYZEs; the next one needs 31 ** 2 > 2 * 461, the 61st.
        assert counters["service.corpus_analyzes"] == 2
        # Each ANALYZE saw the corpus as it stood then.
        assert analyzes == [430, 461]


# -- telemetry ----------------------------------------------------------

class TestOverlayTelemetry:
    def test_analyze_counter_gauge_and_event(self):
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
        assert counters["service.corpus_analyzes"] == 0
        assert metrics.gauges()["service.delta_strings"] == 3
        assert service.gauges_snapshot() == {"service.delta_strings": 3.0}
        assert not [event for event in events.events()
                    if event["kind"] == "corpus_analyze"]

        corpus.delete("aa")
        corpus.delete("ab")
        service.submit("ab", 1)
        counters = service.counters_snapshot()
        # 5 ** 2 = 25 > 2 * 7: the fifth write re-ANALYZEs.
        assert counters["service.corpus_refreshes"] == 2
        assert counters["service.corpus_analyzes"] == 1
        # Three memtable strings and two hidden ones.
        assert metrics.gauges()["service.delta_strings"] == 5
        lines = [event for event in events.events()
                 if event["kind"] == "corpus_analyze"]
        assert len(lines) == 1
        assert (lines[0]["strings"], lines[0]["epochs"]) == (7, 5)
        assert lines[0]["seconds"] >= 0.0
        assert validate_event(lines[0]) == []

        # A full compaction flushes the memtable and purges the
        # tombstones; the snapshot reads the current view.
        corpus.compact()
        assert service.gauges_snapshot() == {"service.delta_strings": 0.0}

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
