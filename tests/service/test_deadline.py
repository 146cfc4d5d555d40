"""Wall-clock deadlines stop the ladder early on a slow corpus.

The acceptance bar: a deadline-bounded query over a deliberately slow
synthetic corpus returns *something* (partial, degraded or candidates)
instead of running to completion. The clock is a stand-in that advances
a fixed step per read, so expiry lands after a fixed number of polls
and "stopped early" is a count of trie nodes, not a race with the
machine.
"""

import pytest

import repro.core.deadline as deadline_module
from repro.core.deadline import Deadline
from repro.core.planner import PlannerPolicy
from repro.data.dna import generate_reads
from repro.service import Service

# DNA reads at a high threshold: the regime where a single trie descent
# visits most of the index — the paper's hardest workload. The query is
# a full-length read so the length filter cannot shortcut the descent.
READS = generate_reads(400, seed=7)
QUERY = READS[0]
K = 16

#: Requested wall-clock deadline per attempt.
DEADLINE_SECONDS = 0.05

#: How far the stand-in clock moves per read: the deadline expires on
#: its fiftieth reading.
STEP_SECONDS = 0.001


def trie_nodes(service) -> int:
    """Trie nodes the service's shard searchers have entered so far."""
    corpus = service.corpus
    searchers = (corpus.searcher_for("flat", index)
                 for index in range(corpus.shard_count))
    return sum(searcher.counters_snapshot()["trie.nodes_visited"]
               for searcher in searchers if searcher is not None)


class TestWallClockDeadline:
    def test_bounded_answer_stops_early(self, monkeypatch):
        # A clock that advances a fixed step per read: the deadline
        # expires after a fixed number of polls on any machine.
        readings = iter(range(10 ** 9))
        monkeypatch.setattr(deadline_module.time, "monotonic",
                            lambda: next(readings) * STEP_SECONDS)
        flat_first = PlannerPolicy(strategy="indexed")
        bounded = Service(READS, shards=4)
        result = bounded.submit(
            QUERY, K, plan=flat_first,
            deadline=Deadline(DEADLINE_SECONDS, check_interval=64))
        # Whatever came back is honestly labeled.
        assert result.status in ("complete", "degraded", "partial",
                                 "candidates")
        if result.status == "candidates":
            assert not result.verified
        else:
            assert result.verified
        unbounded = Service(READS, shards=4)
        assert unbounded.submit(QUERY, K, plan=flat_first).status \
            == "complete"
        # A ladder that ignored its deadline would descend as far.
        assert 0 < trie_nodes(bounded) < trie_nodes(unbounded)

    def test_zero_deadline_still_answers_via_filter_only(self):
        service = Service(READS, shards=2)
        result = service.submit(QUERY, K, deadline=Deadline(0.0))
        assert result.status == "candidates"
        assert result.matches  # length filter admits the read family

    def test_unbounded_submit_is_exact(self):
        service = Service(READS[:100], shards=2)
        result = service.submit(QUERY, 4)
        assert result.status == "complete"
        assert result.verified

    @pytest.mark.parametrize("shards", [1, 4])
    def test_sharding_does_not_change_answers(self, shards):
        service = Service(READS[:120], shards=shards)
        result = service.submit(QUERY, 4)
        reference = Service(READS[:120], shards=2).submit(QUERY, 4)
        assert result.matches == reference.matches
