"""Property tests: the live corpus equals a from-scratch rebuild.

The LSM machinery (memtable, tombstones, segment flushes, compaction)
is pure plumbing — at every moment the corpus must answer exactly like
a brand-new corpus built from its current logical contents. Hypothesis
drives arbitrary insert/delete/flush/compact/search interleavings,
including the subtle cases (tombstoned re-inserts, deletes racing the
flush threshold), and checks that equivalence after every step.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.distance.levenshtein import edit_distance
from repro.live import Corpus, LiveCorpus
from repro.service import Service, ShardedCorpus
from repro.service.sharding import SHARD_PLAN_KINDS

strings = st.text(alphabet="abc", min_size=1, max_size=5)

#: One scripted operation: ("insert", s) | ("delete", s) | ("flush",)
#: | ("compact",). Deletes pick from what the script inserted so far,
#: so most of them hit (misses are exercised separately).
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), strings),
        st.tuples(st.just("delete"), strings),
        st.tuples(st.just("flush")),
        st.tuples(st.just("compact")),
    ),
    max_size=30,
)


def oracle_search(model: Counter, query: str, k: int) -> list[str]:
    """Brute force over the logical contents — the rebuild oracle."""
    return sorted(
        string for string in model
        if edit_distance(query, string) <= k
    )


@given(ops=operations,
       query=st.text(alphabet="abcd", max_size=5),
       k=st.integers(min_value=0, max_value=2))
@settings(max_examples=60, deadline=None)
def test_any_interleaving_matches_the_rebuild_oracle(ops, query, k):
    corpus = LiveCorpus(flush_threshold=3, fanout=2)
    model: Counter = Counter()
    for op in ops:
        if op[0] == "insert":
            corpus.insert(op[1])
            model[op[1]] += 1
        elif op[0] == "delete":
            if model.get(op[1], 0) > 0:
                corpus.delete(op[1])
                model[op[1]] -= 1
                if model[op[1]] == 0:
                    del model[op[1]]
        elif op[0] == "flush":
            corpus.flush()
        else:
            corpus.compact()
        # After *every* step, not just at the end: the corpus answers
        # exactly like a from-scratch rebuild of its logical contents.
        assert [m.string for m in corpus.search(query, k)] \
            == oracle_search(model, query, k)
    assert len(corpus) == sum(model.values())


@given(ops=operations)
@settings(max_examples=40, deadline=None)
def test_tombstoned_reinserts_round_trip(ops):
    """Delete-then-reinsert must resurface the segment-resident copy."""
    corpus = LiveCorpus(["aa", "ab", "ba"], flush_threshold=3,
                        fanout=2)
    model: Counter = Counter({"aa": 1, "ab": 1, "ba": 1})
    for op in ops:
        if op[0] == "insert":
            corpus.insert(op[1])
            model[op[1]] += 1
        elif op[0] == "delete" and model.get(op[1], 0) > 0:
            corpus.delete(op[1])
            model[op[1]] -= 1
            if model[op[1]] == 0:
                del model[op[1]]
        elif op[0] == "flush":
            corpus.flush()
        elif op[0] == "compact":
            corpus.compact()
    # Tombstone every survivor, then re-insert it: everything must be
    # visible again, and each round trip must fully cancel its own
    # tombstone (the prelude's deletes may leave theirs behind).
    ledger_before = corpus.tombstone_count
    for string in list(model):
        corpus.delete(string)
        corpus.insert(string)
    assert corpus.tombstone_count == ledger_before
    for string, multiplicity in model.items():
        assert corpus.count(string) == multiplicity
        assert [m.string for m in corpus.search(string, 0)] == [string]


class LiveCorpusMachine(RuleBasedStateMachine):
    """Stateful model check of the live facade against a ``Counter``.

    Every search also runs through the shards (one per plan kind) and
    through the service ladder over the same corpus: all read the
    segments, so all must agree with the oracle.
    """

    def __init__(self):
        super().__init__()
        self.corpus = Corpus.live(flush_threshold=3, fanout=2)
        self.sharded = ShardedCorpus(self.corpus)
        self.service = Service(self.corpus)
        self.model: Counter = Counter()
        self.epochs: list[int] = [0]

    @rule(string=strings)
    def insert(self, string):
        self.corpus.insert(string)
        self.model[string] += 1

    @precondition(lambda self: sum(self.model.values()) > 0)
    @rule(data=st.data())
    def delete_existing(self, data):
        string = data.draw(st.sampled_from(
            sorted(self.model.elements())
        ))
        self.corpus.delete(string)
        self.model[string] -= 1
        if self.model[string] == 0:
            del self.model[string]

    @rule()
    def flush(self):
        self.corpus.flush()

    @rule()
    def compact(self):
        self.corpus.compact()

    @rule(query=st.text(alphabet="abcd", max_size=5),
          k=st.integers(min_value=0, max_value=2))
    def search_matches_brute_force(self, query, k):
        expected = oracle_search(self.model, query, k)
        actual = [m.string for m in self.corpus.search(query, k)]
        assert actual == expected
        for plan in SHARD_PLAN_KINDS:
            assert [m.string for m in self.sharded.search(
                query, k, plan=plan)] == expected
        result = self.service.submit(query, k)
        assert result.status == "complete"
        assert [m.string for m in result.matches] == expected

    @invariant()
    def sizes_agree(self):
        live = self.corpus.live_corpus
        assert len(live) == sum(self.model.values())
        for string, multiplicity in self.model.items():
            assert live.count(string) == multiplicity

    @invariant()
    def epoch_is_monotonic(self):
        self.epochs.append(self.corpus.epoch)
        assert self.epochs[-1] >= self.epochs[-2]


TestLiveCorpusMachine = LiveCorpusMachine.TestCase
TestLiveCorpusMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None,
)
