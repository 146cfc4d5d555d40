"""Soundness of the scan's select: the symbol-group bag bound and, on
small alphabets, the trigram-group count bound.

The select folds the alphabet into at most 16 groups and keeps a string
of length ``len`` iff ``common >= max(n', len) - k``, where ``n'``
counts the query's symbols inside the alphabet and ``common`` is the
per-group overlap. On alphabets of at most 16 symbols the corpus also
counts each string's trigrams, folded into at most 64 groups, and a bag
survivor is kept only if it shares at least ``max(n, len) - 3 + 1 - 3k``
grouped trigrams with the query (Ukkonen 1992; ``n`` is the full query
length). Folding symbols never increases edit distance, one edit
destroys at most three trigrams, a query trigram holding a symbol
outside the alphabet occurs in no string, and folding trigrams can only
raise the shared count, so neither bound may drop a string within
``k``. These properties check that against the plain DP
(:func:`repro.distance.levenshtein.edit_distance`, which shares no code
with the scan):

* on alphabets of 1, 4 (64 trigrams, one group each), 5 and 16 symbols
  (one group per symbol, trigrams folded), and on 17 (symbols folded,
  no trigram table);
* with query symbols outside the alphabet, queries shorter than a
  trigram, and anagram neighbours that only the trigram bound rejects;
* at thresholds where the trigram bound is vacuous, and on windows that
  span several lengths;
* on strings longer than 255 symbols, whose counts need ``uint16``;
* with each scoring engine forced, and under a ``Budget`` that expires
  mid-window.

An independent count of the rows that pass both bounds also pins
``scan.kernel_calls``, so the select computes exactly the stated
bounds, not merely some sound ones.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deadline import Budget
from repro.core.result import Match
from repro.data.alphabet import Alphabet
from repro.distance.levenshtein import edit_distance
from repro.exceptions import DeadlineExceeded
from repro.scan.corpus import QGRAM_LENGTH, CompiledCorpus
from repro.scan.executor import scan_query

#: Seventeen symbols: the first 1, 4, 5 or 16 keep one group per symbol
#: and carry a trigram table, all 17 fold into 16 groups and carry none.
SYMBOLS = "ACGTNbcdefghijklm"
SIZES = [1, 4, 5, 16, 17]
STRANGERS = "#~"

#: The survivor-count threshold forced to select one scoring engine.
ENGINES = {"scalar": sys.maxsize, "window": 1}


def _exact(dataset, query, k) -> list[Match]:
    return sorted(Match(string, distance) for string in set(dataset)
                  if (distance := edit_distance(query, string)) <= k)


def _overlap(x: list, y: list) -> int:
    """Multiset intersection size of two lists of group ids."""
    return sum(min(x.count(g), y.count(g)) for g in set(x))


def _survivors(corpus: CompiledCorpus, query: str, k: int, *,
               trigrams: bool = True) -> int:
    """Rows in the length window that pass both bounds (the bag bound
    alone with ``trigrams=False``), counted string by string from the
    two group maps alone."""
    alphabet = corpus.alphabet
    group_of = {symbol: corpus.group_of[alphabet.code(symbol)]
                for symbol in alphabet.symbols}
    size = alphabet.size

    def grams_of(text: str) -> list:
        grams = []
        for at in range(len(text) - QGRAM_LENGTH + 1):
            gram = text[at:at + QGRAM_LENGTH]
            if all(symbol in group_of for symbol in gram):
                a, b, c = (alphabet.code(symbol) for symbol in gram)
                grams.append(corpus.trigram_group_of[(a * size + b) * size
                                                     + c])
        return grams

    query_groups = [group_of[s] for s in query if s in group_of]
    trigrams = trigrams and corpus.trigram_counts is not None
    query_trigrams = grams_of(query) if trigrams else None
    kept = 0
    for string in corpus.strings:
        if abs(len(string) - len(query)) > k:
            continue
        common = _overlap(query_groups, [group_of[s] for s in string])
        if max(len(query_groups), len(string)) - common > k:
            continue
        if trigrams:
            needed = max(len(query), len(string)) - QGRAM_LENGTH + 1 \
                - k * QGRAM_LENGTH
            if _overlap(query_trigrams, grams_of(string)) < needed:
                continue
        kept += 1
    return kept


def _scan(corpus, query, k, engine, deadline=None):
    counters: dict = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.scan.executor.DEFAULT_VECTOR_MIN_ROWS",
                      ENGINES[engine])
        try:
            outcome = scan_query(corpus, query, k, counters=counters,
                                 deadline=deadline)
        except DeadlineExceeded as error:
            outcome = error
    return outcome, counters


@st.composite
def cases(draw, *, min_size=1, max_size=14, max_k=4, sizes=SIZES):
    """``(corpus, dataset, query, k)`` over an explicit alphabet, so the
    grouping does not depend on which symbols the drawn strings use.
    Lengths vary, so a window spans several buckets."""
    alphabet = SYMBOLS[:draw(st.sampled_from(sizes))]
    text = st.text(alphabet=alphabet, min_size=min_size, max_size=max_size)
    dataset = draw(st.lists(text, min_size=1, max_size=30))
    query = draw(st.text(alphabet=alphabet + STRANGERS, max_size=max_size))
    if draw(st.booleans()):
        # A near neighbour of a stored string, so matches are common.
        base = dataset[0]
        cut = draw(st.integers(min_value=0, max_value=len(base)))
        query = base[:cut] + draw(st.text(alphabet=alphabet + STRANGERS,
                                          max_size=2)) + base[cut + 1:]
    if draw(st.booleans()):
        # Neighbours of the query in the buckets around its length, so
        # rows pass the bounds and a budget can expire among them.
        known = "".join(symbol for symbol in query if symbol in alphabet)
        edits = st.tuples(st.integers(min_value=0, max_value=len(known)),
                          st.text(alphabet=alphabet, max_size=2))
        for at, inserted in draw(st.lists(edits, max_size=6)):
            neighbour = known[:at] + inserted + known[at + 1:]
            if len(neighbour) >= min_size:
                dataset.append(neighbour)
        # Anagrams pass the bag bound: only the trigram bound can
        # reject them.
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            anagram = "".join(draw(st.permutations(known)))
            if len(anagram) >= min_size:
                dataset.append(anagram)
    corpus = CompiledCorpus(dataset, alphabet=Alphabet("drawn", alphabet))
    return corpus, dataset, query, draw(st.integers(min_value=0,
                                                    max_value=max_k))


class TestSoundness:
    @settings(max_examples=250, deadline=None)
    @given(cases(), st.sampled_from(sorted(ENGINES)))
    def test_never_drops_a_string_within_k(self, case, engine):
        corpus, dataset, query, k = case
        found, counters = _scan(corpus, query, k, engine)
        assert found == _exact(dataset, query, k)
        assert counters["scan.kernel_calls"] == _survivors(corpus, query, k)
        assert counters["scan.kernel_calls"] + counters["scan.freq_rejects"] \
            == counters["scan.candidates"]

    @settings(max_examples=25, deadline=None)
    @given(cases(min_size=250, max_size=270), st.sampled_from(sorted(ENGINES)))
    def test_strings_past_255_symbols_take_wider_counts(self, case, engine):
        # Trigram row sums stay in the table's dtype: no row's total
        # reaches the longest string, which the dtype holds.
        corpus, dataset, query, k = case
        if corpus.max_length > 255:
            assert corpus.group_counts.dtype.itemsize == 2
            if corpus.trigram_counts is not None:
                assert corpus.trigram_counts.dtype.itemsize == 2
        found, counters = _scan(corpus, query, k, engine)
        assert found == _exact(dataset, query, k)
        assert counters["scan.kernel_calls"] == _survivors(corpus, query, k)

    @settings(max_examples=100, deadline=None)
    @given(cases(min_size=1, max_size=5), st.sampled_from(sorted(ENGINES)),
           st.text(alphabet="ACGT" + STRANGERS, max_size=QGRAM_LENGTH - 1))
    def test_queries_shorter_than_a_trigram(self, case, engine, query):
        # No query trigram: only rows with max(n, len) <= 2 + 3k pass.
        corpus, dataset, _, k = case
        found, counters = _scan(corpus, query, k, engine)
        assert found == _exact(dataset, query, k)
        assert counters["scan.kernel_calls"] == _survivors(corpus, query, k)

    @settings(max_examples=60, deadline=None)
    @given(cases(min_size=4, max_size=10, max_k=9, sizes=[4, 5]),
           st.sampled_from(sorted(ENGINES)))
    def test_vacuous_thresholds_leave_the_bag_bound(self, case, engine):
        corpus, dataset, query, k = case
        found, counters = _scan(corpus, query, k, engine)
        assert found == _exact(dataset, query, k)
        assert counters["scan.kernel_calls"] == _survivors(corpus, query, k)
        longest = max([len(query)] + [
            len(s) for s in corpus.strings if abs(len(s) - len(query)) <= k])
        if longest <= QGRAM_LENGTH - 1 + k * QGRAM_LENGTH:
            # Every row needs at most nothing: the bag bound alone
            # decides.
            assert counters["scan.kernel_calls"] == _survivors(
                corpus, query, k, trigrams=False)

    @settings(max_examples=100, deadline=None)
    @given(cases(), st.sampled_from(sorted(ENGINES)), st.data())
    def test_a_budget_sees_one_unit_per_candidate(self, case, engine, data):
        corpus, dataset, query, k = case
        exact = _exact(dataset, query, k)
        window = corpus.candidates_in_window(len(query), k)
        limit = data.draw(st.integers(min_value=1, max_value=window + 1))
        budget = Budget(limit, check_interval=1)
        outcome, counters = _scan(corpus, query, k, engine, budget)
        if isinstance(outcome, DeadlineExceeded):
            # Expired mid-window: a proven subset, never more work
            # charged than the window holds.
            assert set(outcome.partial) <= set(exact)
            assert 0 <= outcome.completed <= outcome.total == window
            assert limit <= budget.spent <= window
            assert counters["scan.matches"] == len(outcome.partial)
        else:
            assert outcome == exact
            assert budget.spent == counters["scan.candidates"] == window

    def test_a_bag_survivor_the_trigram_bound_rejects(self):
        # 'bchfg' is one substitution from the query's known symbols
        # 'bcefg': the bag bound keeps it (max(5, 5) - 4 = 1 <= 1), but
        # it needs 6 - 2 - 3 = 1 shared trigram and shares none (the
        # query's only clean trigram, 'efg', is not in it).
        corpus = CompiledCorpus(["bchfg"],
                                alphabet=Alphabet("a", SYMBOLS[:16]))
        query = "bc#efg"
        assert _survivors(corpus, query, 1, trigrams=False) == 1
        found, counters = _scan(corpus, query, 1, "scalar")
        assert found == _exact(["bchfg"], query, 1) == []
        assert counters["scan.kernel_calls"] == _survivors(
            corpus, query, 1) == 0
