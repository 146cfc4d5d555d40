"""Soundness of the scan's symbol-group bag-distance select.

The select folds the alphabet into at most 16 groups and keeps a string
of length ``len`` iff ``common >= max(n', len) - k``, where ``n'``
counts the query's symbols inside the alphabet and ``common`` is the
per-group overlap. Folding symbols never increases edit distance, so
the bound must never drop a string within ``k``. These properties check
that against the plain DP (:func:`repro.distance.levenshtein.edit_distance`,
which shares no code with the scan):

* on alphabets of 1, 16 (one group per symbol) and 17 (folded) symbols;
* with query symbols outside the alphabet;
* on strings longer than 255 symbols, whose counts need ``uint16``;
* with each scoring engine forced, and under a ``Budget`` that expires
  mid-window.

An independent count of the bound's survivors also pins
``scan.kernel_calls``, so the select computes exactly the stated bound,
not merely some sound one.
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
from repro.scan.corpus import CompiledCorpus
from repro.scan.executor import scan_query

#: Seventeen symbols: the first 1 or 16 keep one group per symbol, all
#: 17 fold into 16 groups.
SYMBOLS = "abcdefghijklmnopq"
STRANGERS = "#~"

#: The survivor-count threshold forced to select one scoring engine.
ENGINES = {"scalar": sys.maxsize, "window": 1}


def _exact(dataset, query, k) -> list[Match]:
    return sorted(Match(string, distance) for string in set(dataset)
                  if (distance := edit_distance(query, string)) <= k)


def _survivors(corpus: CompiledCorpus, query: str, k: int) -> int:
    """The bound's survivors in the length window, counted string by
    string from the group map alone."""
    group_of = {symbol: corpus.group_of[corpus.alphabet.code(symbol)]
                for symbol in corpus.alphabet.symbols}
    groups = [group_of[symbol] for symbol in query if symbol in group_of]
    present = len(groups)
    kept = 0
    for string in corpus.strings:
        if abs(len(string) - len(query)) > k:
            continue
        counts = [group_of[symbol] for symbol in string]
        common = sum(min(groups.count(g), counts.count(g))
                     for g in set(groups))
        kept += max(present, len(string)) - common <= k
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
def cases(draw, *, min_size=1, max_size=10):
    """``(corpus, dataset, query, k)`` over an explicit alphabet of 1, 16
    or 17 symbols, so the grouping does not depend on which symbols the
    drawn strings happen to use."""
    alphabet = SYMBOLS[:draw(st.sampled_from([1, 16, 17]))]
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
        # a budget can expire after some of them are proven.
        known = "".join(symbol for symbol in query if symbol in alphabet)
        edits = st.tuples(st.integers(min_value=0, max_value=len(known)),
                          st.text(alphabet=alphabet, max_size=2))
        for at, inserted in draw(st.lists(edits, max_size=4)):
            neighbour = known[:at] + inserted + known[at + 1:]
            if len(neighbour) >= min_size:
                dataset.append(neighbour)
    corpus = CompiledCorpus(dataset, alphabet=Alphabet("drawn", alphabet))
    return corpus, dataset, query, draw(st.integers(min_value=0,
                                                    max_value=4))


class TestSoundness:
    @settings(max_examples=200, deadline=None)
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
        corpus, dataset, query, k = case
        if corpus.max_length > 255:
            assert corpus.group_counts.dtype.itemsize == 2
        found, counters = _scan(corpus, query, k, engine)
        assert found == _exact(dataset, query, k)
        assert counters["scan.kernel_calls"] == _survivors(corpus, query, k)

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
