"""One differential suite for the Myers recurrence and the scan above it.

The recurrence is written twice under ``src/`` (see DESIGN.md): the
bounded kernel :func:`repro.distance.bitparallel.myers_bounded`, which
every scan and join path calls, and the hand-inlined stage-4 loop of
``SequentialScanSearcher`` that the e2e benchmark uses as its oracle.
The plain DP :func:`repro.distance.levenshtein.edit_distance` shares no
code with either, so it is the reference here:

* kernel vs. DP vs. the numpy bucket kernel, over the three row types
  the scan feeds it (``str``, code tuple, numpy row);
* ``scan_query`` with each scoring engine forced (the window's
  survivor-count threshold ``DEFAULT_VECTOR_MIN_ROWS`` is the only
  thing that selects one), against the DP and
  ``SequentialScanSearcher``: matches *and* ``scan.*`` counters, with
  and without a ``Budget``.
"""

import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deadline import Budget
from repro.core.result import Match
from repro.core.sequential import SequentialScanSearcher
from repro.distance.bitparallel import (
    build_peq,
    myers_bounded,
    myers_distance,
    myers_within,
)
from repro.distance.levenshtein import edit_distance
from repro.distance.vectorized import (
    DEFAULT_VECTOR_MIN_ROWS,
    bucket_distances,
    prepare_query,
)
from repro.exceptions import DeadlineExceeded
from repro.scan.corpus import CompiledCorpus
from repro.scan import executor
from repro.scan.executor import scan_query

#: Text alphabet; ``z`` only ever appears in patterns and encodes to the
#: corpus's out-of-alphabet marker ``-1``.
_ALPHABET = "acgt"


def _encode(text: str) -> tuple[int, ...]:
    return tuple(_ALPHABET.find(symbol) for symbol in text)


def _kernel(pattern, row, k: int) -> int | None:
    n = len(pattern)
    return myers_bounded(build_peq(pattern).get, n, (1 << n) - 1,
                         1 << (n - 1), row, len(row), k)


def _bounded(distance: int, k: int) -> int | None:
    return distance if distance <= k else None


@st.composite
def bucket_cases(draw):
    """A pattern, one length bucket of texts, and a threshold."""
    pattern = draw(st.text(alphabet=_ALPHABET + "z", min_size=1,
                           max_size=70))
    length = draw(st.integers(min_value=0, max_value=40))
    texts = draw(st.lists(
        st.text(alphabet=_ALPHABET, min_size=length, max_size=length),
        max_size=8))
    k = draw(st.integers(min_value=0, max_value=max(len(pattern), length)
                         + 1))
    return pattern, texts, length, k


class TestKernel:
    @settings(max_examples=200, deadline=None)
    @given(bucket_cases())
    def test_row_types_and_bucket_kernel_agree(self, case):
        pattern, texts, length, k = case
        codes = _encode(pattern)
        matrix = np.array([_encode(text) for text in texts],
                          dtype=np.uint16).reshape(len(texts), length)
        vector = bucket_distances(
            prepare_query(codes, len(_ALPHABET)), matrix, k).tolist()
        for text, row, scored in zip(texts, matrix, vector):
            expected = _bounded(edit_distance(pattern, text), k)
            assert _kernel(pattern, text, k) == expected
            assert _kernel(codes, _encode(text), k) == expected
            assert _kernel(codes, row, k) == expected
            assert scored == (k + 1 if expected is None else expected)

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet=_ALPHABET, max_size=12),
           st.text(alphabet=_ALPHABET, max_size=12),
           st.integers(min_value=0, max_value=13))
    def test_wrappers_with_empty_operands(self, x, y, k):
        distance = edit_distance(x, y)
        assert myers_distance(x, y) == distance
        assert myers_within(x, y, k) == (distance <= k)

    def test_empty_pattern_is_the_text_length(self):
        assert myers_distance("", "acgt") == 4
        assert myers_within("", "acgt", 4)
        assert not myers_within("", "acgt", 3)

    def test_out_of_alphabet_codes_never_match(self):
        # ``zz`` encodes to (-1, -1): two substitutions against any
        # two-symbol text, whatever the text holds.
        row = np.array([0, 0], dtype=np.uint16)
        assert _kernel((-1, -1), row, 2) == 2
        assert _kernel((-1, -1), row, 1) is None
        assert _kernel((-1, 0), (0, 0), 1) == 1

    def test_threshold_zero_is_equality(self):
        assert _kernel("acgt", "acgt", 0) == 0
        assert _kernel("acgt", "acga", 0) is None
        assert _kernel("acgt", "acg", 0) is None

    def test_wide_threshold_never_aborts(self):
        assert _kernel("aaaa", "cccccc", 6) == 6
        assert _kernel("aaaa", "cccccc", 60) == 6
        assert _kernel("aaaa", "", 4) == 4

    def test_abort_on_the_last_column(self):
        # The score only exceeds k once the final symbol is read: the
        # abort check at ``remaining == 0`` is the one that fires.
        assert _kernel("aaaa", "aaac", 0) is None
        assert _kernel("aaaa", "aaac", 1) == 1
        assert _kernel("acgtacgt", "acgtacga", 0) is None


# -- the scan above the kernel -----------------------------------------

READS = [
    "ACGTACGTACGTACGTACGT",
    "ACGTACGTACGTACGTACGA",
    "TTTTTTTTTTTTTTTTTTTT",
    "ACGTACGTACGTACGTAC",
    "GGGGCCCCGGGGCCCCGGGG",
    "ACGTACGTACGTACGAACGT",
    "NNNNACGTACGTACGTACGT",
]

CITIES = ["Berlin", "Bern", "Bonn", "Bremen", "Berlingen",
          "Hamburg", "Hamm", "Ulm", "Uelzen", "Erlangen"]


def _wide_reads() -> list[str]:
    """About 2,000 reads of length 16 between two 40-read buckets of
    lengths 15 and 17, over two symbols: a two-symbol corpus has eight
    trigrams, so enough rows pass the trigram bound at k=1 for the
    window pass to run (over ``ACGT`` about one does). The size is
    pinned, not derived from the engine threshold, so the expiry cases
    below keep expiring."""
    rng = random.Random(21)
    reads = {"".join(rng.choice("AC") for _ in range(16))
             for _ in range(2048)}
    for length in (15, 17):
        reads.update("".join(rng.choice("AC") for _ in range(length))
                     for _ in range(40))
    return sorted(reads)


WIDE = _wide_reads()
WIDE_QUERY = WIDE[5]


#: The scan's survivor-count threshold, pinned to force one scoring
#: engine on every window: ``encoded`` scores survivors one code row at
#: a time (``myers_bounded``), ``packed`` scores every survivor of the
#: window in one pass (``window_distances``).
ENGINES = {"encoded": sys.maxsize, "packed": 1}


def _scan(dataset, query, k, *, engine=None, deadline=None):
    corpus = CompiledCorpus(dataset)
    counters: dict = {}
    with pytest.MonkeyPatch.context() as patch:
        if engine is not None:
            patch.setattr("repro.scan.executor.DEFAULT_VECTOR_MIN_ROWS",
                          ENGINES[engine])
        try:
            outcome = scan_query(corpus, query, k, counters=counters,
                                 deadline=deadline)
        except DeadlineExceeded as error:
            outcome = error
    return outcome, counters


def _count_window_passes(monkeypatch) -> list[int]:
    """Record the row count of every window pass the scan makes."""
    passes: list[int] = []
    real = executor.window_distances

    def counted(vq, columns, lengths, k, **kwargs):
        passes.append(len(lengths))
        return real(vq, columns, lengths, k, **kwargs)

    monkeypatch.setattr(executor, "window_distances", counted)
    return passes


def _exact(dataset, query, k) -> list[Match]:
    return sorted(Match(string, edit_distance(query, string))
                  for string in set(dataset)
                  if edit_distance(query, string) <= k)


class TestScanParity:
    @pytest.mark.parametrize("dataset,query,k", [
        (READS, "ACGTACGTACGTACGTACGT", 3),
        (READS, "ACGTACGTACGTACGTACGT", 0),
        (READS, "TTTTTTTTTTTTTTTTTTAA", 6),
        (READS, "ACGTXACGTACGTACGTACG", 4),   # X is outside the alphabet
        (CITIES, "Berlino", 2),
        (CITIES, "Hamborg", 2),
        (CITIES, "", 3),
        (WIDE, WIDE_QUERY, 1),     # 181 survive: window pass
        (WIDE, WIDE_QUERY, 4),     # 1,640 survive: window pass
    ], ids=["reads-k3", "reads-k0", "reads-k6", "reads-alien",
            "city-Berlino", "city-Hamborg", "city-empty",
            "wide-k1", "wide-k4"])
    def test_matches_and_counters_identical(self, dataset, query, k):
        encoded, encoded_counters = _scan(dataset, query, k,
                                          engine="encoded")
        packed, packed_counters = _scan(dataset, query, k, engine="packed")
        chosen, chosen_counters = _scan(dataset, query, k)
        assert encoded == packed == chosen == _exact(dataset, query, k)
        assert encoded == SequentialScanSearcher(dataset).search(query, k)
        assert encoded_counters == packed_counters == chosen_counters
        # Every kernel call ends in a match or in the abort check.
        assert encoded_counters["scan.early_aborts"] == \
            encoded_counters["scan.kernel_calls"] \
            - encoded_counters["scan.matches"]

    def test_both_engines_run_on_the_wide_corpus(self, monkeypatch):
        # The parity cases above only mean something if the window's
        # survivors cross the threshold where the window pass runs, and
        # stay under it where the scalar kernel runs.
        passes = _count_window_passes(monkeypatch)
        for k, vectorized in ((0, False), (1, True), (4, True)):
            before = len(passes)
            _, counters = _scan(WIDE, WIDE_QUERY, k)
            survivors = counters["scan.kernel_calls"]
            assert (survivors >= DEFAULT_VECTOR_MIN_ROWS) == vectorized
            assert len(passes) - before == vectorized

    def test_small_buckets_share_one_window_pass(self, monkeypatch):
        # No bucket reaches the threshold on its own, the window does:
        # the case whose engine moved from per-row to one window pass.
        rng = random.Random(8)
        reads = sorted({"".join(rng.choice("ACGT") for _ in range(length))
                        for length in (10, 11, 12, 13, 14)
                        for _ in range(DEFAULT_VECTOR_MIN_ROWS - 28)})
        query = reads[3][:12].ljust(12, "A")
        k = 4
        corpus = CompiledCorpus(reads)
        window = corpus.buckets_in_window(len(query), k)
        assert len({bucket.length for bucket in window}) >= 3
        assert all(len(bucket) < DEFAULT_VECTOR_MIN_ROWS
                   for bucket in window)
        passes = _count_window_passes(monkeypatch)
        chosen, chosen_counters = _scan(reads, query, k)
        assert passes == [chosen_counters["scan.kernel_calls"]]
        assert chosen_counters["scan.kernel_calls"] \
            >= DEFAULT_VECTOR_MIN_ROWS
        encoded, encoded_counters = _scan(reads, query, k,
                                          engine="encoded")
        assert chosen == encoded == _exact(reads, query, k)
        assert chosen == SequentialScanSearcher(reads).search(query, k)
        assert chosen_counters == encoded_counters

    def test_no_prefilter_all_reach_the_kernel(self):
        # With k at least the longest string the bag-distance bound
        # rejects nothing: the regime the bucket kernel is for, and the
        # scalar kernel must agree on it.
        k = max(map(len, WIDE))
        encoded, encoded_counters = _scan(WIDE, WIDE_QUERY, k,
                                          engine="encoded")
        packed, packed_counters = _scan(WIDE, WIDE_QUERY, k,
                                        engine="packed")
        assert encoded == packed == _exact(WIDE, WIDE_QUERY, k)
        assert encoded_counters == packed_counters
        assert packed_counters["scan.freq_rejects"] == 0
        assert packed_counters["scan.kernel_calls"] \
            == packed_counters["scan.candidates"] > 0

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_ample_budget_unit_per_candidate(self, engine, k):
        budget = Budget(10 ** 9, check_interval=1)
        matches, counters = _scan(WIDE, WIDE_QUERY, k, engine=engine,
                                  deadline=budget)
        unbounded, unbounded_counters = _scan(WIDE, WIDE_QUERY, k,
                                              engine=engine)
        assert matches == unbounded
        assert counters == unbounded_counters
        assert budget.spent == counters["scan.candidates"]

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("limit", [1, 60, 700, 2000])
    def test_expiry_yields_labelled_subset(self, engine, k, limit):
        exact = set(_exact(WIDE, WIDE_QUERY, k))
        window = CompiledCorpus(WIDE).candidates_in_window(
            len(WIDE_QUERY), k)
        error, counters = _scan(WIDE, WIDE_QUERY, k, engine=engine,
                                deadline=Budget(limit, check_interval=16))
        assert isinstance(error, DeadlineExceeded)
        assert error.scope == "candidates"
        assert set(error.partial) <= exact
        assert list(error.partial) == sorted(error.partial)
        assert 0 <= error.completed <= error.total == window
        # Counters are flushed on the way out, expiry or not.
        assert counters["scan.matches"] == len(error.partial)
