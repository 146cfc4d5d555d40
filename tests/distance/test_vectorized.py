"""Property-based tests for the vectorized Myers window kernel.

The vectorized kernel must agree *exactly* with the scalar bit-parallel
kernel — identical distances for every row of every window, at every
threshold — because the scan executor switches between them silently.
Hypothesis drives the adversarial search; the scalar kernel (itself
pinned to the full-matrix reference elsewhere) and the plain DP are the
oracles. ``bucket_distances`` is the equal-length call of
``window_distances``, so the bucket cases below cover both.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deadline import Budget
from repro.distance.bitparallel import build_peq, myers_bounded, myers_distance
from repro.distance.levenshtein import edit_distance
from repro.distance.vectorized import (
    DEFAULT_VECTOR_MIN_ROWS,
    bucket_distances,
    prepare_query,
    window_distances,
)
from repro.exceptions import DeadlineExceeded

#: Codes are ord(symbol) - ord('a'); 'z' encodes to -1, the stranger
#: marker the corpus uses for query symbols outside its alphabet.
_ALPHABET = "acgt"


def _encode(text: str) -> tuple[int, ...]:
    return tuple(
        _ALPHABET.index(ch) if ch in _ALPHABET else -1 for ch in text
    )


def _codes_matrix(rows: list[str], length: int) -> np.ndarray:
    data = [[_ALPHABET.index(ch) for ch in row] for row in rows]
    return np.array(data, dtype=np.uint16).reshape(len(rows), length)


def _reference(query: str, rows: list[str], k: int) -> list[int]:
    return [min(myers_distance(query, row), k + 1) for row in rows]


@st.composite
def bucket_cases(draw):
    query = draw(st.text(alphabet=_ALPHABET + "z", min_size=1,
                         max_size=75))
    length = draw(st.integers(min_value=0, max_value=70))
    count = draw(st.integers(min_value=0, max_value=12))
    rows = [
        draw(st.text(alphabet=_ALPHABET, min_size=length,
                     max_size=length))
        for _ in range(count)
    ]
    k = draw(st.integers(min_value=0, max_value=8))
    return query, rows, length, k


class TestScalarParity:
    @settings(max_examples=150, deadline=None)
    @given(bucket_cases())
    def test_matches_scalar_kernel(self, case):
        query, rows, length, k = case
        vq = prepare_query(_encode(query), len(_ALPHABET))
        got = bucket_distances(vq, _codes_matrix(rows, length), k)
        assert got.tolist() == _reference(query, rows, k)

    @settings(max_examples=40, deadline=None)
    @given(
        st.text(alphabet=_ALPHABET, min_size=65, max_size=150),
        st.lists(st.text(alphabet=_ALPHABET, min_size=100,
                         max_size=100), max_size=6),
        st.integers(min_value=0, max_value=12),
    )
    def test_multi_word_queries(self, query, rows, k):
        # Queries past 64 symbols: the one-word band slides past the
        # first 64 query rows; DNA reads live exactly in this regime.
        vq = prepare_query(_encode(query), len(_ALPHABET))
        assert vq.n > 64
        got = bucket_distances(vq, _codes_matrix(rows, 100), k)
        assert got.tolist() == _reference(query, rows, k)

    def test_empty_bucket(self):
        vq = prepare_query(_encode("acgt"), len(_ALPHABET))
        got = bucket_distances(vq, np.zeros((0, 7), dtype=np.uint16), 2)
        assert got.shape == (0,)

    def test_singleton_bucket(self):
        vq = prepare_query(_encode("acgt"), len(_ALPHABET))
        got = bucket_distances(vq, _codes_matrix(["acgt"], 4), 2)
        assert got.tolist() == [0]

    def test_zero_length_candidates(self):
        vq = prepare_query(_encode("acg"), len(_ALPHABET))
        within = bucket_distances(vq, np.zeros((3, 0), dtype=np.uint16),
                                  3)
        assert within.tolist() == [3, 3, 3]
        beyond = bucket_distances(vq, np.zeros((3, 0), dtype=np.uint16),
                                  2)
        assert beyond.tolist() == [3, 3, 3]  # k + 1: excluded

    def test_stranger_query_symbols_never_match(self):
        # 'z' encodes to -1: no peq bit, so it costs one edit against
        # every candidate symbol — the raw-string semantics.
        vq = prepare_query(_encode("zzzz"), len(_ALPHABET))
        got = bucket_distances(vq, _codes_matrix(["acgt"], 4), 4)
        assert got.tolist() == [4]

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            prepare_query((), len(_ALPHABET))


class TestEarlyAbort:
    def test_all_candidates_die_early(self):
        # k=0 against uniformly wrong rows kills the whole active set
        # long before the last column; result must still be k + 1.
        query = "a" * 40
        rows = ["c" * 40] * 5
        vq = prepare_query(_encode(query), len(_ALPHABET))
        got = bucket_distances(vq, _codes_matrix(rows, 40), 0)
        assert got.tolist() == [1] * 5

    def test_survivors_keep_exact_distances_after_compaction(self):
        # Mixed bucket: some rows die early, some match — compaction
        # must not scramble who is who.
        query = "acgtacgtacgtacgtacgtacgtacgtacgt"  # 32 symbols
        rows = ["c" * 32, query, "t" * 32,
                query[:-1] + "a", "g" * 32]
        vq = prepare_query(_encode(query), len(_ALPHABET))
        got = bucket_distances(vq, _codes_matrix(rows, 32), 2)
        assert got.tolist() == _reference(query, rows, 2)

    @settings(max_examples=60, deadline=None)
    @given(bucket_cases())
    def test_abort_paths_agree_at_tight_thresholds(self, case):
        # k=0 and k=1 maximize early aborts; parity must survive them.
        query, rows, length, _ = case
        vq = prepare_query(_encode(query), len(_ALPHABET))
        codes = _codes_matrix(rows, length)
        for k in (0, 1):
            got = bucket_distances(vq, codes, k)
            assert got.tolist() == _reference(query, rows, k)


class TestDeadlines:
    def test_whole_bucket_charges_one_unit_per_candidate(self):
        query = "acgt" * 10
        rows = ["acgt" * 10, "aggt" * 10, "tttt" * 10]
        vq = prepare_query(_encode(query), len(_ALPHABET))
        budget = Budget(len(rows) + 1, check_interval=1)
        bucket_distances(vq, _codes_matrix(rows, 40), 3,
                         deadline=budget)
        assert budget.spent == len(rows)

    def test_early_return_still_charges_full_bucket(self):
        # The scalar kernel charges every candidate it touches; the
        # vectorized early return must not under-report work.
        query = "a" * 40
        rows = ["c" * 40] * 4
        vq = prepare_query(_encode(query), len(_ALPHABET))
        budget = Budget(len(rows) + 1, check_interval=1)
        bucket_distances(vq, _codes_matrix(rows, 40), 0,
                         deadline=budget)
        assert budget.spent == len(rows)

    def test_mid_bucket_expiry_raises_without_partial(self):
        query = "acgt" * 20
        rows = ["acgt" * 20] * 50
        vq = prepare_query(_encode(query), len(_ALPHABET))
        budget = Budget(5, check_interval=1)
        with pytest.raises(DeadlineExceeded) as caught:
            bucket_distances(vq, _codes_matrix(rows, 80), 2,
                             deadline=budget, block=8)
        assert caught.value.scope == "candidates"
        assert caught.value.partial == ()


def test_auto_threshold_is_sane():
    # The executor's auto heuristic keys off this constant; pin it so
    # a change is a conscious decision, not a drive-by.
    assert DEFAULT_VECTOR_MIN_ROWS >= 2


# -- one pass over a whole length window -------------------------------

def _window(rows: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``window_distances`` operands: rows longest first, as columns."""
    rows = sorted(rows, key=len, reverse=True)
    longest = len(rows[0]) if rows else 0
    columns = np.zeros((longest, len(rows)), dtype=np.uint8)
    for index, row in enumerate(rows):
        columns[:len(row), index] = [_ALPHABET.index(ch) for ch in row]
    return columns, np.array([len(row) for row in rows], dtype=np.int64)


def _window_scores(query: str, rows: list[str], k: int, **kwargs
                   ) -> list[int]:
    """Scores in input order (the kernel's row order is longest first,
    a stable sort, so each row's input index is recoverable)."""
    order = sorted(range(len(rows)), key=lambda i: -len(rows[i]))
    vq = prepare_query(_encode(query), len(_ALPHABET))
    scores = window_distances(vq, *_window([rows[i] for i in order]), k,
                              **kwargs)
    out = [0] * len(rows)
    for position, index in enumerate(order):
        out[index] = int(scores[position])
    return out


def _death_column(query: str, row: str, k: int) -> int | None:
    """The first text column after which ``score - remaining > k`` (the
    abort test), from the plain DP's last row; ``None`` if never."""
    previous = list(range(len(query) + 1))
    for column, symbol in enumerate(row):
        current = [column + 1]
        for i, char in enumerate(query):
            current.append(min(previous[i + 1] + 1, current[i] + 1,
                               previous[i] + (char != symbol)))
        previous = current
        if previous[-1] - (len(row) - column - 1) > k:
            return column
    return None


@st.composite
def window_cases(draw, *, min_query: int = 1, max_query: int = 75):
    query = draw(st.text(alphabet=_ALPHABET + "z", min_size=min_query,
                         max_size=max_query))
    rows = draw(st.lists(st.text(alphabet=_ALPHABET, max_size=90),
                         max_size=14))
    longest = max((len(row) for row in rows), default=0)
    k = draw(st.integers(min_value=0, max_value=longest + 2))
    return query, rows, k


class TestWindow:
    @settings(max_examples=150, deadline=None)
    @given(window_cases(max_query=64))
    def test_single_word_matches_dp_and_scalar_kernel(self, case):
        self._check(*case)

    @settings(max_examples=60, deadline=None)
    @given(window_cases(min_query=65, max_query=140))
    def test_multi_word_matches_dp_and_scalar_kernel(self, case):
        self._check(*case)

    @staticmethod
    def _check(query, rows, k):
        codes = _encode(query)
        n = len(codes)
        peq_get = build_peq(codes).get
        got = _window_scores(query, rows, k)
        for row, score in zip(rows, got):
            exact = edit_distance(query.replace("z", "\0"), row)
            assert score == min(exact, k + 1)
            scalar = myers_bounded(peq_get, n, (1 << n) - 1, 1 << (n - 1),
                                   _encode(row), len(row), k)
            assert score == (k + 1 if scalar is None else scalar)

    def test_row_finishes_on_the_column_where_others_die(self):
        """Built on the ``score - remaining`` rule (``_death_column``).
        The long rows lie outside the band (``|n - len| > k``), so the
        banded kernel scores them up front; ``TestBand`` has the
        version built on the final-diagonal rule."""
        query, k = "acgtacgt", 1
        short = "acgtacg"   # distance 1, finishes at column 6
        long = "ttttttttttt"
        assert _death_column(query, long, k) == len(short) - 1
        rows = [long, long, short, long]
        assert _window_scores(query, rows, k) == _reference(query, rows, k)

    def test_every_row_dead_before_the_shortest_finishes(self):
        """Built on the ``score - remaining`` rule (``_death_column``);
        ``TestBand`` has the final-diagonal version."""
        query, k = "a" * 12, 0
        rows = ["c" * 14, "c" * 13, "g" * 12, "t" * 12]
        deaths = [_death_column(query, row, k) for row in rows]
        assert max(deaths) < 11
        assert _window_scores(query, rows, k) == [1, 1, 1, 1]

    @pytest.mark.parametrize("count", [4, 5])
    def test_quarter_dead_is_the_compaction_boundary(self, count):
        """Built on the ``score - remaining`` rule (``_death_column``);
        ``TestBand`` has the final-diagonal version."""
        # One dead row of four is compacted out at once; one of five
        # stays in the set, is scored to its end and still lands > k.
        query, k = "acgtacgtacgt", 1
        live = [query, query[:-1] + "a", query + "c", query[1:]]
        rows = live[:count - 1] + ["tttttttttttt"]
        assert _death_column(query, rows[-1], k) < len(query) - 1
        assert all(_death_column(query, row, k) is None
                   for row in rows[:-1])
        assert _window_scores(query, rows, k) == _reference(query, rows, k)

    def test_row_blocks_give_identical_output(self, monkeypatch):
        # Copies of the query with 0-7 random edits: mixed lengths, and
        # both matches and rejects in every block of 7 rows.
        rng = random.Random(5)
        query = "acgtacgtacgtacgtacgt"
        rows = []
        for _ in range(40):
            row = list(query)
            for _ in range(rng.randrange(8)):
                at = rng.randrange(len(row) + 1)
                edit = rng.choice("sid")
                if edit == "i" or at == len(row):
                    row.insert(at, rng.choice(_ALPHABET))
                elif edit == "d":
                    del row[at]
                else:
                    row[at] = rng.choice(_ALPHABET)
            rows.append("".join(row))
        whole = _window_scores(query, rows, 3)
        assert whole == _reference(query, rows, 3)
        assert len(set(map(len, rows))) > 3 and 4 < whole.count(4) < 36
        monkeypatch.setattr(
            "repro.distance.vectorized._WINDOW_ROWS", 7)
        assert _window_scores(query, rows, 3) == whole

    @pytest.mark.parametrize("limit", [None, 7])
    def test_ample_budget_spends_one_unit_per_row(self, monkeypatch,
                                                  limit):
        if limit:
            monkeypatch.setattr(
                "repro.distance.vectorized._WINDOW_ROWS", limit)
        rows = ["acgt" * 10, "aggt" * 9, "tttt" * 8, "", "ac"] * 5
        budget = Budget(10 ** 6, check_interval=1)
        _window_scores("acgt" * 10, rows, 3, deadline=budget, block=4)
        assert budget.spent == len(rows)

    def test_mid_window_expiry_raises_without_partial(self):
        rows = ["acgt" * 20, "acgt" * 19, "acgt" * 18] * 10
        budget = Budget(5, check_interval=1)
        with pytest.raises(DeadlineExceeded) as caught:
            _window_scores("acgt" * 20, rows, 2, deadline=budget, block=8)
        assert caught.value.scope == "candidates"
        assert caught.value.partial == ()
        assert caught.value.total == len(rows)

    def test_equal_length_bucket_is_a_window(self):
        rows = ["acgtac", "aggtac", "tttttt"]
        vq = prepare_query(_encode("acgta"), len(_ALPHABET))
        assert bucket_distances(vq, _codes_matrix(rows, 6), 2).tolist() \
            == window_distances(vq, *_window(rows), 2).tolist()


# -- the diagonal band ---------------------------------------------------

def _diagonal_death_column(query: str, row: str, k: int) -> int | None:
    """The first text column after which the row's final diagonal
    ``d = len(query) - len(row)`` holds a value above ``k`` (the banded
    kernel's abort test), from the plain DP; ``None`` if never, and
    ``-1`` for a row the band excludes up front (``|d| > k``). Rows
    above the query read ``D[i][j] = j - i``, so the diagonal starts at
    ``|d|``."""
    d = len(query) - len(row)
    if abs(d) > k:
        return -1
    previous = list(range(len(query) + 1))
    for column, symbol in enumerate(row):
        current = [column + 1]
        for i, char in enumerate(query):
            current.append(min(previous[i + 1] + 1, current[i] + 1,
                               previous[i] + (char != symbol)))
        previous = current
        i = column + 1 + d
        value = previous[i] if i >= 0 else column + 1 - i
        if value > k:
            return column
    return None


@st.composite
def _near_rows(draw, query: str, lengths, edits: int):
    """Rows of the given lengths made from the query: trimmed or padded
    at random positions, then up to ``edits`` substitutions, so the
    distances straddle ``k``."""
    rows = []
    for length in lengths:
        row = [ch if ch in _ALPHABET else "a" for ch in query]
        while len(row) > length:
            del row[draw(st.integers(0, len(row) - 1))]
        while len(row) < length:
            row.insert(draw(st.integers(0, len(row))),
                       draw(st.sampled_from(_ALPHABET)))
        for _ in range(draw(st.integers(0, edits)) if row else 0):
            row[draw(st.integers(0, len(row) - 1))] = \
                draw(st.sampled_from(_ALPHABET))
        rows.append("".join(row))
    return rows


@st.composite
def band_cases(draw, *, ks, max_query: int, offsets, min_query: int = 1):
    """A query, a threshold from ``ks`` and rows whose lengths are
    ``len(query) + offset`` for offsets drawn from ``offsets(k)``."""
    k = draw(ks)
    query = draw(st.text(alphabet=_ALPHABET + "z", min_size=min_query,
                         max_size=max_query))
    n = len(query)
    lengths = [max(n + offset, 0) for offset in draw(
        st.lists(offsets(k), max_size=10))]
    return query, draw(_near_rows(query, lengths, k + 2)), k


class TestBand:
    @settings(max_examples=40, deadline=None)
    @given(band_cases(ks=st.integers(32, 70), min_query=64,
                      max_query=140,
                      offsets=lambda k: st.integers(-k - 2, k + 2)))
    def test_bands_wider_than_one_word(self, case):
        # Long queries give the carry room to cross into the second
        # word inside the rows that can still end within k.
        TestWindow._check(*case)

    @settings(max_examples=60, deadline=None)
    @given(band_cases(
        ks=st.integers(0, 12), max_query=75,
        offsets=lambda k: st.one_of(st.integers(-k - 6, -k - 1),
                                    st.integers(k + 1, k + 6),
                                    st.integers(-k, k))))
    def test_rows_outside_the_band_score_k_plus_one(self, case):
        query, rows, k = case
        TestWindow._check(query, rows, k)
        got = _window_scores(query, rows, k)
        for row, score in zip(rows, got):
            if abs(len(row) - len(query)) > k:
                assert score == k + 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_queries_shorter_than_k(self, data):
        # The whole query sits inside the first band, below k rows that
        # lie above it (rows <= 0).
        query = data.draw(st.text(alphabet=_ALPHABET + "z", min_size=1,
                                  max_size=10))
        k = data.draw(st.integers(len(query) + 1, len(query) + 40))
        lengths = data.draw(st.lists(st.integers(0, len(query) + k + 2),
                                     max_size=10))
        rows = data.draw(_near_rows(query, lengths, k))
        TestWindow._check(query, rows, k)

    @settings(max_examples=60, deadline=None)
    @given(band_cases(ks=st.integers(0, 40), max_query=100,
                      offsets=lambda k: st.sampled_from([-k, k])))
    def test_rows_on_the_band_edge(self, case):
        # d = n - len = -k and +k: the band's first and last diagonal
        # that can still end within k.
        TestWindow._check(*case)

    def test_row_finishes_on_the_column_where_others_die(self):
        """The final-diagonal version: the long rows die on their
        diagonal exactly where the short row finishes, while the
        ``score - remaining`` rule would keep them to their end."""
        query, k = "acgtacgt", 1
        short = "acgtacg"   # distance 1, finishes at column 6
        long = "acgtaggtc"
        assert _diagonal_death_column(query, long, k) == len(short) - 1
        assert _death_column(query, long, k) == len(long) - 1
        rows = [long, long, short, long]
        assert _window_scores(query, rows, k) == _reference(query, rows, k)

    def test_every_row_dead_before_the_shortest_finishes(self):
        """The final-diagonal version: every row is inside the band and
        dies on its diagonal before the shortest row's last column."""
        query, k = "acgtacgtacgt", 2
        rows = ["t" * 14, "g" * 13, "c" * 12, "t" * 11, "g" * 10]
        deaths = [_diagonal_death_column(query, row, k) for row in rows]
        assert all(0 <= death < 9 for death in deaths)
        assert _window_scores(query, rows, k) == [3] * 5

    @pytest.mark.parametrize("count", [4, 5])
    def test_quarter_dead_is_the_compaction_boundary(self, count):
        """The final-diagonal version: the dead row dies on its diagonal
        at column 1, seven columns before ``score - remaining`` would
        notice. One dead row of four is compacted out at once; one of
        five stays in the set, is scored to its end and still lands
        above ``k``, because its diagonal never decreases."""
        query, k = "acgtacgtacgt", 1
        live = [query, query[:-1] + "a", query + "c", query[1:]]
        rows = live[:count - 1] + ["ctgtacgtacgt"]
        assert _diagonal_death_column(query, rows[-1], k) == 1
        assert _death_column(query, rows[-1], k) == 8
        assert all(_diagonal_death_column(query, row, k) is None
                   for row in rows[:-1])
        assert _window_scores(query, rows, k) == _reference(query, rows, k)
