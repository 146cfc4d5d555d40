"""Numpy-vectorized banded Myers kernel: one query vs a whole length window.

The scalar bit-parallel kernel
(:func:`repro.distance.bitparallel.myers_bounded`) spends most of its
time in the Python interpreter — roughly a dozen bytecodes per text
column *per candidate*. This module runs the Myers recurrence across
**every survivor of a query's length window at once** as ``numpy``
array operations, so the interpreter cost per column is paid once per
window instead of once per candidate (or once per bucket). It also
computes far less of the DP per candidate than the scalar kernel: only
the diagonal band the paper's §3.2 keeps (Ukkonen's cut-off), held in
bit vectors the way Hyyrö (2003, "A bit-vector algorithm for computing
Levenshtein and Damerau edit distances") slides it down the matrix:

* survivors of every bucket in the window form one
  ``(longest length, rows)`` code matrix, rows ordered longest first;
  row ``r`` is valid for its first ``lengths[r]`` columns, and each
  text column is one contiguous row of that matrix;
* the state is a band of ``W = 64 * ceil((2k + 2) / 64)`` query rows
  (one ``uint64`` word for every ``k <= 31``), not the whole
  ``n``-row column. At text column ``j`` bit ``b`` holds query row
  ``j - k + b``, so bit ``k + d`` always holds DP diagonal
  ``d = row - column``. Each column the band slides down one row:
  ``Pv``/``Mv`` shift right, the new bottom row enters with
  ``Δv = +1`` and the row above the top with ``Δh = +1`` (no carry
  in). Rows above the query (row ``<= 0``) start with ``Δv = -1``, so
  row 0 reads ``D[0][j] = j``. Values the band cuts off only ever
  make a cell larger, and every cell on a path of cost ``<= k`` lies
  on a diagonal ``|d| <= k`` inside the band, so every distance
  ``<= k`` comes out exact;
* the match bits come from a per-``(query, k)`` band table of shape
  ``(n + k, words, alphabet_size)``; each text column gathers every
  active row's ``eq`` word(s) with one ``take`` along the alphabet
  axis. Bands wider than 64 rows carry across words;
* a row's score lives on its *final diagonal* ``d = n - len(row)``,
  which ends in the cell ``(n, len(row))`` (the paper's condition 7).
  It starts at ``|d|`` and adds the diagonal step ``0`` or ``1`` read
  at band bit ``k + d`` every column, so at the row's last column it
  is the exact distance with no popcount. Rows with ``|d| > k`` never
  enter the pass: they score ``k + 1`` up front (equation 5);
* values on a diagonal never decrease (condition 6), so a row whose
  diagonal score passes ``k`` can never recover. Such dead rows leave
  the active set lazily: they are compacted out only once at least a
  quarter of the active rows are dead, and the window finishes early
  when nobody survives. A dead row left in the set still finishes
  above ``k``, because its diagonal score only grows;
* a row finishes at its own last column. Rows are sorted by length,
  so the finishing rows are always the tail of the active set and
  leave by slicing.

Parity with the scalar kernel is exact — identical match sets and
identical distances — enforced by the hypothesis suites in
``tests/distance/test_vectorized.py`` and
``tests/distance/test_myers_kernel.py``. Counter parity follows from an
invariant of the scalar loop: ``score - remaining`` is non-decreasing
and is checked after every column, and at the last column
``remaining == 0``, so *every* non-match trips the abort check and
``early_aborts == kernel_calls - matches`` always. The vectorized path
reports exactly that identity.

Deadlines are polled **between column blocks** (the kernel has no
per-candidate loop to count in): every :data:`DEFAULT_COLUMN_BLOCK`
columns the window's rows are charged pro rata against the deadline,
so a :class:`repro.core.deadline.Budget` sees the same total unit count
(one unit per candidate) a scalar scan of the rows would charge.
"""

from __future__ import annotations

import numpy as np

from repro.core.deadline import Budget, Deadline
from repro.exceptions import DeadlineExceeded

#: Minimum survivors (post-prefilter, summed over every bucket of the
#: query's length window) for :func:`repro.scan.executor.scan_query` to
#: score them in one :func:`window_distances` pass rather than with
#: :func:`repro.distance.bitparallel.myers_bounded` row by row. The
#: vectorized cost per text column is a fixed set of numpy calls plus a
#: small per-row term, the scalar cost is linear in rows. The measured
#: crossover sits between 64 and 128 rows on ~11-symbol names and below
#: 32 rows on ~100-symbol DNA reads, so at 128 neither engine loses
#: (docs/SPEED.md, "The threshold").
DEFAULT_VECTOR_MIN_ROWS = 128

#: Text columns processed between deadline polls.
DEFAULT_COLUMN_BLOCK = 32

#: Most rows scored at once; a larger window is scored in consecutive
#: row blocks of this size, which bounds the kernel's working set.
_WINDOW_ROWS = 1 << 17

#: A dead row leaves the active set once this share of it is dead.
_COMPACT_SHARE = 4

_U1 = np.uint64(1)
_U63 = np.uint64(63)
_TOP = np.uint64(1 << 63)


class VectorQuery:
    """One query compiled for vectorized scanning, reusable per window.

    Built once per ``(query, k)`` scan by :func:`prepare_query` — the
    vector analog of hoisting
    :func:`repro.distance.bitparallel.build_peq` out of the candidate
    loop. The band table also depends on ``k``, so
    :func:`window_distances` builds it (:func:`_band_table`).

    Attributes
    ----------
    codes:
        The encoded query as an ``int64`` array, ``-1`` for symbols
        outside the alphabet.
    n:
        Query length in symbols (``>= 1``).
    alphabet_size:
        Number of symbol codes a candidate row may hold.
    """

    __slots__ = ("codes", "n", "alphabet_size")

    def __init__(self, codes: np.ndarray, alphabet_size: int) -> None:
        self.codes = codes
        self.n = len(codes)
        self.alphabet_size = max(alphabet_size, 1)


def _band_table(vq: VectorQuery, k: int) -> np.ndarray:
    """The ``(n + k, words, alphabet_size)`` ``uint64`` band table.

    Entry ``[j, w, c]`` holds bits ``64w .. 64w + 63`` of the band's
    match mask at text column ``j`` (0-based) for symbol code ``c``:
    bit ``b`` is set when query row ``j + 1 - k + b`` (1-based) exists
    and holds ``c``. Columns past ``n + k`` are never read, because
    longer rows never enter the pass.
    """
    columns = vq.n + k
    width = 64 * ((2 * k + 2 + 63) // 64)
    table = np.zeros((columns, width // 64, vq.alphabet_size),
                     dtype=np.uint64)
    codes = vq.codes
    positions = np.nonzero((codes >= 0) & (codes < vq.alphabet_size))[0]
    symbols = np.flatnonzero(np.bincount(codes[positions], minlength=1))
    if not len(symbols):
        return table
    # One bit row per query symbol over the padded query: k empty rows
    # above it, then the query, then room for the band's bottom.
    # Column j's band is the slice [j, j + width).
    padded = np.zeros((len(symbols), columns + width - 1), dtype=bool)
    padded[np.searchsorted(symbols, codes[positions]), k + positions] = True
    windows = np.lib.stride_tricks.sliding_window_view(padded, width,
                                                       axis=1)
    words = np.packbits(windows, axis=-1, bitorder="little")
    words = np.ascontiguousarray(words).view("<u8").astype(np.uint64)
    table[:, :, symbols] = words.transpose(1, 2, 0)
    return table


def prepare_query(query_codes, alphabet_size: int) -> VectorQuery:
    """Build the :class:`VectorQuery` for an encoded query.

    ``query_codes`` may contain ``-1`` for symbols outside the corpus
    alphabet (see :meth:`repro.scan.corpus.CompiledCorpus.encode_query`);
    such positions set no band bit, so they can never match any
    candidate symbol — the raw-string semantics.
    """
    if len(query_codes) == 0:
        raise ValueError("prepare_query needs a non-empty query")
    return VectorQuery(np.asarray(query_codes, dtype=np.int64),
                       alphabet_size)


def _charge(deadline: Deadline | Budget, units: int, *, count: int,
            column: int, length: int) -> None:
    """Poll the deadline mid-window, raising on expiry.

    The raised exception carries no partial matches — no row of the
    in-flight window is reported before the pass ends — and the caller
    (:func:`repro.scan.executor.scan_query`) re-raises with the matches
    it proved before the pass attached.
    """
    if deadline.spend(units):
        raise DeadlineExceeded(
            f"vectorized window scan exceeded its deadline at column "
            f"{column} of {length} ({count} candidates in flight)",
            scope="candidates", completed=0, total=count,
        )


def bucket_distances(vq: VectorQuery, codes: np.ndarray, k: int, *,
                     deadline: Deadline | Budget | None = None,
                     block: int = DEFAULT_COLUMN_BLOCK) -> np.ndarray:
    """:func:`window_distances` over one ``(count, length)`` code matrix
    of equal-length rows, e.g.
    :attr:`repro.distance.packed.PackedBucket.codes`."""
    count, length = codes.shape
    return window_distances(vq, np.ascontiguousarray(codes.T),
                            np.full(count, length, dtype=np.int64), k,
                            deadline=deadline, block=block)


def window_distances(vq: VectorQuery, columns: np.ndarray, lengths, k: int,
                     *, deadline: Deadline | Budget | None = None,
                     block: int = DEFAULT_COLUMN_BLOCK) -> np.ndarray:
    """Bounded distances from one query to rows of mixed lengths.

    Parameters
    ----------
    vq:
        The compiled query (see :func:`prepare_query`).
    columns:
        ``(longest length, rows)`` unsigned-integer symbol-code matrix:
        ``columns[j, r]`` is symbol ``j`` of row ``r``. Rows are ordered
        by non-increasing length and row ``r`` is read only in its first
        ``lengths[r]`` columns.
    lengths:
        The row lengths, non-increasing.
    k:
        The distance threshold.
    deadline:
        Optional deadline/budget, polled every ``block`` columns. The
        rows charge one work unit each, pro rata across the column
        blocks actually executed, matching the scalar kernel's
        one-unit-per-candidate accounting.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of shape ``(rows,)``: the exact edit distance
        where it is ``<= k``, and ``k + 1`` for every row the threshold
        excluded (whether early-aborted or completed).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    final = np.full(len(lengths), k + 1, dtype=np.int64)
    band = _band_table(vq, k)
    for start in range(0, len(lengths), _WINDOW_ROWS):
        stop = start + _WINDOW_ROWS
        final[start:stop] = _score_rows(vq.n, band, columns[:, start:stop],
                                        lengths[start:stop], k,
                                        deadline, block)
    return final


def _score_rows(n: int, band: np.ndarray, columns: np.ndarray,
                lengths: np.ndarray, k: int,
                deadline: Deadline | Budget | None,
                block: int) -> np.ndarray:
    """One row block of :func:`window_distances`."""
    count = len(lengths)
    over = k + 1
    final = np.full(count, over, dtype=np.int64)
    # Only rows whose final diagonal lies in the band can end within k;
    # lengths are sorted, so they are one slice.
    descending = -lengths
    head = int(np.searchsorted(descending, -(n + k), side="left"))
    stop = int(np.searchsorted(descending, -(n - k), side="right"))
    # Empty rows sit at the tail; their distance is the query length.
    live = stop - int(np.count_nonzero(lengths[head:stop] == 0))
    final[live:stop] = n
    longest = int(lengths[head]) if live > head else 0

    words = band.shape[1]
    rows = np.arange(head, live)  # original index of every active row
    compacted = False             # False: ``rows`` is still a range
    active_lengths = lengths[head:live]
    # Each row's band bit k + d on its final diagonal d = n - length,
    # and its reach: diagonal hits so far plus k - |d|. The diagonal
    # score after ``done`` columns is ``done + k - reach``, so a row is
    # dead once ``reach < done`` and scores that difference at its end.
    offset = (k + n - active_lengths).astype(np.uint64)
    word = (offset >> np.uint64(6)).astype(np.intp)
    bit = offset & _U63
    reach = k - np.abs(n - active_lengths)
    # Rows 1 - k .. 0 of the first band lie above the query (Δv = -1).
    above = np.array([(1 << min(max(k - 64 * index, 0), 64)) - 1
                      for index in range(words)], dtype=np.uint64)
    vn = np.repeat(above[:, None], live - head, axis=1)
    vp = ~vn

    charged = 0
    for column in range(longest):
        if deadline is not None and column and column % block == 0:
            # Pro-rata charge: by column j the rows have done j/longest
            # of their candidate-units of work.
            due = count * column // longest
            _charge(deadline, due - charged, count=count,
                    column=column, length=longest)
            charged = due

        codes = (columns[column].take(rows) if compacted
                 else columns[column, head:head + len(rows)])
        eq = band[column].take(codes, axis=1, mode="clip")
        # d0 = (((eq & vp) + vp) ^ vp) | eq | vn, with carry propagation
        # across the word axis when the band is wider than one word.
        addend = eq & vp
        d0 = addend + vp
        if words > 1:
            overflow = d0[:-1] < addend[:-1]
            carry = overflow[0]
            for index in range(1, words):
                d0[index] += carry
                if index + 1 < words:
                    carry = overflow[index] | (carry & (d0[index] == 0))
        d0 ^= vp
        d0 |= eq
        d0 |= vn
        hp = d0 | vp
        np.invert(hp, out=hp)
        hp |= vn
        hn = vp & d0

        # d0 bit k + d: the diagonal did not grow at this column.
        hits = (d0[0] if words == 1
                else np.take_along_axis(d0, word[None], axis=0)[0])
        hits = (hits >> bit) & _U1
        reach += hits.view(np.int64)

        # Slide the band down one row: shift d0 right, then close the
        # column; the new bottom row enters with Δv = +1.
        if words > 1:
            spill = d0[1:] << _U63
        d0 >>= _U1
        if words > 1:
            d0[:-1] |= spill
        vn = hp & d0
        d0 |= hp
        vp = np.invert(d0, out=d0)
        vp |= hn
        vp[-1] |= _TOP

        done = column + 1
        if done == active_lengths[-1]:
            # The rows of this length are the active tail: score them
            # and slice them off.
            stay = int(np.searchsorted(-active_lengths, -done))
            scores = done + k - reach[stay:]
            final[rows[stay:]] = np.minimum(scores, over)
            rows = rows[:stay]
            active_lengths = active_lengths[:stay]
            reach = reach[:stay]
            word = word[:stay]
            bit = bit[:stay]
            vp = vp[:, :stay]
            vn = vn[:, :stay]
            if not stay:
                break

        dead = reach < done
        casualties = int(np.count_nonzero(dead))
        if casualties and casualties * _COMPACT_SHARE >= len(rows):
            keep = ~dead
            rows = rows[keep]
            compacted = True
            if not len(rows):
                break
            active_lengths = active_lengths[keep]
            reach = reach[keep]
            word = word[keep]
            bit = bit[keep]
            vp = vp[:, keep]
            vn = vn[:, keep]

    if deadline is not None:
        _charge(deadline, count - charged, count=count,
                column=longest, length=longest)
    return final
