"""Numpy-vectorized Myers kernel: one query vs a whole length window.

The scalar bit-parallel kernel
(:func:`repro.distance.bitparallel.myers_bounded`) spends most of its
time in the Python interpreter — roughly a dozen bytecodes per text
column *per candidate*. This module runs the same Myers recurrence
across **every survivor of a query's length window at once** as
``numpy`` array operations, so the interpreter cost per column is paid
once per window instead of once per candidate (or once per bucket):

* survivors of every bucket in the window form one
  ``(longest length, rows)`` code matrix, rows ordered longest first;
  row ``r`` is valid for its first ``lengths[r]`` columns, and each
  text column is one contiguous row of that matrix;
* the ``Peq`` table is a ``(words, alphabet_size)`` ``uint64`` matrix;
  each text column gathers every active row's ``eq`` word(s) with one
  ``take`` along the alphabet axis;
* ``Pv``/``Mv`` live as ``(words, active)`` ``uint64`` arrays, updated
  per column with carry-propagating word arithmetic, so queries longer
  than 64 symbols work (multi-word Myers, exactly like the big-int
  scalar kernel);
* a row finishes at its own last column. Rows are sorted by length, so
  the finishing rows are always the tail of the active set and leave
  by slicing;
* the paper's early abort (``score - remaining > k`` can never
  recover) removes dead rows from the active set, lazily: they are
  compacted out only once at least a quarter of the active rows are
  dead, and the window finishes early when nobody survives. A dead row
  left in the set still finishes above ``k``, because
  ``score - remaining`` never decreases.

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
#: crossover sits near 128 rows on ~11-symbol names and between 32 and
#: 64 rows on ~100-symbol DNA reads, so at 128 neither engine loses
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
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


class VectorQuery:
    """One query compiled for vectorized scanning, reusable per window.

    Built once per ``(query, k)`` scan by :func:`prepare_query` — the
    vector analog of hoisting
    :func:`repro.distance.bitparallel.build_peq` out of the candidate
    loop.

    Attributes
    ----------
    peq:
        ``(words, alphabet_size)`` ``uint64`` bit table; column ``c``
        holds the positions where the query's symbol code equals ``c``.
    n:
        Query length in symbols (``>= 1``).
    words:
        ``ceil(n / 64)`` — the state width per candidate.
    """

    __slots__ = ("peq", "n", "words", "last_word", "last_bit")

    def __init__(self, peq: np.ndarray, n: int) -> None:
        self.peq = peq
        self.n = n
        self.words = peq.shape[0]
        self.last_word = (n - 1) >> 6
        self.last_bit = np.uint64((n - 1) & 63)


def prepare_query(query_codes, alphabet_size: int) -> VectorQuery:
    """Build the :class:`VectorQuery` for an encoded query.

    ``query_codes`` may contain ``-1`` for symbols outside the corpus
    alphabet (see :meth:`repro.scan.corpus.CompiledCorpus.encode_query`);
    such positions set no ``peq`` bit, so they can never match any
    candidate symbol — the raw-string semantics.
    """
    n = len(query_codes)
    if n == 0:
        raise ValueError("prepare_query needs a non-empty query")
    words = (n + 63) >> 6
    peq = np.zeros((words, max(alphabet_size, 1)), dtype=np.uint64)
    for position, code in enumerate(query_codes):
        if 0 <= code < alphabet_size:
            peq[position >> 6, code] |= np.uint64(1 << (position & 63))
    return VectorQuery(peq, n)


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
    for start in range(0, len(lengths), _WINDOW_ROWS):
        stop = start + _WINDOW_ROWS
        final[start:stop] = _score_rows(vq, columns[:, start:stop],
                                        lengths[start:stop], k,
                                        deadline, block)
    return final


def _score_rows(vq: VectorQuery, columns: np.ndarray, lengths: np.ndarray,
                k: int, deadline: Deadline | Budget | None,
                block: int) -> np.ndarray:
    """One row block of :func:`window_distances`."""
    count = len(lengths)
    n = vq.n
    over = k + 1
    final = np.full(count, over, dtype=np.int64)
    # Empty rows sit at the tail; their distance is the query length.
    live = count - int(np.count_nonzero(lengths == 0))
    if live < count and n <= k:
        final[live:] = n
    longest = int(lengths[0]) if live else 0

    peq = vq.peq
    words = vq.words
    last_word = vq.last_word
    last_bit = vq.last_bit
    ends = set(lengths[:live].tolist())

    rows = np.arange(live)       # original index of every active row
    compacted = False            # False: ``rows`` is still ``0..active-1``
    active_lengths = lengths[:live]
    # score - length per row: the abort test becomes one comparison
    # with a per-column scalar, and the final score is excess + length.
    excess = n - active_lengths
    pv = np.full((words, live), _FULL, dtype=np.uint64)
    mv = np.zeros((words, live), dtype=np.uint64)

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
                 else columns[column, :len(rows)])
        eq = peq.take(codes.astype(np.intp), axis=1, mode="clip")
        xv = eq | mv
        # (eq & pv) + pv with carry propagation across the word axis —
        # the multi-word form of the scalar kernel's big-int addition.
        addend = eq & pv
        total = addend + pv
        if words > 1:
            overflow = total[:-1] < addend[:-1]
            carry = overflow[0]
            for word in range(1, words):
                total[word] += carry
                if word + 1 < words:
                    carry = overflow[word] | (carry & (total[word] == 0))
        xh = total
        xh ^= pv
        xh |= eq
        ph = xh | pv
        np.invert(ph, out=ph)
        ph |= mv
        mh = pv & xh

        step = (ph[last_word] >> last_bit) & _U1
        step -= (mh[last_word] >> last_bit) & _U1
        excess += step.view(np.int64)

        # Shift ph/mh left one bit across the word boundary, then close
        # the column exactly like the scalar kernel.
        if words > 1:
            spill_ph = ph[:-1] >> _U63
            spill_mh = mh[:-1] >> _U63
        ph <<= _U1
        mh <<= _U1
        if words > 1:
            ph[1:] |= spill_ph
            mh[1:] |= spill_mh
        ph[0] |= _U1
        mv = ph & xv
        xv |= ph
        pv = np.invert(xv, out=xv)
        pv |= mh

        done = column + 1
        if done in ends:
            # The rows of this length are the active tail: score them
            # and slice them off.
            stay = int(np.searchsorted(-active_lengths, -done))
            scores = excess[stay:] + done
            final[rows[stay:]] = np.minimum(scores, over)
            rows = rows[:stay]
            active_lengths = active_lengths[:stay]
            excess = excess[:stay]
            pv = pv[:, :stay]
            mv = mv[:, :stay]
            if not stay:
                break

        dead = excess > k - done
        casualties = int(np.count_nonzero(dead))
        if casualties and casualties * _COMPACT_SHARE >= len(rows):
            keep = ~dead
            rows = rows[keep]
            compacted = True
            if not len(rows):
                break
            active_lengths = active_lengths[keep]
            excess = excess[keep]
            pv = pv[:, keep]
            mv = mv[:, keep]

    if deadline is not None:
        _charge(deadline, count - charged, count=count,
                column=longest, length=longest)
    return final
