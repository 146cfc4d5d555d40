"""Numpy-vectorized Myers kernel: one query vs a whole length bucket.

The scalar bit-parallel kernel
(:func:`repro.distance.bitparallel.myers_bounded`) spends most of its
time in the Python interpreter — roughly a dozen bytecodes per text
column *per candidate*. This module runs the same Myers recurrence
across **all candidates of a length bucket at once** as ``numpy`` array
operations, so the interpreter cost per column is paid once per bucket
instead of once per candidate:

* the ``Peq`` table is a ``(alphabet_size, words)`` ``uint64`` matrix;
  each text column gathers every active candidate's ``eq`` row with one
  fancy-indexing lookup on the bucket's code matrix;
* ``Pv``/``Mv`` live as ``(active, words)`` ``uint64`` arrays, updated
  per column with carry-propagating word arithmetic, so queries longer
  than 64 symbols work (multi-word Myers, exactly like the big-int
  scalar kernel);
* the paper's early abort (``score - remaining > k`` can never recover)
  is a shrinking *active set*: provably-dead candidates are compacted
  out, and the bucket finishes early when nobody survives.

Parity with the scalar kernel is exact — identical match sets and
identical distances — enforced by the hypothesis suite in
``tests/distance/test_vectorized.py``. Counter parity follows from an
invariant of the scalar loop: ``score - remaining`` is non-decreasing
and is checked after every column, and at the last column
``remaining == 0``, so *every* non-match trips the abort check and
``early_aborts == kernel_calls - matches`` always. The vectorized path
reports exactly that identity.

Deadlines are polled **between column blocks** (the kernel has no
per-candidate loop to count in): every :data:`DEFAULT_COLUMN_BLOCK`
columns the bucket's work is charged pro-rata against the deadline, so
a :class:`repro.core.deadline.Budget` sees the same total unit count
(one unit per candidate) a scalar scan of the bucket would charge.
"""

from __future__ import annotations

import numpy as np

from repro.core.deadline import Budget, Deadline
from repro.exceptions import DeadlineExceeded

#: Minimum candidates (post-prefilter survivors) of a bucket for
#: :func:`repro.scan.executor.scan_query` to pick the vectorized kernel.
#: The vectorized cost is nearly flat in candidate count (~a fixed set
#: of numpy ops per text column) while the scalar loop is linear with a
#: strong early-abort advantage, so the measured crossover on
#: length-100 DNA reads sits around 700-900 candidates (the e2e
#: ``dna_batch`` run times both kernels per pair:
#: ``distance.scalar_ns_per_pair``, ``distance.vectorized_ns_per_pair``);
#: 1024 picks vectorized only where it clearly wins.
DEFAULT_VECTOR_MIN_BUCKET = 1024

#: Text columns processed between deadline polls.
DEFAULT_COLUMN_BLOCK = 32

_U0 = np.uint64(0)
_U1 = np.uint64(1)
_U63 = np.uint64(63)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


class VectorQuery:
    """One query compiled for vectorized scanning, reusable per bucket.

    Built once per ``(query, k)`` scan by :func:`prepare_query` and then
    applied to every length bucket in the window — the vector analog of
    hoisting :func:`repro.distance.bitparallel.build_peq` out of the
    candidate loop.

    Attributes
    ----------
    peq:
        ``(alphabet_size, words)`` ``uint64`` bit table; row ``c`` holds
        the positions where the query's symbol code equals ``c``.
    n:
        Query length in symbols (``>= 1``).
    words:
        ``ceil(n / 64)`` — the state width per candidate.
    """

    __slots__ = ("peq", "n", "words", "mask_top", "last_word", "last_bit")

    def __init__(self, peq: np.ndarray, n: int) -> None:
        self.peq = peq
        self.n = n
        self.words = peq.shape[1]
        top_bits = n - 64 * (self.words - 1)
        self.mask_top = np.uint64((1 << top_bits) - 1)
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
    peq = np.zeros((max(alphabet_size, 1), words), dtype=np.uint64)
    for position, code in enumerate(query_codes):
        if 0 <= code < alphabet_size:
            peq[code, position >> 6] |= np.uint64(1 << (position & 63))
    return VectorQuery(peq, n)


def _charge(deadline: Deadline | Budget, units: int, *, count: int,
            column: int, length: int) -> None:
    """Poll the deadline mid-bucket, raising on expiry.

    The raised exception carries no partial matches — no candidate of
    the in-flight bucket has been fully verified — and the caller
    (:func:`repro.scan.executor.scan_query`) re-raises with the matches
    proven by *previous* buckets attached.
    """
    if deadline.spend(units):
        raise DeadlineExceeded(
            f"vectorized bucket scan exceeded its deadline at column "
            f"{column} of {length} ({count} candidates in flight)",
            scope="candidates", completed=0, total=count,
        )


def bucket_distances(vq: VectorQuery, codes: np.ndarray, k: int, *,
                     deadline: Deadline | Budget | None = None,
                     block: int = DEFAULT_COLUMN_BLOCK) -> np.ndarray:
    """Bounded distances from one query to every row of a code matrix.

    Parameters
    ----------
    vq:
        The compiled query (see :func:`prepare_query`).
    codes:
        ``(count, length)`` unsigned-integer symbol-code matrix — one
        equal-length candidate per row, e.g.
        :attr:`repro.distance.packed.PackedBucket.codes`.
    k:
        The distance threshold.
    deadline:
        Optional deadline/budget, polled every ``block`` columns. The
        whole bucket charges ``count`` work units, pro-rated across the
        blocks actually executed, matching the scalar kernel's
        one-unit-per-candidate accounting.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of shape ``(count,)``: the exact edit distance
        where it is ``<= k``, and ``k + 1`` for every candidate the
        threshold excluded (whether early-aborted or completed).
    """
    count, length = codes.shape
    words = vq.words
    n = vq.n
    over = k + 1
    final = np.full(count, over, dtype=np.int64)
    if count == 0:
        return final
    if length == 0:
        # Distance to an empty candidate is the query length.
        if n <= k:
            final[:] = n
        return final

    peq = vq.peq
    mask_top = vq.mask_top
    last_word = vq.last_word
    last_bit = vq.last_bit

    active = np.arange(count)
    score = np.full(count, n, dtype=np.int64)
    pv = np.full((count, words), _FULL, dtype=np.uint64)
    pv[:, -1] = mask_top
    mv = np.zeros((count, words), dtype=np.uint64)
    xh = np.empty((count, words), dtype=np.uint64)

    charged = 0
    for column in range(length):
        if deadline is not None and column and column % block == 0:
            # Pro-rata charge: by column j the bucket has done j/length
            # of its candidate-units of work.
            due = count * column // length
            _charge(deadline, due - charged, count=count,
                    column=column, length=length)
            charged = due

        eq = peq[codes[active, column]]
        xv = eq | mv
        # (eq & pv) + pv with carry propagation across the word axis —
        # the multi-word form of the scalar kernel's big-int addition.
        carry = np.zeros(len(active), dtype=np.uint64)
        for w in range(words):
            addend = eq[:, w] & pv[:, w]
            total = addend + pv[:, w]
            overflow = total < addend
            total += carry
            overflow |= total < carry
            carry = overflow.astype(np.uint64)
            xh[:, w] = (total ^ pv[:, w]) | eq[:, w]
        ph = mv | ~(xh | pv)
        ph[:, -1] &= mask_top
        mh = pv & xh

        inc = (ph[:, last_word] >> last_bit) & _U1
        dec = (mh[:, last_word] >> last_bit) & _U1
        score += inc.astype(np.int64)
        score -= dec.astype(np.int64)

        remaining = length - column - 1
        dead = score - remaining > k
        if dead.any():
            keep = ~dead
            if not keep.any():
                if deadline is not None:
                    _charge(deadline, count - charged, count=count,
                            column=column, length=length)
                return final
            active = active[keep]
            score = score[keep]
            pv = pv[keep]
            mv = mv[keep]
            xv = xv[keep]
            ph = ph[keep]
            mh = mh[keep]
            xh = xh[: len(active)]

        # Shift ph/mh left one bit across the word boundary, then close
        # the column exactly like the scalar kernel.
        spill_ph = ph >> _U63
        spill_mh = mh >> _U63
        ph <<= _U1
        mh <<= _U1
        if words > 1:
            ph[:, 1:] |= spill_ph[:, :-1]
            mh[:, 1:] |= spill_mh[:, :-1]
        ph[:, 0] |= _U1
        ph[:, -1] &= mask_top
        mh[:, -1] &= mask_top
        pv = mh | ~(xv | ph)
        pv[:, -1] &= mask_top
        mv = ph & xv

    if deadline is not None:
        _charge(deadline, count - charged, count=count,
                column=length, length=length)
    final[active] = score
    return final
