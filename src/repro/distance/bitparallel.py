"""Myers bit-parallel edit distance ("simple data types", section 3.4).

The paper's fourth sequential stage replaces complex data structures by
flat primitive ones and re-implements the inner comparisons by hand. The
strongest expression of that idea for edit distance is Myers' 1999
bit-vector algorithm: the DP column deltas are packed into machine words
and one text symbol is processed with a constant number of word-wide
logical operations.

Python integers are arbitrary-precision, so a single "word" covers
patterns of any length — the classic multi-word block extension is not
needed; an ``m``-symbol pattern simply uses an ``m``-bit integer.

Functions here accept strings or tuples of symbol codes. For repeated
queries, precompute the pattern's symbol bitmasks with
:func:`build_peq`.

The recurrence itself is written once, in :func:`myers_bounded`;
everything else in this module, the compiled scan and the joins call
it. (The one other copy in the library is the hand-inlined stage-4
loop of :class:`repro.core.sequential.SequentialScanSearcher` — see
DESIGN.md, "Two copies of the recurrence".)
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from repro.distance.banded import check_threshold, length_filter_passes


def build_peq(pattern: Sequence[Hashable]) -> dict[Hashable, int]:
    """Precompute the symbol → bitmask table for ``pattern``.

    Bit ``i`` of ``peq[c]`` is set iff ``pattern[i] == c``.
    """
    peq: dict[Hashable, int] = {}
    for i, symbol in enumerate(pattern):
        peq[symbol] = peq.get(symbol, 0) | (1 << i)
    return peq


def myers_bounded(peq_get, n: int, mask: int, last: int, row,
                  length: int, k: int) -> int | None:
    """The bounded Myers recurrence: the distance, or ``None`` above ``k``.

    The one general-purpose scalar form of the kernel; every caller
    outside :class:`repro.core.sequential.SequentialScanSearcher`'s
    hand-inlined stage-4 loop runs this function. The pattern arrives
    precompiled, so a scan pays for it once per query, not per
    candidate:

    ``peq_get``
        ``build_peq(pattern).get`` (symbols absent from the pattern —
        including the ``-1`` code of an out-of-alphabet query symbol —
        look up as ``0`` and match nothing).
    ``n``, ``mask``, ``last``
        ``len(pattern)`` (``>= 1``), ``(1 << n) - 1`` and
        ``1 << (n - 1)``.
    ``row``, ``length``
        The text — a ``str``, a tuple of symbol codes or a ``numpy``
        code row — and its length.

    The running score changes by at most one per remaining text
    symbol, so the loop aborts as soon as ``score - remaining > k``;
    at the last column ``remaining`` is 0, hence *every* text further
    than ``k`` away leaves through the abort.
    """
    pv = mask          # vertical positive deltas: initially all +1
    mv = 0             # vertical negative deltas
    score = n
    remaining = length
    for symbol in row:
        eq = peq_get(symbol, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        remaining -= 1
        if score - remaining > k:
            return None
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score if score <= k else None


def myers_distance(pattern: Sequence[Hashable], text: Sequence[Hashable],
                   peq: Mapping[Hashable, int] | None = None) -> int:
    """Exact edit distance via Myers' bit-parallel algorithm.

    Equivalent to :func:`repro.distance.edit_distance` but processes one
    ``text`` symbol with O(1) big-integer operations instead of an
    O(len(pattern)) inner loop.

    Examples
    --------
    >>> myers_distance("AGGCGT", "AGAGT")
    2
    """
    m = len(pattern)
    n = len(text)
    if m == 0 or n == 0:
        return max(m, n)
    if peq is None:
        peq = build_peq(pattern)
    # No distance exceeds the longer operand, so this bound never aborts.
    return myers_bounded(peq.get, m, (1 << m) - 1, 1 << (m - 1),
                         text, n, max(m, n))


def myers_within(pattern: Sequence[Hashable], text: Sequence[Hashable],
                 k: int,
                 peq: Mapping[Hashable, int] | None = None) -> bool:
    """``True`` iff ``edit_distance(pattern, text) <= k``.

    Applies the length filter (equation 5 of the paper) before running
    the bounded kernel, which aborts as soon as the running score can
    no longer come back under ``k``.
    """
    check_threshold(k)
    m = len(pattern)
    n = len(text)
    if not length_filter_passes(m, n, k):
        return False
    if m == 0 or n == 0:
        return True  # the length filter already bounded the distance
    if peq is None:
        peq = build_peq(pattern)
    return myers_bounded(peq.get, m, (1 << m) - 1, 1 << (m - 1),
                         text, n, k) is not None


class MyersMatcher:
    """A reusable matcher for one query against many data strings.

    Precomputes the query's ``peq`` table once, which is the dominant
    per-call setup cost when the same query is probed against hundreds of
    thousands of dataset strings during a sequential scan.

    >>> matcher = MyersMatcher("Berlin")
    >>> matcher.within("Bern", 2)
    True
    >>> matcher.distance("Bern")
    2
    """

    def __init__(self, pattern: Sequence[Hashable]) -> None:
        self._pattern = pattern
        self._peq = build_peq(pattern)

    @property
    def pattern(self) -> Sequence[Hashable]:
        """The query string this matcher was built for."""
        return self._pattern

    def distance(self, text: Sequence[Hashable]) -> int:
        """Exact edit distance between the pattern and ``text``."""
        return myers_distance(self._pattern, text, self._peq)

    def within(self, text: Sequence[Hashable], k: int) -> bool:
        """Threshold test between the pattern and ``text``."""
        return myers_within(self._pattern, text, k, self._peq)
