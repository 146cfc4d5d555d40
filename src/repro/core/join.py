"""String similarity join — the other half of the competition.

The datasets the paper evaluates on come from the EDBT/ICDT 2013
"String Similarity **Search/Join** Competition"; the join problem is
the search problem's batch sibling: given two string sets ``R`` and
``S`` and a threshold ``k``, return every pair ``(r, s)`` with
``ed(r, s) <= k``. A self-join (``R = S``) deduplicates a dataset.

Both of the paper's solution families extend naturally:

* **scan join** — nested loop over length-sorted inputs, restricted to
  the feasible length window (equation 5 turned into a merge band),
  with the bit-parallel kernel per candidate pair;
* **index join** — build the annotated trie over ``S`` once, then run
  one similarity descent per ``r`` (amortizing the index over all
  probes is exactly where indexes pay off, per the paper's section 4).

Self-joins exploit symmetry: only pairs ``(i, j)`` with ``i < j`` are
emitted, halving the work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.indexed import IndexedSearcher
from repro.distance.banded import check_threshold
from repro.distance.bitparallel import build_peq, myers_bounded
from repro.exceptions import ReproError


@dataclass(frozen=True, order=True)
class JoinPair:
    """One joined pair: indexes into the inputs plus the distance.

    ``left_index``/``right_index`` refer to positions in the original
    input sequences, so duplicates join as distinct pairs (a database
    join's semantics).
    """

    left_index: int
    right_index: int
    distance: int


@dataclass(frozen=True)
class JoinResult:
    """The pairs of one join plus its workload statistics."""

    pairs: tuple[JoinPair, ...]
    candidates_examined: int
    seconds: float

    def __len__(self) -> int:
        return len(self.pairs)

    def as_string_pairs(self, left: Sequence[str],
                        right: Sequence[str]) -> list[tuple[str, str, int]]:
        """Materialize ``(left_string, right_string, distance)`` rows."""
        return [
            (left[pair.left_index], right[pair.right_index], pair.distance)
            for pair in self.pairs
        ]


def _validate(strings: Iterable[str], side: str) -> list[str]:
    validated = []
    for index, string in enumerate(strings):
        if not string:
            raise ReproError(
                f"{side} join input contains an empty string at "
                f"index {index}"
            )
        validated.append(string)
    return validated


def _length_sorted(strings: Sequence[str]) -> list[int]:
    """Input indexes sorted by string length (stable)."""
    return sorted(range(len(strings)), key=lambda i: len(strings[i]))


def scan_join(left: Sequence[str], right: Sequence[str] | None,
              k: int) -> JoinResult:
    """Similarity join by length-banded nested-loop scan.

    ``right=None`` performs a self-join on ``left`` (pairs with
    ``left_index < right_index`` only; a string never joins itself,
    but duplicate strings do join each other).

    Examples
    --------
    >>> result = scan_join(["Bern", "Berne", "Ulm"], None, 1)
    >>> [(p.left_index, p.right_index) for p in result.pairs]
    [(0, 1)]
    """
    check_threshold(k)
    started = time.perf_counter()
    left_strings = _validate(left, "left")
    self_join = right is None
    right_strings = left_strings if self_join else _validate(right, "right")

    right_order = _length_sorted(right_strings)
    right_lengths = [len(right_strings[i]) for i in right_order]

    pairs: list[JoinPair] = []
    examined = 0
    from bisect import bisect_left, bisect_right

    for left_index, probe in enumerate(left_strings):
        n = len(probe)
        if n == 0:
            continue
        peq_get = build_peq(probe).get
        mask = (1 << n) - 1
        last = 1 << (n - 1)
        lo = bisect_left(right_lengths, n - k)
        hi = bisect_right(right_lengths, n + k)
        for position in range(lo, hi):
            right_index = right_order[position]
            if self_join and right_index <= left_index:
                continue
            examined += 1
            candidate = right_strings[right_index]
            distance = myers_bounded(peq_get, n, mask, last, candidate,
                                     len(candidate), k)
            if distance is not None:
                pairs.append(JoinPair(left_index, right_index, distance))

    pairs.sort()
    return JoinResult(tuple(pairs), examined,
                      time.perf_counter() - started)


def index_join(left: Sequence[str], right: Sequence[str] | None,
               k: int, *, index: str = "compressed",
               tracked_symbols: str | None = None) -> JoinResult:
    """Similarity join through a (compressed) trie over the right side.

    The index is built once and probed with every left string; with
    ``tracked_symbols`` the trie additionally prunes by frequency
    vectors. Results are identical to :func:`scan_join` (the test suite
    enforces it); only the work profile differs.
    """
    check_threshold(k)
    started = time.perf_counter()
    left_strings = _validate(left, "left")
    self_join = right is None
    right_strings = left_strings if self_join else _validate(right, "right")

    searcher = IndexedSearcher(
        right_strings, index=index,
        frequency_pruning=tracked_symbols is not None,
        tracked_symbols=tracked_symbols,
    )
    # The searcher reports distinct strings; map back to all positions.
    positions: dict[str, list[int]] = {}
    for position, string in enumerate(right_strings):
        positions.setdefault(string, []).append(position)

    pairs: list[JoinPair] = []
    examined = 0
    for left_index, probe in enumerate(left_strings):
        matches = searcher.search(probe, k)
        examined += len(matches)
        for match in matches:
            for right_index in positions[match.string]:
                if self_join and right_index <= left_index:
                    continue
                pairs.append(
                    JoinPair(left_index, right_index, match.distance)
                )

    pairs.sort()
    return JoinResult(tuple(pairs), examined,
                      time.perf_counter() - started)


def prefix_join(left: Sequence[str], right: Sequence[str] | None,
                k: int, *, q: int = 2) -> JoinResult:
    """Similarity join with Ed-Join-style prefix filtering.

    Builds an inverted q-gram index over the right side and probes it
    with only each left string's ``k*q + 1`` rarest positional grams
    (see :mod:`repro.filters.prefix`). Candidates surviving the length
    window are verified with the bounded Myers kernel. Results are
    identical to :func:`scan_join`; only the candidate-generation work
    differs — dramatically so on large alphabets where rare grams are
    highly selective.
    """
    check_threshold(k)
    started = time.perf_counter()
    left_strings = _validate(left, "left")
    self_join = right is None
    right_strings = left_strings if self_join else _validate(right, "right")

    from repro.filters.prefix import gram_frequencies, prefix_grams
    from repro.filters.qgram import qgrams

    frequencies = gram_frequencies(right_strings, q)
    postings: dict[str, list[int]] = {}
    short_ids: list[int] = []
    for right_index, string in enumerate(right_strings):
        grams = set(qgrams(string, q))
        if not grams:
            short_ids.append(right_index)
        for gram in grams:
            postings.setdefault(gram, []).append(right_index)

    pairs: list[JoinPair] = []
    examined = 0
    for left_index, probe in enumerate(left_strings):
        n = len(probe)
        if n == 0:
            continue
        peq_get = build_peq(probe).get
        mask = (1 << n) - 1
        last = 1 << (n - 1)
        positional = qgrams(probe, q)
        if len(positional) <= k * q + 1:
            # The bound has no power: every length-feasible right
            # string is a candidate.
            candidates = set(range(len(right_strings)))
        else:
            prefix = prefix_grams(probe, k, q, frequencies)
            candidates = set(short_ids)
            for gram in prefix:
                candidates.update(postings.get(gram, ()))
        for right_index in candidates:
            if self_join and right_index <= left_index:
                continue
            candidate = right_strings[right_index]
            if abs(len(candidate) - n) > k:
                continue
            examined += 1
            distance = myers_bounded(peq_get, n, mask, last, candidate,
                                     len(candidate), k)
            if distance is not None:
                pairs.append(JoinPair(left_index, right_index, distance))

    pairs.sort()
    return JoinResult(tuple(pairs), examined,
                      time.perf_counter() - started)


def similarity_join(left: Sequence[str], right: Sequence[str] | None,
                    k: int, *, method: str = "auto") -> JoinResult:
    """Front end choosing the join algorithm by the paper's rule.

    ``method`` is ``"scan"``, ``"index"``, ``"prefix"`` or ``"auto"``
    (the cost-model planner of :mod:`repro.core.planner` scores the
    scan against the trie for the probe side's shape at this ``k``,
    mirroring :class:`repro.core.engine.SearchEngine`).
    """
    if method not in ("auto", "scan", "index", "prefix"):
        raise ReproError(
            f"unknown join method {method!r}; expected 'auto', 'scan', "
            "'index' or 'prefix'"
        )
    if method == "auto":
        from repro.core.planner import Planner, PlannerPolicy

        probe_set = list(left if right is None else right)
        queries = list(left)
        planner = Planner(probe_set)
        qplan = planner.plan_queries(
            queries or [""], k,
            policy=PlannerPolicy(allow=("sequential", "indexed")),
        )
        method = "scan" if qplan.strategy == "sequential" else "index"
    if method == "scan":
        return scan_join(left, right, k)
    if method == "prefix":
        return prefix_join(left, right, k)
    return index_join(left, right, k)


def deduplicate(strings: Sequence[str], k: int) -> list[list[int]]:
    """Cluster near-duplicate strings via a self-join.

    Returns groups of input indexes whose members are transitively
    within edit distance ``k`` of another member (single-linkage
    clusters, each sorted; singletons omitted).

    >>> deduplicate(["Bern", "Berne", "Ulm", "Hamburg"], 1)
    [[0, 1]]
    """
    result = similarity_join(strings, None, k)
    parent = list(range(len(strings)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pair in result.pairs:
        root_a = find(pair.left_index)
        root_b = find(pair.right_index)
        if root_a != root_b:
            parent[root_b] = root_a

    groups: dict[int, list[int]] = {}
    for index in range(len(strings)):
        groups.setdefault(find(index), []).append(index)
    return sorted(
        sorted(group) for group in groups.values() if len(group) > 1
    )
