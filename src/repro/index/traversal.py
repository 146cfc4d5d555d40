"""Similarity search over (compressed) prefix trees.

This is the index-based solution of the paper's section 4: descend the
trie, extending one dynamic-programming row per consumed edge symbol,
and prune whole branches as soon as they provably cannot contain a
match. Works identically on :class:`repro.index.trie.PrefixTrie` and
:class:`repro.index.compressed.CompressedTrie` — compression only
changes how many node boundaries the descent crosses.

The DP rows are **banded**: at depth ``i`` only the cells ``j`` with
``|i - j| <= k`` can hold values within the threshold, so each consumed
symbol costs O(k) cell updates rather than O(len(query)). Row buffers
are preallocated per depth and reused across the whole descent (and
across sibling branches), so the traversal allocates nothing per node.

Pruning rules, in the order they are applied:

1. **Frequency vectors** (PETER, section 2.3): the subtree's per-symbol
   count bounds give a lower bound on the distance to *any* string
   below; if it exceeds ``k`` the branch dies without any DP at all.
2. **Length tolerance** (paper conditions 9/10): with subtree string
   lengths in ``[lo, hi]`` and ``i`` symbols consumed, the cheapest
   completion of DP cell ``j`` still needs
   ``max(0, (n - j) - (hi - i), (lo - i) - (n - j))`` further edits to
   reconcile the remaining lengths. If every band cell plus its
   completion cost exceeds ``k``, the branch dies. This subsumes the
   plain "row minimum > k" cutoff (completion costs are ≥ 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.core.deadline import Budget, Deadline
from repro.distance.banded import check_threshold
from repro.exceptions import DeadlineExceeded
from repro.filters.frequency import frequency_vector
from repro.index.node import TrieNode


class _TrieLike(Protocol):
    """What the traversal needs from an index (both tries satisfy it)."""

    @property
    def root(self) -> TrieNode: ...

    @property
    def max_depth(self) -> int: ...

    @property
    def tracked_symbols(self) -> str | None: ...

    @property
    def case_insensitive_frequencies(self) -> bool: ...


@dataclass(frozen=True)
class TrieMatch:
    """One matched dataset string.

    Attributes
    ----------
    string:
        The matched string.
    distance:
        Its exact edit distance to the query (``<= k``).
    multiplicity:
        How many times the string occurs in the dataset.
    """

    string: str
    distance: int
    multiplicity: int = 1


@dataclass
class TraversalStats:
    """Work counters for one similarity descent."""

    nodes_visited: int = 0
    symbols_processed: int = 0
    branches_pruned_by_length: int = 0
    branches_pruned_by_frequency: int = 0
    matches: int = 0


#: The cumulative ``trie.*`` counters every trie searcher reports: one
#: per :class:`TraversalStats` field, plus ``trie.searches`` (see
#: docs/OBSERVABILITY.md).
INDEX_COUNTERS = (
    "trie.searches",
    "trie.nodes_visited",
    "trie.symbols_processed",
    "trie.branches_pruned_by_length",
    "trie.branches_pruned_by_frequency",
    "trie.matches",
)


def add_trie_counters(counters: dict, stats: TraversalStats) -> None:
    """Add one traversal's work to an open ``trie.*`` counter mapping."""
    get = counters.get
    counters["trie.searches"] = get("trie.searches", 0) + 1
    counters["trie.nodes_visited"] = get("trie.nodes_visited", 0) \
        + stats.nodes_visited
    counters["trie.symbols_processed"] = get("trie.symbols_processed", 0) \
        + stats.symbols_processed
    counters["trie.branches_pruned_by_length"] = \
        get("trie.branches_pruned_by_length", 0) \
        + stats.branches_pruned_by_length
    counters["trie.branches_pruned_by_frequency"] = \
        get("trie.branches_pruned_by_frequency", 0) \
        + stats.branches_pruned_by_frequency
    counters["trie.matches"] = get("trie.matches", 0) + stats.matches


def trie_similarity_search(trie: _TrieLike, query: str, k: int, *,
                           use_frequency_pruning: bool = True,
                           stats: TraversalStats | None = None,
                           deadline: Deadline | Budget | None = None,
                           ) -> list[TrieMatch]:
    """All dataset strings within edit distance ``k`` of ``query``.

    Parameters
    ----------
    trie:
        A :class:`PrefixTrie` or :class:`CompressedTrie`.
    query:
        The query string.
    k:
        Edit-distance threshold (``>= 0``).
    use_frequency_pruning:
        Apply PETER-style pruning when the trie carries frequency
        annotations; disabling it isolates the effect in ablations.
    stats:
        Optional counter object to fill with traversal work.
    deadline:
        Optional :class:`repro.core.deadline.Deadline` /
        :class:`repro.core.deadline.Budget`, polled every
        ``check_interval`` visited nodes; on expiry the descent raises
        :class:`DeadlineExceeded` carrying the matches proven so far
        (a subset of the exact answer).

    Returns
    -------
    Matches in lexicographic order of the matched string.

    Examples
    --------
    >>> from repro.index import PrefixTrie
    >>> trie = PrefixTrie(["Berlin", "Bern", "Ulm"])
    >>> [m.string for m in trie_similarity_search(trie, "Berlino", 2)]
    ['Berlin']
    """
    check_threshold(k)
    if stats is None:
        stats = TraversalStats()

    query_frequency: tuple[int, ...] | None = None
    tracked = trie.tracked_symbols
    if use_frequency_pruning and tracked is not None:
        query_frequency = frequency_vector(
            query, tracked, trie.case_insensitive_frequencies
        )

    search = _Descent(query, k, trie.max_depth, query_frequency, stats,
                      deadline=deadline)
    search.visit(trie.root, "")
    search.matches.sort(key=lambda match: match.string)
    return search.matches


class _Descent:
    """One banded DFS over the trie for a single query.

    Row buffers live in ``self._rows``, one per depth, reused across
    sibling branches (a branch's rows are dead by the time its sibling
    is entered — standard DFS buffer sharing).
    """

    def __init__(self, query: str, k: int, max_depth: int,
                 query_frequency: tuple[int, ...] | None,
                 stats: TraversalStats, *,
                 deadline: Deadline | Budget | None = None) -> None:
        self._query = query
        self._k = k
        self._n = len(query)
        self._infinity = k + 1
        self._frequency = query_frequency
        self._stats = stats
        self._deadline = deadline
        self._countdown = deadline.check_interval if deadline else 0
        self.matches: list[TrieMatch] = []
        # Depth-indexed row buffers; row 0 is the classic first DP row,
        # banded: cells beyond k are unreachable within the threshold.
        self._rows: list[list[int] | None] = [None] * (max_depth + 2)
        row0 = [
            j if j <= k else self._infinity for j in range(self._n + 1)
        ]
        self._rows[0] = row0

    def _row(self, depth: int) -> list[int]:
        row = self._rows[depth]
        if row is None:
            row = [0] * (self._n + 1)
            self._rows[depth] = row
        return row

    def visit(self, node: TrieNode, prefix: str, depth: int = 0) -> None:
        """Process ``node``: prune, consume its label, collect, recurse."""
        stats = self._stats
        stats.nodes_visited += 1
        if self._countdown:
            self._countdown -= 1
            if not self._countdown:
                deadline = self._deadline
                self._countdown = deadline.check_interval
                if deadline.spend(deadline.check_interval):
                    self.matches.sort(key=lambda match: match.string)
                    raise DeadlineExceeded(
                        f"trie traversal for {self._query!r} "
                        f"(k={self._k}) exceeded its deadline after "
                        f"{stats.nodes_visited} nodes",
                        partial=tuple(self.matches), scope="nodes",
                        completed=stats.nodes_visited,
                    )
        k = self._k
        n = self._n

        if self._frequency is not None and node.freq_min is not None:
            assert node.freq_max is not None
            if _frequency_bound(self._frequency, node.freq_min,
                                node.freq_max) > k:
                stats.branches_pruned_by_frequency += 1
                return

        query = self._query
        infinity = self._infinity
        sub_lo = node.subtree_min_length
        sub_hi = node.subtree_max_length

        # Node-level length box (the cheap face of conditions (9)/(10)):
        # every terminal below has length in [sub_lo, sub_hi], so at
        # least this many edits are unavoidable regardless of the DP.
        length_bound = sub_lo - n
        if n - sub_hi > length_bound:
            length_bound = n - sub_hi
        if length_bound > k:
            stats.branches_pruned_by_length += 1
            return

        symbols_processed = 0
        last_symbol_index = len(node.label) - 1
        row_min = 0
        # Consume the edge label symbol by symbol, extending banded rows.
        for index, symbol in enumerate(node.label):
            parent = self._row(depth)
            depth += 1
            symbols_processed += 1
            lo = depth - k
            hi = depth + k
            if lo > n:
                # The band left the query entirely: every completion
                # needs more than k deletions.
                stats.symbols_processed += symbols_processed
                stats.branches_pruned_by_length += 1
                return
            if lo < 0:
                lo = 0
            if hi > n:
                hi = n
            row = self._row(depth)

            row_min = infinity
            j = lo
            if j == 0:
                # Column 0: depth deletions (only reachable while
                # depth <= k, which lo == 0 guarantees).
                row[0] = depth
                row_min = depth
                j = 1
            parent_hi = depth - 1 + k
            for j in range(j, hi + 1):
                diagonal = parent[j - 1]
                if symbol == query[j - 1]:
                    cost = diagonal
                else:
                    above = parent[j] if j <= parent_hi else infinity
                    left = row[j - 1] if j - 1 >= lo else infinity
                    cost = diagonal
                    if above < cost:
                        cost = above
                    if left < cost:
                        cost = left
                    cost += 1
                    if cost > infinity:
                        cost = infinity
                row[j] = cost
                if cost < row_min:
                    row_min = cost
            if row_min > k:
                # Ukkonen cutoff: the whole band exceeded the threshold.
                stats.symbols_processed += symbols_processed
                stats.branches_pruned_by_length += 1
                return
            if index == last_symbol_index and node.children:
                # Full conditions (9)/(10) once per node, right before
                # the branch fans out into children: the cheapest
                # completion of any band cell must still reconcile the
                # remaining query length with the subtree's bounds.
                remaining_hi = sub_hi - depth
                remaining_lo = sub_lo - depth
                best_completion = infinity
                for j in range(lo, hi + 1):
                    query_left = n - j
                    shortfall = query_left - remaining_hi
                    if remaining_lo - query_left > shortfall:
                        shortfall = remaining_lo - query_left
                    if shortfall < 0:
                        shortfall = 0
                    total = row[j] + shortfall
                    if total < best_completion:
                        best_completion = total
                if best_completion > k and not node.is_terminal:
                    stats.symbols_processed += symbols_processed
                    stats.branches_pruned_by_length += 1
                    return
        stats.symbols_processed += symbols_processed

        if node.is_terminal and depth - k <= n <= depth + k:
            distance = self._row(depth)[n]
            if distance <= k:
                stats.matches += 1
                self.matches.append(
                    TrieMatch(prefix + node.label, distance,
                              node.terminal_count)
                )

        child_prefix = prefix + node.label
        for child in node.children.values():
            self.visit(child, child_prefix, depth)


def _frequency_bound(query_frequency: tuple[int, ...],
                     freq_min: list[int], freq_max: list[int]) -> int:
    """PETER-style lower bound on the distance to any subtree string.

    Per tracked symbol, the query's count must move into the subtree's
    ``[min, max]`` box; each edit operation moves one tracked count by
    at most one in each direction, so total surplus and total deficit
    are both lower bounds (see :mod:`repro.filters.frequency`).
    """
    surplus = 0
    deficit = 0
    for fq, lo, hi in zip(query_frequency, freq_min, freq_max):
        if fq > hi:
            surplus += fq - hi
        elif fq < lo:
            deficit += lo - fq
    return max(surplus, deficit)
