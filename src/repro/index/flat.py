"""The compiled trie: the paper's index as flat arrays.

PR 1 gave the *scan* side a compiled execution path
(:mod:`repro.scan`); this module is the index-side twin. A
:class:`FlatTrie` holds the annotated prefix tree of section 4 as
parallel int64 numpy arrays, so a similarity descent touches contiguous
integer arrays instead of chasing ``TrieNode`` objects through attribute
lookups and dict hops — the cache-conscious layout the string-index
literature recommends (INSTRUCT-style packed tries, CSR adjacency),
applied where pure Python actually bleeds: per-node interpreter
overhead.

Construction is array-native too. Sorted distinct strings and the
common-prefix length of each with its predecessor determine every
radix node (string ``i`` adds ``len - lcp[i]`` symbols of new path,
split where later strings branch off it), so one backward stack pass
emits the arrays directly in O(total symbols) — no object trie is built
on the way, and memory peaks at a small multiple of the result. See
docs/INDEX.md.

Layout (int64 arrays, the same ones a :mod:`repro.speed` segment
maps from disk, so both kinds of trie run one descent; they pickle
cheaply for :mod:`repro.parallel` process runners):

* **CSR children** — ``child_offsets[v]:child_offsets[v + 1]`` slices
  ``child_ids``; children are sorted by the first symbol of their
  edge label, so exact lookups binary-search and traversal order is
  deterministic.
* **Encoded edge labels** — ``label_offsets[v]:label_offsets[v + 1]``
  slices ``label_codes``, the edge label of ``v`` encoded through the
  corpus :class:`repro.data.alphabet.Alphabet` (one code per symbol; a
  radix-compressed edge is simply a longer run).
* **Subtree annotations** — ``subtree_min_length`` /
  ``subtree_max_length`` feed the paper's conditions (9)/(10);
  optional ``freq_min`` / ``freq_max`` (row-major, ``tracked`` wide)
  feed PETER-style pruning.
* **Terminal payloads** — ``terminal_count[v]`` multiplicities and
  ``terminal_sid[v]`` ids into the ``strings`` table (``-1`` for inner
  nodes), so collecting a match is two array reads, never a string
  concatenation.

:func:`flat_similarity_search` runs the same DP descent as
:func:`repro.index.traversal.trie_similarity_search` — same pruning
rules, same :class:`~repro.index.traversal.TraversalStats` counters —
but breadth-first over the CSR arrays, one vectorized step per depth
for the whole frontier; :func:`flat_similarity_search_many` runs one
such descent for a whole batch of queries. Batch execution lives in
:mod:`repro.index.batch`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain
from typing import Iterable, Iterator

import numpy as np

from repro.core.deadline import Budget, Deadline
from repro.data.alphabet import Alphabet
from repro.data.stats import adjacent_lcp
from repro.distance.banded import check_threshold
from repro.exceptions import DeadlineExceeded, IndexConstructionError
from repro.filters.frequency import frequency_vector
from repro.index.traversal import TraversalStats, TrieMatch

#: Length bounds of a subtree no string has been folded into yet (the
#: root of an empty trie keeps them; an object ``TrieNode`` starts at
#: ``2**63``, one past what an int64 array holds).
_NO_MIN = np.iinfo(np.int64).max
_NO_MAX = -1


def _array(values: Iterable[int], count: int) -> np.ndarray:
    return np.fromiter(values, dtype=np.int64, count=count)


class FlatTrie:
    """An annotated prefix tree compiled into parallel flat arrays.

    Parameters
    ----------
    strings:
        Dataset to index (duplicates accumulate multiplicities, as in
        the object tries).
    compress:
        Build the radix-compressed tree of section 4.2 (default) or
        the one-symbol-per-edge tree of section 4.1. Compression only
        changes how many node boundaries a descent crosses — results
        are identical.
    tracked_symbols / case_insensitive_frequencies:
        As in :class:`repro.index.trie.PrefixTrie`: enables PETER-style
        per-node frequency bounds over these symbols.
    alphabet:
        Optional explicit :class:`Alphabet` for label encoding; when
        omitted, a minimal alphabet is inferred from the dataset.

    Examples
    --------
    >>> flat = FlatTrie(["Berlin", "Bern", "Ulm"])
    >>> flat.string_count
    3
    >>> "Bern" in flat
    True
    >>> sorted(flat)
    ['Berlin', 'Bern', 'Ulm']
    >>> [m.string for m in flat_similarity_search(flat, "Berlino", 2)]
    ['Berlin']
    """

    def __init__(self, strings: Iterable[str] = (), *,
                 compress: bool = True,
                 tracked_symbols: str | None = None,
                 case_insensitive_frequencies: bool = True,
                 alphabet: Alphabet | None = None) -> None:
        counts = Counter(strings)
        if "" in counts:
            raise IndexConstructionError(
                "cannot index an empty string: it would alias the root"
            )
        distinct = sorted(counts)
        lcps = adjacent_lcp(distinct)
        self._segment_path: str | None = None
        self._tracked = tracked_symbols
        self._case_insensitive = case_insensitive_frequencies
        self._string_count = sum(counts.values())
        self._max_depth = max(map(len, distinct), default=0)
        has_freq = bool(tracked_symbols) and bool(distinct)

        # Nodes are emitted in *reverse* preorder — last string first,
        # and along each string's new path deepest node first — so a
        # node's children are complete before the node itself is
        # emitted: the subtree annotations fold child -> parent in the
        # same pass, and reversing every list at the end yields
        # DFS-contiguous ids with the strings table lexicographic.
        labels: list[str] = []
        sub_min: list[int] = []
        sub_max: list[int] = []
        terminal_count: list[int] = []
        terminal_sid: list[int] = []
        fan_out: list[int] = []
        children: list[int] = []       # emission indexes, node by node
        freq_min: list[tuple[int, ...]] = []
        freq_max: list[tuple[int, ...]] = []
        # Emitted nodes still waiting for their parent, most recent on
        # top, with the depth each one's edge label starts at.
        orphans: list[int] = []
        orphan_starts: list[int] = []

        def emit(string: str, start: int, end: int, multiplicity: int = 0,
                 sid: int = -1, row: tuple[int, ...] | None = None) -> None:
            # The orphans whose label starts where this one ends are
            # exactly this node's children, largest sibling first.
            cut = len(orphans)
            while cut and orphan_starts[cut - 1] == end:
                cut -= 1
            low, high = (end, end) if multiplicity else (_NO_MIN, _NO_MAX)
            row_low = row_high = row
            for child in orphans[cut:]:
                if sub_min[child] < low:
                    low = sub_min[child]
                if sub_max[child] > high:
                    high = sub_max[child]
                if has_freq:
                    row_low = freq_min[child] if row_low is None else \
                        tuple(map(min, row_low, freq_min[child]))
                    row_high = freq_max[child] if row_high is None else \
                        tuple(map(max, row_high, freq_max[child]))
            fan_out.append(len(orphans) - cut)
            children.extend(orphans[cut:])
            del orphans[cut:], orphan_starts[cut:]
            orphans.append(len(labels))
            orphan_starts.append(start)
            labels.append(string[start:end])
            sub_min.append(low)
            sub_max.append(high)
            terminal_count.append(multiplicity)
            terminal_sid.append(sid)
            if has_freq:
                freq_min.append(row_low)
                freq_max.append(row_high)

        # Depths at which strings further right branch off the current
        # string's path (strictly increasing; 0 is the root).
        branches = [0]
        for sid in range(len(distinct) - 1, -1, -1):
            string = distinct[sid]
            length = len(string)
            branch = lcps[sid]
            # Node boundaries on the part of this string's path that the
            # previous string does not share, deepest first: its own end
            # plus, compressed, the depths where later strings branch
            # off it — or, uncompressed, every depth.
            if compress:
                depths = [length]
                while branches[-1] > branch:
                    depth = branches.pop()
                    if depth != length:
                        depths.append(depth)
                if branches[-1] != branch:
                    branches.append(branch)
                depths.append(branch)
            else:
                depths = range(length, branch - 1, -1)
            emit(string, depths[1], length, counts[string], sid,
                 frequency_vector(string, tracked_symbols,
                                  case_insensitive_frequencies)
                 if has_freq else None)
            for position in range(1, len(depths) - 1):
                emit(string, depths[position + 1], depths[position])
        emit("", 0, 0)

        last = len(labels) - 1
        labels.reverse()
        text = "".join(labels)
        if alphabet is None and text:
            alphabet = Alphabet("inferred", "".join(sorted(set(text))))
        self._alphabet = alphabet
        codes = alphabet._codes if alphabet is not None else {}
        try:
            self._label_codes = _array(map(codes.__getitem__, text),
                                       len(text))
        except KeyError as stranger:
            raise IndexConstructionError(
                f"label symbol {stranger.args[0]!r} is not in alphabet "
                f"{alphabet.name!r}"
            ) from None
        self._label_offsets = _array(accumulate(map(len, labels),
                                                initial=0), len(labels) + 1)
        self._child_offsets = _array(accumulate(reversed(fan_out),
                                                initial=0), len(fan_out) + 1)
        self._child_ids = last - _array(reversed(children), len(children))
        self._sub_min = _array(reversed(sub_min), len(sub_min))
        self._sub_max = _array(reversed(sub_max), len(sub_max))
        self._terminal_count = _array(reversed(terminal_count),
                                      len(terminal_count))
        self._terminal_sid = _array(reversed(terminal_sid),
                                    len(terminal_sid))
        self._strings = tuple(distinct)
        self._freq_min = _array(chain.from_iterable(reversed(freq_min)),
                                len(freq_min) * len(tracked_symbols)) \
            if has_freq else None
        self._freq_max = _array(chain.from_iterable(reversed(freq_max)),
                                len(freq_max) * len(tracked_symbols)) \
            if has_freq else None
        # First label code per child, parallel to child_ids, so exact
        # descents binary-search instead of scanning siblings.
        self._child_first = self._label_codes[
            self._label_offsets[self._child_ids]]

    # ------------------------------------------------------------------
    # Introspection (mirrors the object tries)
    # ------------------------------------------------------------------

    @property
    def alphabet(self) -> Alphabet | None:
        """The alphabet labels are encoded over (``None`` iff empty)."""
        return self._alphabet

    @property
    def segment_path(self) -> str | None:
        """The segment file backing this trie, if it was mmap-loaded.

        Set by :func:`repro.speed.load_segment`; the batch executor
        uses it to ship a :class:`repro.speed.SegmentRef` to pool
        workers instead of pickling the trie.
        """
        return self._segment_path

    @property
    def node_count(self) -> int:
        """Number of nodes, root included."""
        return len(self._sub_min)

    @property
    def string_count(self) -> int:
        """Number of inserted strings, duplicates included."""
        return self._string_count

    @property
    def max_depth(self) -> int:
        """Length of the longest inserted string."""
        return self._max_depth

    @property
    def tracked_symbols(self) -> str | None:
        """Symbols with frequency annotations, or ``None``."""
        return self._tracked

    @property
    def case_insensitive_frequencies(self) -> bool:
        """Whether frequency annotations fold case."""
        return self._case_insensitive

    @property
    def has_frequencies(self) -> bool:
        """Were PETER-style bounds compiled in?"""
        return self._freq_min is not None

    @property
    def strings(self) -> tuple[str, ...]:
        """Distinct strings, in lexicographic (DFS) order."""
        return self._strings

    def __len__(self) -> int:
        return self._string_count

    def __iter__(self) -> Iterator[str]:
        """Yield distinct strings in lexicographic order."""
        return iter(self._strings)

    def iter_with_counts(self) -> Iterator[tuple[str, int]]:
        """Yield ``(string, multiplicity)`` in lexicographic order."""
        terminals = np.flatnonzero(self._terminal_sid >= 0)
        for sid, count in zip(self._terminal_sid[terminals].tolist(),
                              self._terminal_count[terminals].tolist()):
            yield self._strings[sid], count

    def __contains__(self, string: str) -> bool:
        node = self._lookup(string)
        return node >= 0 and self._terminal_count[node] > 0

    def count(self, string: str) -> int:
        """Multiplicity of ``string`` in the compiled trie."""
        node = self._lookup(string)
        return int(self._terminal_count[node]) if node >= 0 else 0

    def _lookup(self, string: str) -> int:
        """Exact descent; ``-1`` when the walk falls off the tree."""
        if self._alphabet is None:
            return -1
        codes = self._alphabet._codes
        symbols = self._alphabet.symbols
        label_offsets = self._label_offsets
        label_codes = self._label_codes
        child_offsets = self._child_offsets
        child_ids = self._child_ids
        child_first = self._child_first
        node = 0
        position = 0
        length = len(string)
        while position < length:
            code = codes.get(string[position])
            if code is None:
                return -1
            lo = child_offsets[node]
            hi = child_offsets[node + 1]
            # Siblings are ordered by first *symbol* (lexicographic
            # enumeration), which an explicit alphabet's code order
            # need not follow — so bisect on symbols, not codes.
            slot = bisect_left(child_first, string[position], lo, hi,
                               key=symbols.__getitem__)
            if slot >= hi or child_first[slot] != code:
                return -1
            node = int(child_ids[slot])
            start = label_offsets[node]
            end = label_offsets[node + 1]
            for offset in range(start, end):
                if position >= length:
                    return -1
                code = codes.get(string[position])
                if code != label_codes[offset]:
                    return -1
                position += 1
        return node

    def encode_query(self, query: str) -> tuple[int, ...]:
        """Encode a query over the trie alphabet, tolerating strangers.

        Out-of-alphabet symbols map to ``-1``: no edge label carries
        that code, so such positions can never match — exactly the
        raw-string semantics of the object traversal.
        """
        if self._alphabet is None:
            return tuple(-1 for _ in query)
        codes = self._alphabet._codes
        return tuple(codes.get(symbol, -1) for symbol in query)

    def describe(self) -> dict:
        """Compile-time facts, for benchmarks and reports."""
        return {
            "nodes": self.node_count,
            "strings": len(self._strings),
            "string_count": self._string_count,
            "max_depth": self._max_depth,
            "label_symbols": len(self._label_codes),
            "alphabet_size": self._alphabet.size if self._alphabet else 0,
            "tracked_symbols": self._tracked or "",
            "has_frequencies": self.has_frequencies,
        }

    def __repr__(self) -> str:
        return (
            f"FlatTrie(nodes={self.node_count}, "
            f"strings={len(self._strings)}, "
            f"max_depth={self._max_depth})"
        )


#: Band cells (frontier entries x (2k + 1)) a frontier may hold before it
#: is split in two and the halves finish one after the other: 2**21 int16
#: cells are 4 MiB per band array.
_FRONTIER_CELLS = 2**21

#: Query ids a batch's work tally holds before it counts them (512 KiB):
#: the ids of every symbol a descent consumes would otherwise outgrow
#: the frontier.
_KEPT_IDS = 2**16

#: The query-id column of a one-query descent. Indexing a per-query table
#: with it keeps a length-1 query axis that broadcasts against the whole
#: frontier, so a single query gathers nothing per entry.
_ONE = slice(0, 1)

#: Added to node ids, the offsets of their labels' first and last-plus-one
#: symbols in ``label_offsets``.
_LABEL = np.array([[0], [1]])

# Rows of the per-query work tally.
_VISITED, _SYMBOLS, _BY_LENGTH, _BY_FREQUENCY = range(4)


def _take(who, index):
    """The query ids of the frontier entries ``index`` selects."""
    return who if who is _ONE else who[index]


class _Tally:
    """Per-query work counters of one descent.

    A single query counts with plain additions. A batch keeps the query
    id of every counted entry and counts them with one ``bincount`` per
    counter at the end — or sooner, whenever it holds ``_KEPT_IDS``.
    """

    def __init__(self, queries: int) -> None:
        self._one = queries == 1
        self._counts = [0, 0, 0, 0]
        self._totals = np.zeros((4, queries), dtype=np.int64)
        self._kept: list[list[np.ndarray]] = [[], [], [], []]
        self._held = 0

    def every(self, counter: int, who, count: int) -> None:
        """Count all ``count`` entries ``who`` describes."""
        if self._one:
            self._counts[counter] += count
        else:
            self._keep(counter, who)

    def where(self, counter: int, who, mask: np.ndarray) -> None:
        """Count the entries ``mask`` selects."""
        if self._one:
            self._counts[counter] += int(np.count_nonzero(mask))
        else:
            self._keep(counter, who[mask])

    def unless(self, counter: int, who, mask: np.ndarray) -> None:
        """Count the entries ``mask`` leaves out."""
        if self._one:
            self._counts[counter] += len(mask) - int(np.count_nonzero(mask))
        else:
            self._keep(counter, who[~mask])

    def one(self, counter: int) -> int:
        """A single query's count so far."""
        return self._counts[counter]

    def per_query(self) -> list[list[int]]:
        """Every query's four counts, in counter order."""
        if self._one:
            return [self._counts]
        self._fold()
        return self._totals.T.tolist()

    def _keep(self, counter: int, ids: np.ndarray) -> None:
        self._kept[counter].append(ids)
        self._held += len(ids)
        if self._held > _KEPT_IDS:
            self._fold()

    def _fold(self) -> None:
        queries = self._totals.shape[1]
        for counter, kept in enumerate(self._kept):
            if kept:
                self._totals[counter] += np.bincount(
                    np.concatenate(kept), minlength=queries)
                kept.clear()
        self._held = 0


def flat_similarity_search(flat: FlatTrie, query: str, k: int, *,
                           use_frequency_pruning: bool = True,
                           stats: TraversalStats | None = None,
                           deadline: Deadline | Budget | None = None,
                           ) -> list[TrieMatch]:
    """All dataset strings within edit distance ``k`` of ``query``.

    The compiled twin of
    :func:`repro.index.traversal.trie_similarity_search`: identical
    pruning rules (frequency bound first, then the length box, the
    Ukkonen band cutoff and the full conditions (9)/(10) completion
    bound), identical results, identical
    :class:`~repro.index.traversal.TraversalStats` counters for the
    same tree topology — but level-synchronous: every step advances the
    whole frontier one depth with a few array operations, so Python
    iterations scale with the depth of the descent, not with the nodes
    it visits (see docs/INDEX.md, "The traversal, compiled"). This is
    the one-query case of :func:`flat_similarity_search_many`.

    Parameters
    ----------
    flat:
        The compiled trie.
    query / k:
        Query string and edit-distance threshold (``>= 0``).
    use_frequency_pruning:
        Apply PETER-style pruning when bounds were compiled in.
    stats:
        Optional counter object to fill with traversal work.
    deadline:
        Optional :class:`repro.core.deadline.Deadline` /
        :class:`repro.core.deadline.Budget`, polled once per depth
        with the nodes entered since the last poll; on expiry the
        descent raises :class:`DeadlineExceeded` carrying the matches
        proven so far (a subset of the exact answer), with the stats
        object already updated with the partial traversal's work.

    Examples
    --------
    >>> flat = FlatTrie(["Berlin", "Bern", "Ulm"])
    >>> [m.string for m in flat_similarity_search(flat, "Bern", 1)]
    ['Bern']
    """
    check_threshold(k)
    [matches] = _descend(flat, [query], k, use_frequency_pruning,
                         None if stats is None else [stats], deadline)
    return matches


def flat_similarity_search_many(flat: FlatTrie, queries: Iterable[str],
                                k: int, *,
                                use_frequency_pruning: bool = True,
                                stats: list[TraversalStats] | None = None,
                                ) -> list[list[TrieMatch]]:
    """:func:`flat_similarity_search` for a batch, in one descent.

    Every query's entries share one frontier, so each depth costs the
    batch the array steps one query would pay. Returns one sorted match
    list per query, in input order; ``stats``, when given, holds one
    :class:`~repro.index.traversal.TraversalStats` per query. Rows and
    counters equal those of one :func:`flat_similarity_search` per
    query.

    Examples
    --------
    >>> flat = FlatTrie(["Berlin", "Bern", "Ulm"])
    >>> [[m.string for m in row]
    ...  for row in flat_similarity_search_many(flat, ["Bern", "Ul"], 1)]
    [['Bern'], ['Ulm']]
    """
    check_threshold(k)
    queries = list(queries)
    if stats is not None and len(stats) != len(queries):
        raise ValueError(
            f"stats holds {len(stats)} entries for {len(queries)} queries"
        )
    return _descend(flat, queries, k, use_frequency_pruning, stats, None)


def _descend(flat: FlatTrie, queries: list[str], k: int,
             use_frequency_pruning: bool,
             stats: list[TraversalStats] | None,
             deadline: Deadline | Budget | None) -> list[list[TrieMatch]]:
    """The descent behind both entry points (see docs/INDEX.md)."""
    count = len(queries)
    if not count:
        return []
    cap = k + 1
    width = 2 * k + 1
    # Cells hold values in [0, k + 1], so a short integer is wide enough
    # for any sane k.
    cell = np.int16 if k < 2**13 else np.int64
    label_offsets = flat._label_offsets
    label_codes = flat._label_codes
    child_offsets = flat._child_offsets
    child_ids = flat._child_ids
    sub_min = flat._sub_min
    sub_max = flat._sub_max
    terminal_count = flat._terminal_count
    terminal_sid = flat._terminal_sid
    strings = flat._strings

    # Rows are Ukkonen bands stored band-major, one column per frontier
    # entry: cell b of an entry at depth d is DP column j = d - k + b.
    # Cells past the band are all above k, so the band decides
    # everything the full row would.
    band = np.arange(width, dtype=cell)
    lengths = np.fromiter(map(len, queries), dtype=np.int64, count=count)
    # padded[d + b, q] is query q's symbol j - 1 for band cell b at depth
    # d; symbols outside the alphabet and the padding encode to -1, which
    # no label code equals.
    size = flat.alphabet.size if flat.alphabet is not None else 0
    code = np.int16 if size < 2**15 else np.int64
    padded = np.full((int(lengths.max()) + 3 * k + 2, count), -1,
                     dtype=code)
    for qid, query in enumerate(queries):
        padded[k + 1:k + 1 + len(query), qid] = flat.encode_query(query)

    tracked = flat.tracked_symbols
    box_min = box_max = query_frequency = None
    if use_frequency_pruning and tracked is not None \
            and flat.has_frequencies:
        query_frequency = np.array(
            [frequency_vector(query, tracked,
                              flat.case_insensitive_frequencies)
             for query in queries], dtype=np.int64).reshape(count, -1)
        box_min = flat._freq_min.reshape(-1, len(tracked))
        box_max = flat._freq_max.reshape(-1, len(tracked))

    shortest = int(lengths.min())
    # n + k per query: the band cell that holds column n is reach - depth.
    reach_of = lengths + k
    band_column = band[:, None]
    tally = _Tally(count)
    found: list[tuple] = []

    def admit(entered: np.ndarray, who) -> np.ndarray:
        """Mask of entered nodes inside the frequency and length boxes."""
        tally.every(_VISITED, who, len(entered))
        n = lengths[who]
        keep = np.maximum(sub_min[entered] - n, n - sub_max[entered]) <= k
        if query_frequency is not None:
            wanted = query_frequency[who]
            deficit = np.maximum(box_min[entered] - wanted, 0)
            surplus = np.maximum(wanted - box_max[entered], 0)
            fits = (deficit.sum(axis=1) <= k) & (surplus.sum(axis=1) <= k)
            tally.unless(_BY_FREQUENCY, who, fits)
            keep &= fits
            tally.where(_BY_LENGTH, who, fits ^ keep)
        else:
            tally.unless(_BY_LENGTH, who, keep)
        return keep

    def settle() -> list[list[TrieMatch]]:
        rows: list[list[TrieMatch]] = [[] for _ in queries]
        for who, sids, distances, counts in found:
            owners = [0] * len(sids) if who is _ONE else who.tolist()
            for qid, sid, distance, multiplicity in zip(
                    owners, sids.tolist(), distances.tolist(),
                    counts.tolist()):
                rows[qid].append(TrieMatch(strings[sid], distance,
                                           multiplicity))
        for row in rows:
            row.sort(key=lambda match: match.string)
        if stats is not None:
            # Plain ints: the counters end up in JSON reports.
            for into, row, (visited, symbols, by_length, by_frequency) \
                    in zip(stats, rows, tally.per_query()):
                into.nodes_visited += visited
                into.symbols_processed += symbols
                into.branches_pruned_by_length += by_length
                into.branches_pruned_by_frequency += by_frequency
                into.matches += len(row)
        return rows

    # The root finishes its empty label at depth 0, where column j costs
    # j deletions (columns before the query hold the cap).
    roots = np.zeros(count, dtype=np.int64)
    who = _ONE if count == 1 else np.arange(count)
    keep = admit(roots, who)
    columns = band - k
    start = np.where(columns >= 0, np.minimum(columns, cap), cap)
    # A frontier part: its depth; the entries that just finished their
    # edge label and fan out next (node, query id, band); and the entries
    # part-way through a label (one array whose rows are node, offset of
    # the next label symbol and end of the label; query id; band).
    parts = [(0, roots[keep], _take(who, keep),
              np.repeat(start.astype(cell)[:, None],
                        np.count_nonzero(keep), axis=1),
              np.zeros((3, 0), dtype=np.int64), _take(who, roots[:0]),
              np.zeros((width, 0), dtype=cell))]
    polled = 0
    while parts:
        depth, done, done_who, done_rows, entries, who, rows = parts.pop()
        while True:
            first = child_offsets[done]
            fan = child_offsets[done + 1] - first
            total = int(fan.sum())
            held = entries.shape[1]
            if (held + total) * width > _FRONTIER_CELLS \
                    and (len(done) > 1 or held > 1):
                # Over budget: finish the first half of every array
                # before the second. Counters are sums and rows are
                # sorted at the end, so the split changes no output.
                low, high = slice(len(done) // 2), slice(held // 2)
                rest, tail = slice(low.stop, None), slice(high.stop, None)
                parts.append((depth, done[rest], _take(done_who, rest),
                              done_rows[:, rest], entries[:, tail],
                              _take(who, tail), rows[:, tail]))
                done, done_who, done_rows = \
                    done[low], _take(done_who, low), done_rows[:, low]
                entries, who, rows = \
                    entries[:, high], _take(who, high), rows[:, high]
                continue
            # Expand finished entries into their CSR children, all at
            # once; every child starts from its parent's band.
            if total:
                parent = np.repeat(np.arange(len(done)), fan)
                kids = child_ids[np.arange(total)
                                 + (first - np.cumsum(fan) + fan)[parent]]
                kids_who = _take(done_who, parent)
                keep = admit(kids, kids_who).nonzero()[0]
                kids = kids[keep]
                entries = np.concatenate((entries, np.concatenate(
                    (kids[None, :], label_offsets[kids + _LABEL]))), axis=1)
                if who is not _ONE:
                    who = np.concatenate((who, kids_who[keep]))
                rows = np.concatenate((rows, done_rows[:, parent[keep]]),
                                      axis=1)
            if not entries.shape[1]:
                break
            if deadline is not None:
                visited = tally.one(_VISITED)
                if deadline.spend(visited - polled):
                    [partial] = settle()
                    raise DeadlineExceeded(
                        f"flat-trie descent for {queries[0]!r} (k={k}) "
                        f"exceeded its deadline after {visited} nodes",
                        partial=tuple(partial), scope="nodes",
                        completed=visited, total=flat.node_count,
                    )
                polled = visited

            # Consume one label symbol from every entry.
            depth += 1
            tally.every(_SYMBOLS, who, entries.shape[1])
            if depth > shortest + k:
                # Past its reach the band has left the query: every
                # completion needs more than k deletions.
                gone = reach_of[who] < depth
                if gone.all():
                    tally.every(_BY_LENGTH, who, entries.shape[1])
                    break
                if gone.any():
                    tally.where(_BY_LENGTH, who, gone)
                    stay = (~gone).nonzero()[0]
                    entries, who, rows = \
                        entries[:, stay], _take(who, stay), rows[:, stay]
            nodes, cursor, end = entries
            # One DP step: moving down one depth shifts the band one
            # column right, so cell b takes its diagonal from cell b and
            # its deletion from cell b + 1 of the previous band;
            # insertions then chain along the new band, one contiguous
            # minimum across the frontier per cell. Capping at k + 1
            # first keeps every value that can still matter exact.
            mismatch = padded[depth:depth + width, who] \
                != label_codes[cursor].astype(code, copy=False)
            step = rows + mismatch
            np.minimum(step[:-1], rows[1:] + 1, out=step[:-1])
            np.minimum(step, cap, out=step)
            for b in range(1, width):
                np.minimum(step[b], step[b - 1] + 1, out=step[b])
            rows = step
            # In place: every part owns its columns of ``entries``.
            cursor += 1
            # Ukkonen cutoff: the whole band left the threshold.
            alive = rows.min(axis=0) <= k
            tally.unless(_BY_LENGTH, who, alive)
            ending = (alive & (cursor == end)).nonzero()[0]
            ending_who = _take(who, ending)
            ended = nodes[ending]
            terminal = terminal_count[ended]
            collect = terminal > 0
            ok = collect.copy()
            inner = (~collect).nonzero()[0]
            if len(inner):
                # Full conditions (9)/(10) once per inner node, right
                # before it fans out: can any column still be completed
                # within k? Column j leaves n - j query symbols against
                # sub_min - depth to sub_max - depth label symbols, so
                # the depths cancel.
                reach = reach_of[_take(ending_who, inner)]
                forks = ended[inner]
                shortfall = np.maximum(np.maximum(
                    (reach - sub_max[forks]) - band_column,
                    (sub_min[forks] - reach) + band_column), 0)
                ok[inner] = (rows[:, ending[inner]]
                             + shortfall).min(axis=0) <= k
                tally.unless(_BY_LENGTH, ending_who, ok)
            if depth >= shortest - k:
                # Terminals whose column n is in the band and within k.
                hits = (collect & (reach_of[ending_who] - depth < width)
                        ).nonzero()[0]
                if len(hits):
                    hits_who = _take(ending_who, hits)
                    distances = rows[reach_of[hits_who] - depth,
                                     ending[hits]]
                    within = distances <= k
                    hits = hits[within]
                    found.append((_take(hits_who, within),
                                  terminal_sid[ended[hits]],
                                  distances[within], terminal[hits]))
            done, done_who, done_rows = \
                ended[ok], _take(ending_who, ok), rows[:, ending[ok]]
            alive[ending] = False
            stay = alive.nonzero()[0]
            entries, who, rows = \
                entries[:, stay], _take(who, stay), rows[:, stay]

    return settle()
