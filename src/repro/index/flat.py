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
for the whole frontier. Batch execution lives in
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
    it visits (see docs/INDEX.md, "The traversal, compiled").

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
    if stats is None:
        stats = TraversalStats()

    n = len(query)
    cap = k + 1
    width = 2 * k + 1
    # Cells hold values in [-2k, k + 1] (the insertion pass works on
    # cell[b] - b), so a short integer is wide enough for any sane k.
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

    # Rows are Ukkonen bands: cell b of a row at depth d is DP column
    # j = d - k + b, and columns outside [0, n] hold the cap. Cells
    # past the band are all above k, so the band decides everything
    # the full row would.
    band = np.arange(width, dtype=cell)
    # mismatch[c, d + b] is 0 iff label code c equals query symbol
    # j - 1 of band cell b at depth d; query symbols outside the
    # alphabet encode to -1 and the padding to -1, so neither matches.
    padded = np.full(n + 3 * k + 2, -1, dtype=np.int64)
    padded[k + 1:k + 1 + n] = flat.encode_query(query)
    size = flat.alphabet.size if flat.alphabet is not None else 0
    mismatch = (np.arange(size)[:, None] != padded).astype(cell)

    tracked = flat.tracked_symbols
    box_min = box_max = query_frequency = None
    if use_frequency_pruning and tracked is not None \
            and flat.has_frequencies:
        query_frequency = np.array(frequency_vector(
            query, tracked, flat.case_insensitive_frequencies))
        box_min = flat._freq_min.reshape(-1, len(tracked))
        box_max = flat._freq_max.reshape(-1, len(tracked))

    visited = 0
    symbols = 0
    pruned_length = 0
    pruned_frequency = 0
    matches: list[TrieMatch] = []

    def admit(entered: np.ndarray) -> np.ndarray:
        """Mask of entered nodes inside the frequency and length boxes."""
        nonlocal visited, pruned_length, pruned_frequency
        visited += len(entered)
        keep = np.maximum(sub_min[entered] - n, n - sub_max[entered]) <= k
        if query_frequency is not None:
            deficit = np.maximum(box_min[entered] - query_frequency, 0)
            surplus = np.maximum(query_frequency - box_max[entered], 0)
            fits = (deficit.sum(axis=1) <= k) & (surplus.sum(axis=1) <= k)
            pruned_frequency += len(entered) - np.count_nonzero(fits)
            keep &= fits
            pruned_length += np.count_nonzero(fits) - np.count_nonzero(keep)
        else:
            pruned_length += len(entered) - np.count_nonzero(keep)
        return keep

    def settle() -> None:
        stats.nodes_visited += visited
        stats.symbols_processed += symbols
        # Plain ints: the counters end up in JSON reports.
        stats.branches_pruned_by_length += int(pruned_length)
        stats.branches_pruned_by_frequency += int(pruned_frequency)
        stats.matches += len(matches)
        matches.sort(key=lambda match: match.string)

    # Entries that just finished their edge label and fan out next, with
    # their rows; the root finishes its empty label at depth 0, where
    # column j costs j deletions.
    done = np.zeros(1, dtype=np.int64)
    columns = band - k
    done_rows = np.where((columns >= 0) & (columns <= n),
                         np.minimum(columns, cap), cap)[None, :].astype(cell)
    keep = admit(done)
    done, done_rows = done[keep], done_rows[keep]
    # The frontier: entries part-way through a label — node, offset of
    # the next label symbol, end of the label, band at ``depth``.
    nodes = cursor = end = np.zeros(0, dtype=np.int64)
    rows = np.zeros((0, width), dtype=cell)
    depth = 0
    polled = 0
    while True:
        # Expand finished entries into their CSR children, all at once.
        first = child_offsets[done]
        fan = child_offsets[done + 1] - first
        total = int(fan.sum())
        if total:
            kids = child_ids[np.arange(total)
                             + np.repeat(first - np.cumsum(fan) + fan, fan)]
            keep = admit(kids)
            kids = kids[keep]
            nodes = np.concatenate((nodes, kids))
            cursor = np.concatenate((cursor, label_offsets[kids]))
            end = np.concatenate((end, label_offsets[kids + 1]))
            rows = np.concatenate(
                (rows, np.repeat(done_rows, fan, axis=0)[keep]))
        if not len(nodes):
            break
        if deadline is not None and deadline.spend(visited - polled):
            settle()
            raise DeadlineExceeded(
                f"flat-trie descent for {query!r} (k={k}) exceeded its "
                f"deadline after {visited} nodes",
                partial=tuple(matches), scope="nodes",
                completed=visited, total=flat.node_count,
            )
        polled = visited

        # Consume one label symbol from every entry.
        depth += 1
        symbols += len(nodes)
        # Band cells past the query's last column: all of them once
        # the band has left the query.
        beyond = n - depth + k + 1
        if beyond <= 0:
            # Every completion needs more than k deletions.
            pruned_length += len(nodes)
            break
        rows = _advance(rows, mismatch[label_codes[cursor],
                                       depth:depth + width], band, cap)
        rows[:, beyond:] = cap
        cursor += 1
        # Ukkonen cutoff: the whole band left the threshold.
        alive = rows.min(axis=1) <= k
        pruned_length += len(alive) - np.count_nonzero(alive)
        ending = np.flatnonzero(alive & (cursor == end))
        ended = nodes[ending]
        terminal = terminal_count[ended]
        ok = np.ones(len(ending), dtype=bool)
        inner = np.flatnonzero(terminal == 0)
        if len(inner):
            # Full conditions (9)/(10) once per inner node, right before
            # it fans out: can any column still be completed within k?
            left = (n - depth + k) - band
            below = (sub_max[ended[inner]] - depth)[:, None]
            above = (sub_min[ended[inner]] - depth)[:, None]
            shortfall = np.maximum(np.maximum(left - below, above - left), 0)
            ok[inner] = (rows[ending[inner]] + shortfall).min(axis=1) <= k
            pruned_length += len(ok) - np.count_nonzero(ok)
        if 0 <= n - depth + k < width:
            # Column n is in the band: collect terminals within k.
            distances = rows[ending, n - depth + k]
            hits = np.flatnonzero(ok & (terminal > 0) & (distances <= k))
            for sid, distance, count in zip(
                    terminal_sid[ended[hits]].tolist(),
                    distances[hits].tolist(), terminal[hits].tolist()):
                matches.append(TrieMatch(strings[sid], distance, count))
        done, done_rows = ended[ok], rows[ending[ok]]
        alive[ending] = False
        nodes, cursor, end, rows = \
            nodes[alive], cursor[alive], end[alive], rows[alive]

    settle()
    return matches


def _advance(rows: np.ndarray, mismatch: np.ndarray, band: np.ndarray,
             cap: int) -> np.ndarray:
    """Every frontier band one depth deeper, capped at ``cap``.

    Moving down one depth shifts the band one column right, so cell b
    takes its diagonal from cell b and its deletion from cell b + 1 of
    the previous band. Insertions chain along the new band, which a
    running minimum over ``cell[b] - b`` resolves. Capping at ``k + 1``
    keeps every value that can still matter exact.
    """
    out = rows + mismatch
    np.minimum(out[:, :-1], rows[:, 1:] + 1, out=out[:, :-1])
    out -= band
    out = np.minimum.accumulate(out, axis=1)
    out += band
    return np.minimum(out, cap, out=out)
