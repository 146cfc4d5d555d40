"""The compiled trie: the paper's index as flat arrays.

PR 1 gave the *scan* side a compiled execution path
(:mod:`repro.scan`); this module is the index-side twin. A
:class:`FlatTrie` holds the annotated prefix tree of section 4 as
parallel tuples, so a similarity descent touches contiguous integer
arrays instead of chasing ``TrieNode`` objects through attribute
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

Layout (all plain tuples, so the value is immutable and pickles
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

:func:`flat_similarity_search` runs the same banded-DP descent as
:func:`repro.index.traversal.trie_similarity_search` — same pruning
rules, same :class:`~repro.index.traversal.TraversalStats` counters —
but iteratively (explicit stack) and allocation-free (row buffers
preallocated per depth, reusable across queries via ``row_bank``).
Batch execution lives in :mod:`repro.index.batch`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain
from typing import Iterable, Iterator

from repro.core.deadline import Budget, Deadline
from repro.data.alphabet import Alphabet
from repro.data.stats import adjacent_lcp
from repro.distance.banded import check_threshold
from repro.exceptions import DeadlineExceeded, IndexConstructionError
from repro.filters.frequency import frequency_vector
from repro.index.traversal import TraversalStats, TrieMatch

#: Length bounds of a subtree no string has been folded into yet (the
#: root of an empty trie keeps them, as an object ``TrieNode`` would).
_NO_MIN = 2**63
_NO_MAX = -1


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
            self._label_codes = tuple(map(codes.__getitem__, text))
        except KeyError as stranger:
            raise IndexConstructionError(
                f"label symbol {stranger.args[0]!r} is not in alphabet "
                f"{alphabet.name!r}"
            ) from None
        self._label_offsets = tuple(accumulate(map(len, labels), initial=0))
        self._child_offsets = tuple(accumulate(reversed(fan_out), initial=0))
        self._child_ids = tuple(last - child for child in reversed(children))
        self._sub_min = tuple(reversed(sub_min))
        self._sub_max = tuple(reversed(sub_max))
        self._terminal_count = tuple(reversed(terminal_count))
        self._terminal_sid = tuple(reversed(terminal_sid))
        self._strings = tuple(distinct)
        self._freq_min = tuple(chain.from_iterable(reversed(freq_min))) \
            if has_freq else None
        self._freq_max = tuple(chain.from_iterable(reversed(freq_max))) \
            if has_freq else None
        # First label code per child, parallel to child_ids, so exact
        # descents binary-search instead of scanning siblings.
        self._child_first = tuple(map(
            self._label_codes.__getitem__,
            map(self._label_offsets.__getitem__, self._child_ids),
        ))

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
        terminal_sid = self._terminal_sid
        terminal_count = self._terminal_count
        for node, sid in enumerate(terminal_sid):
            if sid >= 0:
                yield self._strings[sid], terminal_count[node]

    def __contains__(self, string: str) -> bool:
        node = self._lookup(string)
        return node >= 0 and self._terminal_count[node] > 0

    def count(self, string: str) -> int:
        """Multiplicity of ``string`` in the compiled trie."""
        node = self._lookup(string)
        return self._terminal_count[node] if node >= 0 else 0

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
            node = child_ids[slot]
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
                           row_bank: list | None = None,
                           deadline: Deadline | Budget | None = None,
                           ) -> list[TrieMatch]:
    """All dataset strings within edit distance ``k`` of ``query``.

    The compiled twin of
    :func:`repro.index.traversal.trie_similarity_search`: identical
    pruning rules (frequency bound first, then the length box, the
    Ukkonen band cutoff and the full conditions (9)/(10) completion
    bound), identical results, identical
    :class:`~repro.index.traversal.TraversalStats` counters for the
    same tree topology — but iterative and allocation-free.

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
    row_bank:
        Optional caller-owned list of DP row buffers, reused across
        calls (the executor passes one per worker); grown on demand,
        never shrunk.
    deadline:
        Optional :class:`repro.core.deadline.Deadline` /
        :class:`repro.core.deadline.Budget`, polled every
        ``check_interval`` visited nodes; on expiry the descent raises
        :class:`DeadlineExceeded` carrying the matches proven so far
        (a subset of the exact answer), with the stats object already
        updated with the partial traversal's work.

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
    infinity = k + 1
    encoded = flat.encode_query(query)

    tracked = flat.tracked_symbols
    query_frequency: tuple[int, ...] | None = None
    if use_frequency_pruning and tracked is not None \
            and flat.has_frequencies:
        query_frequency = frequency_vector(
            query, tracked, flat.case_insensitive_frequencies
        )
    width = len(tracked) if tracked is not None else 0

    # Local bindings: the loop below runs once per node/symbol and every
    # attribute hop it avoids is measurable in CPython.
    label_offsets = flat._label_offsets
    label_codes = flat._label_codes
    child_offsets = flat._child_offsets
    child_ids = flat._child_ids
    sub_min = flat._sub_min
    sub_max = flat._sub_max
    terminal_count = flat._terminal_count
    terminal_sid = flat._terminal_sid
    strings = flat._strings
    freq_min = flat._freq_min
    freq_max = flat._freq_max

    if row_bank is None:
        row_bank = []
    need = flat.max_depth + 2
    if len(row_bank) < need:
        row_bank.extend([None] * (need - len(row_bank)))
    rows = row_bank
    rows[0] = [j if j <= k else infinity for j in range(n + 1)]
    # A row at depth d is only ever written while d <= n + k (deeper
    # bands leave the query and prune first), so materializing that
    # prefix up front removes the per-symbol existence check.
    for d in range(1, min(flat.max_depth, n + k) + 2):
        row = rows[d]
        if row is None or len(row) <= n:
            rows[d] = [0] * (n + 1)

    nodes_visited = 0
    symbols_total = 0
    pruned_length = 0
    pruned_frequency = 0
    matches: list[TrieMatch] = []

    # (node, depth-at-entry) frames; LIFO pushes reproduce recursive
    # DFS order, which is what keeps the per-depth row sharing sound: a
    # sibling subtree only writes rows *deeper* than the shared parent
    # row it is entered from.
    frames: list[tuple[int, int]] = [(0, 0)]
    push = frames.append
    pop = frames.pop

    check_interval = deadline.check_interval if deadline is not None else 0
    countdown = check_interval

    while frames:
        node, depth = pop()
        nodes_visited += 1

        if countdown:
            countdown -= 1
            if not countdown:
                countdown = check_interval
                if deadline.spend(check_interval):
                    stats.nodes_visited += nodes_visited
                    stats.symbols_processed += symbols_total
                    stats.branches_pruned_by_length += pruned_length
                    stats.branches_pruned_by_frequency += pruned_frequency
                    stats.matches += len(matches)
                    matches.sort(key=lambda match: match.string)
                    raise DeadlineExceeded(
                        f"flat-trie descent for {query!r} (k={k}) "
                        f"exceeded its deadline after {nodes_visited} "
                        "nodes",
                        partial=tuple(matches), scope="nodes",
                        completed=nodes_visited,
                        total=flat.node_count,
                    )

        if query_frequency is not None:
            base = node * width
            surplus = 0
            deficit = 0
            for position in range(width):
                fq = query_frequency[position]
                lo_bound = freq_min[base + position]
                if fq < lo_bound:
                    deficit += lo_bound - fq
                elif fq > freq_max[base + position]:
                    surplus += fq - freq_max[base + position]
            if surplus > k or deficit > k:
                pruned_frequency += 1
                continue

        node_lo = sub_min[node]
        node_hi = sub_max[node]
        length_bound = node_lo - n
        if n - node_hi > length_bound:
            length_bound = n - node_hi
        if length_bound > k:
            pruned_length += 1
            continue

        label_start = label_offsets[node]
        label_end = label_offsets[node + 1]
        child_start = child_offsets[node]
        child_end = child_offsets[node + 1]
        pruned = False
        consumed = 0
        if label_start != label_end:
            parent = rows[depth]
            last_offset = label_end - 1
            for offset in range(label_start, label_end):
                code = label_codes[offset]
                depth += 1
                consumed += 1
                lo = depth - k
                hi = depth + k
                if lo > n:
                    # The band left the query: every completion needs
                    # more than k deletions.
                    pruned = True
                    pruned_length += 1
                    break
                if hi > n:
                    hi = n
                row = rows[depth]

                # Band update, cells j in [lo, hi] clamped to [0, n].
                # ``prev`` carries row[j - 1] and ``diagonal`` carries
                # parent[j - 1] between iterations, so the loop body
                # reads ``parent`` once per cell. Values above the
                # threshold are left unclamped — every value > k is
                # equally dead for pruning, collection and the DP mins.
                if lo <= 0:
                    lo = 0
                    row[0] = depth
                    row_min = prev = depth
                    first = 1
                else:
                    row_min = prev = infinity
                    first = lo
                # parent's band tops out at depth - 1 + k; the one cell
                # that can exceed it (j == depth + k, when the query
                # did not clamp hi) is peeled below.
                clipped = hi - 1 if hi == depth + k else hi
                diagonal = parent[first - 1]
                for j in range(first, clipped + 1):
                    above = parent[j]
                    if code == encoded[j - 1]:
                        cost = diagonal
                    else:
                        cost = diagonal
                        if above < cost:
                            cost = above
                        if prev < cost:
                            cost = prev
                        cost += 1
                    row[j] = cost
                    if cost < row_min:
                        row_min = cost
                    diagonal = above
                    prev = cost
                if clipped != hi:
                    if code == encoded[hi - 1]:
                        cost = diagonal
                    else:
                        cost = diagonal
                        if prev < cost:
                            cost = prev
                        cost += 1
                    row[hi] = cost
                    if cost < row_min:
                        row_min = cost
                if row_min > k:
                    # Ukkonen cutoff: the whole band left the threshold.
                    pruned = True
                    pruned_length += 1
                    break
                if offset == last_offset and child_start != child_end:
                    # Full conditions (9)/(10) once per node, right
                    # before the branch fans out into children.
                    remaining_hi = node_hi - depth
                    remaining_lo = node_lo - depth
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
                    if best_completion > k and not terminal_count[node]:
                        pruned = True
                        pruned_length += 1
                        break
                parent = row
        symbols_total += consumed
        if pruned:
            continue

        multiplicity = terminal_count[node]
        if multiplicity and depth - k <= n <= depth + k:
            distance = rows[depth][n]
            if distance <= k:
                matches.append(TrieMatch(
                    strings[terminal_sid[node]], distance, multiplicity
                ))

        for slot in range(child_end - 1, child_start - 1, -1):
            push((child_ids[slot], depth))

    stats.nodes_visited += nodes_visited
    stats.symbols_processed += symbols_total
    stats.branches_pruned_by_length += pruned_length
    stats.branches_pruned_by_frequency += pruned_frequency
    stats.matches += len(matches)

    matches.sort(key=lambda match: match.string)
    return matches
