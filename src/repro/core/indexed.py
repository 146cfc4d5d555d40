"""The index-based solution (paper section 4), stages configurable.

Four index configurations back the paper's ladder (Figure 5) and its
compiled extension:

===================  =====================================================
Paper stage          Configuration
===================  =====================================================
1 base               ``index="trie"`` — annotated prefix tree
2 compression        ``index="compressed"`` — radix-merged tree
3 managed threads    pass a pool/adaptive runner to the workload
beyond the paper     ``index="flat"`` — the compressed tree built as
                     flat arrays (:mod:`repro.index.flat`), descended
                     iteratively without per-node object overhead
===================  =====================================================

Beyond the paper, the same searcher fronts every other structure in the
library — ``"qgram"`` (inverted q-gram lists), ``"dawg"`` (minimal
acyclic DFA), ``"bktree"`` (metric-space tree) and ``"automaton"``
(trie × Levenshtein automaton) — and ``frequency_pruning=True`` adds
PETER-style node vectors to the trie kinds (the section-6 future-work
item). All kinds return identical results; only the work profile
changes.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable, Iterable

from repro.core.deadline import Budget, Deadline
from repro.core.result import Match
from repro.core.searcher import Searcher
from repro.distance.banded import check_threshold
from repro.exceptions import DeadlineExceeded, ReproError
from repro.index.automaton import automaton_trie_search
from repro.index.bktree import bktree_from
from repro.index.compressed import CompressedTrie
from repro.index.dawg import Dawg
from repro.index.flat import FlatTrie, flat_similarity_search
from repro.index.qgram_index import QGramIndex
from repro.index.traversal import (
    TraversalStats,
    TrieMatch,
    trie_similarity_search,
)
from repro.index.trie import PrefixTrie
from repro.obs.hist import Histogram
from repro.obs.recorder import QueryExemplar
from repro.obs.registry import NULL
from repro.obs.tracing import trace_span

#: Index configurations; the first two are the paper's, ``flat`` is
#: their compiled form.
INDEX_KINDS = ("trie", "compressed", "flat", "qgram", "dawg", "bktree",
               "automaton")

#: Kinds that support PETER-style frequency pruning.
_FREQUENCY_CAPABLE = ("trie", "compressed", "flat")

#: What every kind's probe returns: its matches and that call's stats.
_Found = tuple[list[TrieMatch], TraversalStats]

#: Counter names this searcher reports (dotted ``trie.*`` namespace of
#: the observability layer; see docs/OBSERVABILITY.md). Cumulative
#: sums of the per-call :class:`TraversalStats` fields.
INDEX_COUNTERS = (
    "trie.searches",
    "trie.nodes_visited",
    "trie.symbols_processed",
    "trie.branches_pruned_by_length",
    "trie.branches_pruned_by_frequency",
    "trie.matches",
)

#: Histogram names this searcher records, once per completed search.
INDEX_HISTOGRAMS = (
    "trie.query_seconds",
    "trie.nodes_per_query",
    "trie.symbols_per_query",
)


class IndexedSearcher(Searcher):
    """Similarity search through a prebuilt index.

    Parameters
    ----------
    dataset:
        Strings to index. Build cost is paid here, in the constructor —
        the paper's timing window covers only query execution, and the
        benchmark harness follows suit.
    index:
        One of :data:`INDEX_KINDS`.
    frequency_pruning:
        Track per-node symbol-count bounds for ``tracked_symbols`` and
        prune branches with them (trie kinds only).
    tracked_symbols:
        Symbols for frequency pruning; required when it is enabled.
    q:
        Gram length for the q-gram index.

    Examples
    --------
    >>> searcher = IndexedSearcher(["Berlin", "Bern", "Ulm"],
    ...                            index="compressed")
    >>> [match.string for match in searcher.search("Berlino", 2)]
    ['Berlin']
    >>> IndexedSearcher(["Berlin"], index="dawg").search("Berlin", 0)
    [Match(string='Berlin', distance=0)]
    """

    def __init__(self, dataset: Iterable[str], *,
                 index: str = "compressed",
                 frequency_pruning: bool = False,
                 tracked_symbols: str | None = None,
                 q: int = 2) -> None:
        if index not in INDEX_KINDS:
            raise ReproError(
                f"unknown index {index!r}; expected one of {INDEX_KINDS}"
            )
        if frequency_pruning and tracked_symbols is None:
            raise ReproError(
                "frequency_pruning requires tracked_symbols "
                "(e.g. 'ACGNT' for DNA, 'AEIOU' for city names)"
            )
        if frequency_pruning and index not in _FREQUENCY_CAPABLE:
            raise ReproError(
                "frequency_pruning applies to trie indexes only "
                f"({', '.join(_FREQUENCY_CAPABLE)}), not {index!r}"
            )
        strings = tuple(dataset)
        self._kind = index
        self._frequency_pruning = frequency_pruning
        self.name = f"indexed[{index}]"
        if frequency_pruning:
            self.name += "+freq"
        self._node_count = 0
        self._flat_trie: FlatTrie | None = None
        # Cumulative work counters (trie.* namespace), flushed once per
        # search under the lock so parallel runners sharing this
        # searcher aggregate correctly.
        self._counters = dict.fromkeys(INDEX_COUNTERS, 0)
        self._hists = {name: Histogram() for name in INDEX_HISTOGRAMS}
        self._counters_lock = threading.Lock()
        self._metrics = NULL
        self._recorder = None
        self._search_fn = self._build(strings, index, frequency_pruning,
                                      tracked_symbols, q)

    def _build(self, strings: tuple[str, ...], index: str,
               frequency_pruning: bool, tracked_symbols: str | None,
               q: int) -> Callable[..., _Found]:
        tracked = tracked_symbols if frequency_pruning else None
        if index in ("trie", "compressed"):
            structure: PrefixTrie | CompressedTrie
            if index == "trie":
                structure = PrefixTrie(strings, tracked_symbols=tracked)
            else:
                structure = CompressedTrie(strings,
                                           tracked_symbols=tracked)
            self._node_count = structure.node_count

            def search(query: str, k: int,
                       deadline=None) -> _Found:
                stats = TraversalStats()
                try:
                    matches = trie_similarity_search(
                        structure, query, k,
                        use_frequency_pruning=frequency_pruning,
                        stats=stats,
                        deadline=deadline,
                    )
                except DeadlineExceeded:
                    self._record(stats)
                    raise
                self._record(stats)
                return matches, stats

            return search
        if index == "flat":
            flat = FlatTrie(strings, compress=True,
                            tracked_symbols=tracked)
            self._flat_trie = flat
            self._node_count = flat.node_count

            def search(query: str, k: int,
                       deadline=None) -> _Found:
                stats = TraversalStats()
                try:
                    matches = flat_similarity_search(
                        flat, query, k,
                        use_frequency_pruning=frequency_pruning,
                        stats=stats,
                        deadline=deadline,
                    )
                except DeadlineExceeded:
                    self._record(stats)
                    raise
                self._record(stats)
                return matches, stats

            return search
        if index == "automaton":
            trie = CompressedTrie(strings)
            self._node_count = trie.node_count

            def search(query: str, k: int,
                       deadline=None) -> _Found:
                self._reject_deadline(deadline)
                stats = TraversalStats()
                matches = automaton_trie_search(trie, query, k,
                                                stats=stats)
                self._record(stats)
                return matches, stats

            return search
        if index == "dawg":
            dawg = Dawg(strings)
            self._node_count = dawg.node_count

            def search(query: str, k: int,
                       deadline=None) -> _Found:
                self._reject_deadline(deadline)
                stats = TraversalStats()
                matches = dawg.search(query, k, stats=stats)
                self._record(stats)
                return matches, stats

            return search
        if index == "bktree":
            tree = bktree_from(list(strings))

            def search(query: str, k: int,
                       deadline=None) -> _Found:
                self._reject_deadline(deadline)
                before = tree.distance_computations
                matches = tree.search(query, k)
                stats = TraversalStats(
                    nodes_visited=tree.distance_computations - before,
                    matches=len(matches),
                )
                self._record(stats)
                return matches, stats

            return search
        qgram = QGramIndex(strings, q=q)

        def search(query: str, k: int,
                   deadline=None) -> _Found:
            self._reject_deadline(deadline)
            matches = qgram.search(query, k)
            stats = TraversalStats(matches=len(matches))
            self._record(stats)
            return matches, stats

        return search

    def _reject_deadline(self, deadline) -> None:
        """Refuse a deadline on index kinds that cannot honor one."""
        if deadline is not None:
            raise ReproError(
                f"index kind {self._kind!r} does not support deadlines; "
                "use one of the trie kinds "
                f"({', '.join(_FREQUENCY_CAPABLE)}) or the sequential/"
                "compiled backends"
            )

    def _record(self, stats: TraversalStats) -> None:
        """Roll one call's traversal stats into the cumulative totals."""
        with self._counters_lock:
            counters = self._counters
            counters["trie.searches"] += 1
            counters["trie.nodes_visited"] += stats.nodes_visited
            counters["trie.symbols_processed"] += stats.symbols_processed
            counters["trie.branches_pruned_by_length"] += \
                stats.branches_pruned_by_length
            counters["trie.branches_pruned_by_frequency"] += \
                stats.branches_pruned_by_frequency
            counters["trie.matches"] += stats.matches

    @property
    def kind(self) -> str:
        """The index variant in use."""
        return self._kind

    @property
    def node_count(self) -> int:
        """States in the underlying tree/automaton (0 where moot)."""
        return self._node_count

    @property
    def flat_trie(self) -> FlatTrie | None:
        """The compiled trie backing ``index="flat"`` (else ``None``).

        Exposed so the engine can put the same compiled structure on
        the batch path (:class:`repro.index.batch.BatchIndexExecutor`)
        without building it twice.
        """
        return self._flat_trie

    def attach_metrics(self, registry) -> None:
        """Attach a :class:`repro.obs.MetricsRegistry` (or ``None``).

        With a registry attached, every :meth:`search` call feeds the
        ``index.search`` timer; the always-on ``trie.*`` work counters
        are independent of this hook (see :meth:`counters_snapshot`).
        """
        self._metrics = registry if registry is not None else NULL

    def counters_snapshot(self) -> dict[str, int]:
        """Cumulative ``trie.*`` work counters since construction.

        Monotonic and thread-safe: callers diff two snapshots to carve
        out one call's work (what :class:`repro.core.engine.SearchEngine`
        does to build a :class:`repro.obs.SearchReport`).
        """
        with self._counters_lock:
            return dict(self._counters)

    def hists_snapshot(self) -> dict[str, Histogram]:
        """Cumulative per-query histograms since construction.

        Same contract as :meth:`counters_snapshot`: monotonic,
        thread-safe, and exact to delta (histogram state is bucketwise
        additive), so the engine carves out one call's distribution.
        """
        with self._counters_lock:
            return {name: hist.copy()
                    for name, hist in self._hists.items()}

    def attach_recorder(self, recorder) -> None:
        """Attach a :class:`repro.obs.FlightRecorder` (or ``None``).

        With a recorder attached, each completed search offers a
        :class:`repro.obs.QueryExemplar` carrying this search's
        traversal profile; the recorder's threshold decides retention.
        """
        self._recorder = recorder

    def _observe_query(self, query: str, k: int, seconds: float,
                       matches: int, stats: TraversalStats) -> None:
        """Record one completed search's histograms and exemplar."""
        nodes = stats.nodes_visited
        symbols = stats.symbols_processed
        with self._counters_lock:
            hists = self._hists
            hists["trie.query_seconds"].record(seconds)
            hists["trie.nodes_per_query"].record(nodes)
            hists["trie.symbols_per_query"].record(symbols)
        recorder = self._recorder
        if recorder is not None and recorder.interested(seconds):
            recorder.record(QueryExemplar(
                query=query, k=k, backend=self.name, seconds=seconds,
                matches=matches, stages={"index.search": seconds},
                counters={
                    "trie.nodes_visited": nodes,
                    "trie.symbols_processed": symbols,
                },
            ))

    def search(self, query: str, k: int, *,
               deadline: Deadline | Budget | None = None) -> list[Match]:
        """All distinct dataset strings within distance ``k`` of ``query``.

        Every kind hands its traversal stats back with its matches,
        so the per-query histograms and the exemplar always describe
        *this* search — never a concurrent one on the same searcher.

        With a ``deadline`` (trie kinds only), an expiring descent
        raises :class:`DeadlineExceeded` whose ``partial`` holds the
        verified :class:`Match` objects found before the cutoff.
        """
        check_threshold(k)
        started = perf_counter()
        try:
            with self._metrics.timer("index.search"), \
                    trace_span("index.search"):
                found, stats = self._search_fn(query, k, deadline)
                matches = [Match(m.string, m.distance) for m in found]
        except DeadlineExceeded as error:
            raise DeadlineExceeded(
                str(error),
                partial=tuple(Match(m.string, m.distance)
                              for m in error.partial),
                scope=error.scope, completed=error.completed,
                total=error.total,
            ) from error
        self._observe_query(query, k, perf_counter() - started,
                            len(matches), stats)
        return matches
