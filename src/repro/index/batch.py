"""Batch query execution over a compiled flat trie.

The index side of the batch path: :class:`BatchIndexExecutor` is the
shared :class:`repro.core.batch.BatchExecutor` — dedup, result memo,
runner fan-out, deadlines, bookkeeping — probing a
:class:`repro.index.flat.FlatTrie`:

* :func:`probe_query` descends the trie once per distinct ``(query,
  k)`` pair, however often it repeats, and a serial batch sends all
  its distinct misses down one shared descent
  (:meth:`TrieProbe.run_many`);
* distinct queries fan out over any :mod:`repro.parallel` runner; the
  flat trie is a handful of numpy arrays, so a process pool ships it
  once per chunk (or maps its segment file).

Results are identical to the object-trie traversal and to the
reference scan by construction (same DP, same sound pruning), and
:func:`repro.core.verification.verify_against_reference` gates exactly
that before any benchmark timing counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.batch import (
    DEFAULT_CACHE_SIZE,
    BatchExecutor,
    BatchSearcher,
)
from repro.core.deadline import Budget, Deadline
from repro.core.result import Match
from repro.core.searcher import QueryRunner
from repro.data.alphabet import Alphabet
from repro.exceptions import DeadlineExceeded
from repro.index.flat import (
    FlatTrie,
    flat_similarity_search,
    flat_similarity_search_many,
)
from repro.index.traversal import (
    INDEX_COUNTERS,
    TraversalStats,
    add_trie_counters,
)


def probe_query(flat: FlatTrie, query: str, k: int, *,
                counters: dict | None = None,
                deadline: Deadline | Budget | None = None) -> list[Match]:
    """One query's matches through the compiled trie, as core matches.

    The flat trie collapses duplicates into terminal multiplicities, so
    rows already list distinct strings — the searcher contract.

    ``counters`` accepts an open ``trie.*`` counter mapping to add this
    descent's work profile to (nodes visited, symbols processed, band
    and frequency prunes, matches); the traversal collects into a
    throwaway :class:`TraversalStats` which is folded in once at the
    end.
    """
    stats = TraversalStats() if counters is not None else None
    try:
        matches = [
            Match(m.string, m.distance)
            for m in flat_similarity_search(
                flat, query, k,
                stats=stats,
                deadline=deadline,
            )
        ]
    except DeadlineExceeded as error:
        # Re-surface the partial in the core Match currency every
        # batch layer speaks.
        raise DeadlineExceeded(
            str(error),
            partial=tuple(Match(m.string, m.distance)
                          for m in error.partial),
            scope=error.scope, completed=error.completed,
            total=error.total,
        ) from error
    finally:
        if counters is not None:
            add_trie_counters(counters, stats)
    return matches


@dataclass(frozen=True)
class TrieProbe:
    """The flat-trie descent as a :class:`BatchExecutor` probe."""

    artifact: FlatTrie

    backend = "flat-index"
    what = "flat trie"
    timer = "index.probe"
    counters = INDEX_COUNTERS
    histograms = {
        "trie.query_seconds": None,
        "trie.nodes_per_query": "trie.nodes_visited",
        "trie.symbols_per_query": "trie.symbols_processed",
    }

    #: The counter ``run_many`` splits a call's wall time by.
    weight = "trie.symbols_processed"

    def run(self, flat: FlatTrie, query: str, k: int, *,
            counters: dict, deadline: Deadline | Budget | None = None
            ) -> list[Match]:
        return probe_query(flat, query, k, counters=counters,
                           deadline=deadline)

    def run_many(self, flat: FlatTrie, queries: list[str], k: int
                 ) -> list[tuple[list[Match], dict]]:
        """Every query's ``(matches, counters)`` from one descent."""
        stats = [TraversalStats() for _ in queries]
        answers = []
        for found, traversal in zip(
                flat_similarity_search_many(flat, queries, k, stats=stats),
                stats):
            counters: dict = {}
            add_trie_counters(counters, traversal)
            answers.append(([Match(m.string, m.distance) for m in found],
                            counters))
        return answers


class BatchIndexExecutor(BatchExecutor):
    """Answer whole workloads against one :class:`FlatTrie`.

    Parameters
    ----------
    flat:
        The compiled index (built once, shared by every call).
    runner:
        Optional default :class:`repro.core.searcher.QueryRunner` used
        by :meth:`search_many` (overridable per call).
    cache_size:
        Capacity of the ``(query, k)`` result memo; ``0`` disables it.

    Examples
    --------
    >>> executor = BatchIndexExecutor(FlatTrie(["Bern", "Bonn", "Ulm"]))
    >>> [m.string for m in executor.search("Bern", 2)]
    ['Bern', 'Bonn']
    >>> results = executor.search_many(["Bern", "Bern", "Ulm"], 1)
    >>> results.total_matches
    3
    >>> executor.stats.deduplicated
    1
    """

    def __init__(self, flat: FlatTrie, *,
                 runner: QueryRunner | None = None,
                 cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        super().__init__(TrieProbe(flat), runner=runner,
                         cache_size=cache_size)

    # Re-bound here because benchmarks/e2e traces it as
    # ``BatchIndexExecutor.search_many`` (span ``index.search_many``).
    search_many = BatchExecutor.search_many

    @property
    def flat(self) -> FlatTrie:
        """The compiled index."""
        return self._probe.artifact


class FlatIndexSearcher(BatchSearcher):
    """The Searcher adapter over the batch index engine.

    Drop-in sibling of :class:`repro.scan.searcher.CompiledScanSearcher`
    on the index side, and the searcher serving the ``indexed``
    strategy everywhere (see :data:`repro.core.searcher.BACKENDS`). A
    differently built trie is passed in prebuilt.

    Examples
    --------
    >>> searcher = FlatIndexSearcher(["Berlin", "Bern", "Ulm"])
    >>> [match.string for match in searcher.search("Berlino", 2)]
    ['Berlin']
    """

    name = "flat-index"

    def __init__(self, dataset: Iterable[str] | FlatTrie, *,
                 alphabet: Alphabet | None = None,
                 runner: QueryRunner | None = None,
                 cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        if not isinstance(dataset, FlatTrie):
            dataset = FlatTrie(dataset, alphabet=alphabet)
        self._executor = BatchIndexExecutor(
            dataset, runner=runner, cache_size=cache_size,
        )

    @property
    def flat_trie(self) -> FlatTrie:
        """The compiled index."""
        return self._executor.flat

    @property
    def dataset(self) -> tuple[str, ...]:
        """The distinct indexed strings (lexicographic order)."""
        return self._executor.flat.strings
