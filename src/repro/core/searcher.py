"""The searcher interface both solutions implement.

A searcher answers single queries (``search``) and whole workloads
(``run_workload``); the workload path accepts a pluggable runner so
every parallelism strategy of :mod:`repro.parallel` applies uniformly
to the sequential and the index-based solution — exactly how the paper
reuses its parallelism machinery across chapters 3 and 4.

:data:`BACKENDS` is the one place that says which searcher serves a
planner strategy, and on which rung of the service ladder: the engine,
the shards and the ladder all build through it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, Sequence

from repro.core.result import Match, ResultSet
from repro.data.workload import Workload


class QueryRunner(Protocol):
    """Anything that can map a function over queries (see executors)."""

    name: str

    def run(self, function, queries: Sequence[str]) -> list:  # pragma: no cover - protocol
        ...


class Searcher(abc.ABC):
    """Base class for similarity searchers."""

    #: Name used in stage tables and reports.
    name: str = "searcher"

    @abc.abstractmethod
    def search(self, query: str, k: int) -> list[Match]:
        """All dataset strings within distance ``k``, sorted by string.

        Distinct strings only — multiplicities are an index-level
        concern; the competition result format lists each string once.
        """

    def run_workload(self, workload: Workload,
                     runner: QueryRunner | None = None) -> ResultSet:
        """Execute a workload, optionally through a parallel runner.

        The runner may reorder *execution*, never *results*: rows come
        back in workload order regardless of strategy, which is what
        makes result sets comparable across all configurations.
        """
        k = workload.k
        queries = list(workload.queries)
        if runner is None:
            rows = [self.search(query, k) for query in queries]
        else:
            rows = runner.run(lambda query: self.search(query, k), queries)
        return ResultSet(queries, rows)


@dataclass(frozen=True)
class Backend:
    """How one planner strategy is served: its service-ladder rung
    (the shard plan kind) and ``build(dataset, *, segment=None)``, its
    searcher's constructor. Only the compiled scan reads ``segment``,
    a corpus segment file (see :mod:`repro.speed`) it mmap-loads."""

    rung: str
    build: Callable[..., Searcher]


def _build_flat_index(dataset: Iterable[str], *,
                      segment: str | None = None) -> Searcher:
    from repro.index.batch import FlatIndexSearcher

    return FlatIndexSearcher(dataset)


def _build_compiled_scan(dataset: Iterable[str], *,
                         segment: str | None = None) -> Searcher:
    from repro.scan.searcher import CompiledScanSearcher

    if segment is not None:
        from repro.speed import load_or_build_corpus_segment

        return CompiledScanSearcher(
            load_or_build_corpus_segment(dataset, segment))
    # A frozen repro.live.Corpus already paid the compile; share it.
    compiled = getattr(dataset, "compiled_corpus", None)
    return CompiledScanSearcher(dataset if compiled is None else compiled)


def _build_sequential_scan(dataset: Iterable[str], *,
                           segment: str | None = None) -> Searcher:
    from repro.core.sequential import SequentialScanSearcher

    return SequentialScanSearcher(dataset, kernel="bitparallel",
                                  order="length")


#: Planner strategy (:data:`repro.core.planner.STRATEGIES`) -> the
#: backend serving it, in service-ladder order. ``indexed`` is served
#: by the flat-trie batch searcher and ``compiled`` by the compiled
#: scan: the two classes :func:`repro.core.planner.calibrate` times.
BACKENDS = {
    "indexed": Backend("flat", _build_flat_index),
    "compiled": Backend("compiled", _build_compiled_scan),
    "sequential": Backend("sequential", _build_sequential_scan),
}
