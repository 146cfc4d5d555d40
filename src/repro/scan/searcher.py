"""The Searcher adapter over the compiled-corpus batch engine.

:class:`CompiledScanSearcher` makes the amortization layer a drop-in
sibling of :class:`repro.core.sequential.SequentialScanSearcher`: same
constructor shape, same :meth:`search`/:meth:`run_workload` contract,
same result sets — verified identical by
:func:`repro.core.verification.verify_against_reference` — so the
engine, the CLI and the benchmark harness can switch a workload onto
the batch path without touching anything downstream.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.batch import DEFAULT_CACHE_SIZE
from repro.core.result import Match, ResultSet
from repro.core.searcher import QueryRunner, Searcher
from repro.data.alphabet import Alphabet
from repro.data.workload import Workload
from repro.scan.corpus import CompiledCorpus
from repro.scan.executor import BatchScanExecutor


class CompiledScanSearcher(Searcher):
    """Sequential scan over a corpus compiled once, batch-amortized.

    Parameters
    ----------
    dataset:
        The strings to search, or an already-built
        :class:`CompiledCorpus` (shared compilation).
    alphabet:
        Optional alphabet for encoding (inferred when omitted).
    runner:
        Default parallel runner for workload execution.
    cache_size:
        Result-memo capacity (``0`` disables memoization).

    Examples
    --------
    >>> searcher = CompiledScanSearcher(["Berlin", "Bern", "Ulm"])
    >>> [match.string for match in searcher.search("Berlino", 2)]
    ['Berlin']
    """

    def __init__(self, dataset: Iterable[str] | CompiledCorpus, *,
                 alphabet: Alphabet | None = None,
                 runner: QueryRunner | None = None,
                 cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        if isinstance(dataset, CompiledCorpus):
            self._corpus = dataset
        else:
            self._corpus = CompiledCorpus(dataset, alphabet=alphabet)
        self._executor = BatchScanExecutor(
            self._corpus, runner=runner, cache_size=cache_size,
        )
        self.name = "compiled-scan"

    @property
    def corpus(self) -> CompiledCorpus:
        """The compiled data side."""
        return self._corpus

    @property
    def executor(self) -> BatchScanExecutor:
        """The batch engine answering queries."""
        return self._executor

    def attach_metrics(self, registry) -> None:
        """Forward a metrics registry to the underlying executor."""
        self._executor.attach_metrics(registry)

    def counters_snapshot(self) -> dict[str, int]:
        """Cumulative ``scan.*`` counters of the underlying executor."""
        return self._executor.counters_snapshot()

    def hists_snapshot(self):
        """Cumulative per-query histograms of the underlying executor."""
        return self._executor.hists_snapshot()

    def attach_recorder(self, recorder) -> None:
        """Forward a flight recorder to the underlying executor."""
        self._executor.attach_recorder(recorder)

    @property
    def dataset(self) -> tuple[str, ...]:
        """The distinct searched strings (compile order)."""
        return self._corpus.strings

    def search(self, query: str, k: int, *, deadline=None) -> list[Match]:
        """All distinct dataset strings within distance ``k``."""
        return self._executor.search(query, k, deadline=deadline)

    def search_many(self, queries, k: int, *,
                    runner: QueryRunner | None = None,
                    deadline=None) -> ResultSet:
        """Batch entry point (see :meth:`BatchScanExecutor.search_many`)."""
        return self._executor.search_many(queries, k, runner=runner,
                                          deadline=deadline)

    def run_workload(self, workload: Workload,
                     runner: QueryRunner | None = None) -> ResultSet:
        """Execute a workload through the batch path.

        Unlike the base implementation this deduplicates queries and
        reuses the memo — rows still come back one per input query, in
        workload order, so result sets stay comparable.
        """
        return self._executor.search_many(
            list(workload.queries), workload.k, runner=runner
        )
