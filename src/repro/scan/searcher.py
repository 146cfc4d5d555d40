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

from repro.core.batch import DEFAULT_CACHE_SIZE, BatchSearcher
from repro.core.searcher import QueryRunner
from repro.data.alphabet import Alphabet
from repro.scan.corpus import CompiledCorpus
from repro.scan.executor import BatchScanExecutor


class CompiledScanSearcher(BatchSearcher):
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

    name = "compiled-scan"

    def __init__(self, dataset: Iterable[str] | CompiledCorpus, *,
                 alphabet: Alphabet | None = None,
                 runner: QueryRunner | None = None,
                 cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        if not isinstance(dataset, CompiledCorpus):
            dataset = CompiledCorpus(dataset, alphabet=alphabet)
        self._executor = BatchScanExecutor(
            dataset, runner=runner, cache_size=cache_size,
        )

    # Re-bound here because benchmarks/e2e traces them by these names
    # (spans ``scan.search`` and ``scan.search_many``).
    search = BatchSearcher.search
    search_many = BatchSearcher.search_many

    @property
    def corpus(self) -> CompiledCorpus:
        """The compiled data side."""
        return self._executor.corpus

    @property
    def dataset(self) -> tuple[str, ...]:
        """The distinct searched strings (compile order)."""
        return self._executor.corpus.strings
