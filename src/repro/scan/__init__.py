"""Compiled-corpus batch execution (the amortization layer).

The paper's sequential scan wins by driving *per-candidate* work to the
floor; this package drives *per-query* and *per-workload* work to the
floor as well. The competition workloads run hundreds of queries against
one immutable dataset, so everything that depends only on the data side
— symbol encoding, length bucketing, frequency vectors — is computed
exactly once in :class:`CompiledCorpus`, and everything that depends
only on the query side — the Myers ``peq`` table, the length window,
the query's symbol-group counts — is computed exactly once per
*distinct* query by :func:`scan_query` and shared across every bucket
it probes.

Layers
------
:class:`CompiledCorpus`
    The data side, preprocessed once: interned strings, length buckets
    with sorted offsets (equation 5's length filter becomes one binary
    search instead of a per-candidate branch), and per bucket a
    ``numpy`` matrix of dense symbol codes over an
    :class:`repro.data.alphabet.Alphabet`, plus one symbol-group count
    matrix for the bag-distance prefilter and, on alphabets of at most
    16 symbols, one trigram-group count matrix for the q-gram count
    prefilter.
:func:`scan_query` / :class:`ScanProbe`
    One query against (a bucket slice of) the corpus — the scan as a
    probe of the shared batch core.
:class:`BatchScanExecutor`
    :class:`repro.core.batch.BatchExecutor` with the scan probe built
    in: the core deduplicates identical queries, memoizes recent
    results in a bounded :class:`LRUCache`, fans work out across any
    :mod:`repro.parallel` runner and keeps the books; the same core
    runs the flat trie in :mod:`repro.index.batch`.
:class:`CompiledScanSearcher`
    The :class:`repro.core.searcher.Searcher` adapter, so the compiled
    path plugs into :class:`repro.core.engine.SearchEngine`, workload
    execution and result verification unchanged.
"""

from repro.core.batch import BatchStats
from repro.core.cache import LRUCache
from repro.scan.corpus import CompiledCorpus, LengthBucket
from repro.scan.executor import BatchScanExecutor, ScanProbe, scan_query
from repro.scan.searcher import CompiledScanSearcher

__all__ = [
    "BatchScanExecutor",
    "BatchStats",
    "CompiledCorpus",
    "CompiledScanSearcher",
    "LRUCache",
    "LengthBucket",
    "ScanProbe",
    "scan_query",
]
