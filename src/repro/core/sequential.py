"""The sequential solution (paper section 3), every stage configurable.

The paper improves one scan loop six times; here each improvement is a
constructor knob, so any rung of the ladder — and any combination the
paper did not try — can be instantiated and measured:

===================  =====================================================
Paper stage          Configuration
===================  =====================================================
1 base               ``kernel="reference"``
2 edit distance      ``kernel="banded"`` (length filter + band + abort)
3 value/reference    ``kernel="banded-reused"`` (preallocated row buffers)
4 simple data types  ``kernel="bitparallel"`` (Myers over integer words)
5 parallelism        pass a :class:`ThreadPerQueryRunner` to the workload
6 managed            pass a pool/adaptive runner to the workload
===================  =====================================================

Future-work knobs (section 6): ``order="length"`` presorts the dataset
and restricts each scan to the ``[len(q) - k, len(q) + k]`` window via
binary search; ``prefilter`` accepts any filter chain (frequency
vectors, q-gram counts) applied before the kernel.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import Iterable, Sequence

from repro.core.deadline import Budget, Deadline
from repro.core.result import Match
from repro.core.searcher import Searcher
from repro.distance.banded import (
    BandedCalculator,
    check_threshold,
    edit_distance_bounded,
)
from repro.distance.bitparallel import build_peq
from repro.distance.dispatch import bounded_distance
from repro.distance.levenshtein import edit_distance
from repro.exceptions import DeadlineExceeded, ReproError
from repro.filters.base import FilterChain
from repro.obs.hist import Histogram
from repro.obs.recorder import QueryExemplar
from repro.obs.registry import NULL
from repro.obs.tracing import trace_span

#: Kernel configurations in paper-ladder order.
KERNELS = (
    "reference",
    "banded",
    "banded-reused",
    "bitparallel",
    "dispatch",
)

#: How many per-query ``peq`` tables the bitparallel kernel retains.
#: Workloads repeat queries (section 5.2 runs nested prefix batches), so
#: rebuilding the table per ``search()`` call was pure waste.
PEQ_CACHE_SIZE = 256

#: Counter names this searcher reports (dotted ``scan.*`` namespace of
#: the observability layer; see docs/OBSERVABILITY.md).
SCAN_COUNTERS = (
    "scan.searches",
    "scan.candidates",
    "scan.length_rejects",
    "scan.prefilter_rejects",
    "scan.kernel_calls",
    "scan.early_aborts",
    "scan.matches",
)

#: Histogram names this searcher records (same always-on discipline as
#: the counters: one flush per search under the counters lock).
SCAN_HISTOGRAMS = (
    "scan.query_seconds",
    "scan.candidates_per_query",
    "scan.kernel_calls_per_query",
)


class SequentialScanSearcher(Searcher):
    """Scan the whole dataset per query, with staged optimizations.

    Parameters
    ----------
    dataset:
        The strings to search (order preserved; duplicates legal).
    kernel:
        One of :data:`KERNELS`; see the module docstring ladder.
    order:
        ``None`` scans in dataset order; ``"length"`` presorts by length
        and scans only the window the length filter allows (future-work
        "sorting" item).
    prefilter:
        Optional :class:`FilterChain` applied before the kernel.
        Filters must be sound (no false negatives) for results to stay
        identical — every filter in :mod:`repro.filters` is.

    Examples
    --------
    >>> searcher = SequentialScanSearcher(["Berlin", "Bern", "Ulm"])
    >>> [match.string for match in searcher.search("Berlino", 2)]
    ['Berlin']
    """

    def __init__(self, dataset: Iterable[str], *,
                 kernel: str = "dispatch",
                 order: str | None = None,
                 prefilter: FilterChain | None = None) -> None:
        if kernel not in KERNELS:
            raise ReproError(
                f"unknown kernel {kernel!r}; expected one of {KERNELS}"
            )
        if order not in (None, "length"):
            raise ReproError(
                f"unknown order {order!r}; expected None or 'length'"
            )
        self._dataset = tuple(dataset)
        for index, string in enumerate(self._dataset):
            if not string:
                raise ReproError(
                    f"dataset string at index {index} is empty"
                )
        self._kernel = kernel
        self._order = order
        self._prefilter = prefilter
        self.name = f"sequential[{kernel}]"
        if order:
            self.name += f"+sort({order})"

        max_length = max((len(s) for s in self._dataset), default=1)
        self._max_length = max_length
        # Stage 3's reusable buffers are per-thread: parallel runners
        # share the searcher, and DP rows must never be shared.
        self._local = threading.local()
        # Query → peq table for the bitparallel kernel. Tables are
        # read-only after construction, so sharing across threads is
        # safe; a race at worst rebuilds one table.
        self._peq_cache: dict[str, dict[str, int]] = {}
        # Cumulative work counters (scan.* namespace). Kernels count in
        # locals and flush once per search under the lock, so parallel
        # runners sharing this searcher aggregate correctly.
        self._counters = dict.fromkeys(SCAN_COUNTERS, 0)
        # Per-query latency/size distributions, flushed with the
        # counters so one lock round-trip covers both.
        self._hists = {name: Histogram() for name in SCAN_HISTOGRAMS}
        self._counters_lock = threading.Lock()
        self._metrics = NULL
        self._recorder = None

        if order == "length":
            self._sorted = sorted(self._dataset, key=len)
            self._sorted_lengths = [len(s) for s in self._sorted]
        else:
            self._sorted = None
            self._sorted_lengths = None

    @property
    def dataset(self) -> tuple[str, ...]:
        """The searched strings."""
        return self._dataset

    @property
    def kernel(self) -> str:
        """The configured kernel name."""
        return self._kernel

    def _candidates(self, query: str, k: int) -> Sequence[str]:
        """The strings the scan visits (all, or the length window)."""
        if self._sorted is None:
            return self._dataset
        assert self._sorted_lengths is not None
        lo = bisect_left(self._sorted_lengths, len(query) - k)
        hi = bisect_right(self._sorted_lengths, len(query) + k)
        return self._sorted[lo:hi]

    def _query_peq(self, query: str) -> dict[str, int]:
        """The query's Myers ``peq`` table, built once per distinct query."""
        peq = self._peq_cache.get(query)
        if peq is None:
            peq = build_peq(query)
            if len(self._peq_cache) >= PEQ_CACHE_SIZE:
                self._peq_cache.clear()
            self._peq_cache[query] = peq
        return peq

    def _calculator(self) -> BandedCalculator:
        calculator = getattr(self._local, "calculator", None)
        if calculator is None:
            calculator = BandedCalculator(max_length=self._max_length)
            self._local.calculator = calculator
        return calculator

    def _bounded_kernel(self):
        """This searcher's ``(query, candidate, k) -> int | None``."""
        if self._kernel == "reference":
            return _reference_bounded
        if self._kernel == "banded":
            return edit_distance_bounded
        if self._kernel == "banded-reused":
            return self._calculator().distance
        return bounded_distance

    def attach_metrics(self, registry) -> None:
        """Attach a :class:`repro.obs.MetricsRegistry` (or ``None``).

        With a registry attached, every :meth:`search` call feeds the
        ``scan.search`` timer; the always-on ``scan.*`` work counters
        are independent of this hook (see :meth:`counters_snapshot`).
        """
        self._metrics = registry if registry is not None else NULL

    def attach_recorder(self, recorder) -> None:
        """Attach a :class:`repro.obs.FlightRecorder` (or ``None``).

        With a recorder attached, each completed search offers a
        :class:`repro.obs.QueryExemplar` carrying its per-query work
        counters; the recorder's threshold decides what is kept.
        """
        self._recorder = recorder

    def counters_snapshot(self) -> dict[str, int]:
        """Cumulative ``scan.*`` work counters since construction.

        Monotonic and thread-safe: callers diff two snapshots to carve
        out one call's work (what :class:`repro.core.engine.SearchEngine`
        does to build a :class:`repro.obs.SearchReport`).
        """
        with self._counters_lock:
            return dict(self._counters)

    def hists_snapshot(self) -> dict[str, Histogram]:
        """Cumulative per-query histograms since construction.

        Same contract as :meth:`counters_snapshot`: monotonic and
        thread-safe, and two snapshots delta exactly (histogram state
        is bucketwise additive), so the engine can carve out one
        call's latency/size distribution for its report.
        """
        with self._counters_lock:
            return {name: hist.copy()
                    for name, hist in self._hists.items()}

    def _flush_counters(self, query: str, k: int, started: float,
                        candidates: int, length_rejects: int,
                        prefilter_rejects: int, kernel_calls: int,
                        early_aborts: int, matches: int) -> None:
        seconds = perf_counter() - started
        with self._counters_lock:
            counters = self._counters
            counters["scan.searches"] += 1
            counters["scan.candidates"] += candidates
            counters["scan.length_rejects"] += length_rejects
            counters["scan.prefilter_rejects"] += prefilter_rejects
            counters["scan.kernel_calls"] += kernel_calls
            counters["scan.early_aborts"] += early_aborts
            counters["scan.matches"] += matches
            hists = self._hists
            hists["scan.query_seconds"].record(seconds)
            hists["scan.candidates_per_query"].record(candidates)
            hists["scan.kernel_calls_per_query"].record(kernel_calls)
        recorder = self._recorder
        if recorder is not None and recorder.interested(seconds):
            recorder.record(QueryExemplar(
                query=query, k=k, backend=self.name, seconds=seconds,
                matches=matches, stages={"scan.search": seconds},
                counters={
                    "scan.candidates": candidates,
                    "scan.length_rejects": length_rejects,
                    "scan.prefilter_rejects": prefilter_rejects,
                    "scan.kernel_calls": kernel_calls,
                    "scan.early_aborts": early_aborts,
                },
            ))

    def search(self, query: str, k: int, *,
               deadline: Deadline | Budget | None = None) -> list[Match]:
        """All distinct dataset strings within distance ``k`` of ``query``.

        With a ``deadline`` set, the scan polls it every
        ``deadline.check_interval`` candidates and raises
        :class:`DeadlineExceeded` carrying the matches proven so far
        (a subset of the exact answer). With ``deadline=None`` the code
        path is byte-identical to before deadlines existed.
        """
        with self._metrics.timer("scan.search"), trace_span("scan.search"):
            return self._search_impl(query, k, deadline)

    def _search_impl(self, query: str, k: int,
                     deadline: Deadline | Budget | None = None
                     ) -> list[Match]:
        started = perf_counter()
        check_threshold(k)
        candidates = self._candidates(query, k)
        candidate_count = len(candidates)
        found: dict[str, int] = {}
        if deadline is not None:
            # Deadline runs go through a checking generator: zero cost
            # on the deadline-free path, one poll per check_interval
            # candidates otherwise. The generator closes over ``found``
            # so the exception can carry everything proven so far.
            candidates = _checked_candidates(candidates, deadline,
                                             found, query, k)
        prefilter = self._prefilter
        if prefilter is not None:
            prefilter.prepare_query(query)

        # Work counters, kept in locals through the hot loops and
        # flushed once at the end: with ``order="length"`` the strings
        # the window never visits are length-filter rejects too.
        length_rejects = (len(self._dataset) - candidate_count
                          if self._sorted is not None else 0)
        prefilter_rejects = 0
        kernel_calls = 0
        early_aborts = 0

        kernel = self._kernel
        if kernel == "bitparallel":
            # The paper's "simple data types and program methods" stage
            # re-implements the hot path by hand; the Python analog is
            # inlining Myers' scan loop here — no per-candidate method
            # dispatch, the length filter as plain arithmetic, and an
            # early abort once the running score cannot recover.
            peq_get = self._query_peq(query).get
            n = len(query)
            if n == 0:
                for candidate in candidates:
                    if len(candidate) <= k:
                        found.setdefault(candidate, len(candidate))
                    else:
                        length_rejects += 1
                self._flush_counters(query, k, started,
                                     candidate_count, length_rejects,
                                     0, 0, 0, len(found))
                return sorted(
                    (Match(s, d) for s, d in found.items())
                )
            mask = (1 << n) - 1
            last = 1 << (n - 1)
            for candidate in candidates:
                length = len(candidate)
                gap = length - n
                if candidate in found:
                    continue
                if gap > k or -gap > k:
                    length_rejects += 1
                    continue
                if prefilter and not prefilter.admits(query, candidate, k):
                    prefilter_rejects += 1
                    continue
                kernel_calls += 1
                pv = mask
                mv = 0
                score = n
                remaining = length
                for symbol in candidate:
                    eq = peq_get(symbol, 0)
                    xv = eq | mv
                    xh = (((eq & pv) + pv) ^ pv) | eq
                    ph = mv | (~(xh | pv) & mask)
                    mh = pv & xh
                    if ph & last:
                        score += 1
                    elif mh & last:
                        score -= 1
                    remaining -= 1
                    if score - remaining > k:
                        score = k + 1
                        early_aborts += 1
                        break
                    ph = ((ph << 1) | 1) & mask
                    mh = (mh << 1) & mask
                    pv = mh | (~(xv | ph) & mask)
                    mv = ph & xv
                if score <= k:
                    found[candidate] = score
        else:
            # Stages 1-3 and the dispatcher differ only in the distance
            # call, so they share this loop.
            bounded = self._bounded_kernel()
            for candidate in candidates:
                if candidate in found:
                    continue
                if prefilter and not prefilter.admits(query, candidate, k):
                    prefilter_rejects += 1
                    continue
                kernel_calls += 1
                distance = bounded(query, candidate, k)
                if distance is not None:
                    found[candidate] = distance
                else:
                    early_aborts += 1
            if kernel == "reference":
                # The plain DP fills its whole matrix: a non-match is
                # not an abort.
                early_aborts = 0

        self._flush_counters(query, k, started,
                             candidate_count, length_rejects,
                             prefilter_rejects, kernel_calls,
                             early_aborts, len(found))
        return sorted(
            (Match(string, distance) for string, distance in found.items())
        )


def _reference_bounded(query: str, candidate: str, k: int) -> int | None:
    """Stage 1: the full DP matrix, thresholded afterwards."""
    distance = edit_distance(query, candidate)
    return distance if distance <= k else None


def _checked_candidates(candidates: Sequence[str],
                        deadline: Deadline | Budget,
                        found: dict[str, int], query: str, k: int):
    """Yield candidates, polling the deadline every ``check_interval``.

    On expiry raises :class:`DeadlineExceeded` carrying the matches the
    enclosing scan had fully verified by then (``found`` is the scan's
    live result dict, mutated in place as the kernel proves matches).
    """
    interval = deadline.check_interval
    countdown = interval
    total = len(candidates)
    scanned = 0
    for candidate in candidates:
        yield candidate
        scanned += 1
        countdown -= 1
        if not countdown:
            countdown = interval
            if deadline.spend(interval):
                raise DeadlineExceeded(
                    f"sequential scan for {query!r} (k={k}) exceeded "
                    f"its deadline after {scanned} of {total} "
                    "candidates",
                    partial=tuple(sorted(
                        Match(string, distance)
                        for string, distance in found.items()
                    )),
                    scope="candidates",
                    completed=scanned,
                    total=total,
                )
