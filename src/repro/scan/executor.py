"""Batch query execution over a compiled corpus.

Where :class:`repro.core.sequential.SequentialScanSearcher` treats every
``search()`` call as an isolated event, :class:`BatchScanExecutor`
treats the *workload* as the unit of work. Dedup, the result memo,
runner fan-out, deadlines and all bookkeeping are the shared
:class:`repro.core.batch.BatchExecutor`; this module supplies the scan
as its probe:

* :func:`scan_query` builds the Myers ``peq`` table and the query's
  frequency vector once per distinct query and reuses them across every
  length bucket in the ``[len(q) - k, len(q) + k]`` window;
* :class:`ScanProbe` can split that bucket window, so a single
  expensive query fans out over a runner too — the compiled corpus is
  built once in the parent and chunk-scanned in workers.

Results are byte-identical to the reference scan by construction (the
kernel is the same Myers recurrence; the filters are the same sound
bounds), and :func:`repro.core.verification.verify_against_reference`
checks exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.batch import DEFAULT_CACHE_SIZE, BatchExecutor
from repro.core.deadline import Budget, Deadline
from repro.core.result import Match
from repro.core.searcher import QueryRunner
from repro.distance.banded import check_threshold
from repro.distance.bitparallel import build_peq
from repro.distance.vectorized import (
    DEFAULT_VECTOR_MIN_BUCKET,
    bucket_distances,
    prepare_query,
)
from repro.exceptions import DeadlineExceeded, ReproError
from repro.scan.corpus import CompiledCorpus

#: Kernel choices ``scan_query`` (and the executors above it) accept.
SCAN_KERNELS = ("auto", "scalar", "vectorized")


def _flush_scan_counters(counters: dict, *, buckets: int, candidates: int,
                         freq_rejects: int, early_aborts: int,
                         matches: int) -> None:
    """Add one scan's work to an open ``scan.*`` counter mapping."""
    get = counters.get
    counters["scan.buckets_scanned"] = get("scan.buckets_scanned", 0) \
        + buckets
    counters["scan.candidates"] = get("scan.candidates", 0) + candidates
    counters["scan.freq_rejects"] = get("scan.freq_rejects", 0) \
        + freq_rejects
    counters["scan.kernel_calls"] = get("scan.kernel_calls", 0) \
        + (candidates - freq_rejects)
    counters["scan.early_aborts"] = get("scan.early_aborts", 0) \
        + early_aborts
    counters["scan.matches"] = get("scan.matches", 0) + matches


def scan_query(corpus: CompiledCorpus, query: str, k: int, *,
               lo: int | None = None, hi: int | None = None,
               use_frequency: bool = True,
               counters: dict | None = None,
               deadline: Deadline | Budget | None = None,
               kernel: str = "auto") -> list[Match]:
    """Scan one query against (a bucket slice of) a compiled corpus.

    The hot loop is the same inlined Myers recurrence as the
    ``bitparallel`` kernel of the sequential searcher, but every
    query-side cost is hoisted: the ``peq`` table is built once from the
    *encoded* query, the length filter is the bucket window itself, and
    the per-candidate frequency bound reads precomputed vectors.

    ``lo``/``hi`` restrict the scan to ``corpus.buckets[lo:hi]`` (they
    are intersected with the query's length window), which is how a
    single query is chunked across workers.

    ``counters`` accepts an open ``scan.*`` counter mapping to add this
    scan's work profile to (buckets/candidates scanned, frequency
    rejects, kernel calls, early aborts, matches). The hot loop only
    maintains local integers; the mapping is touched once at the end.

    ``deadline`` bounds the scan: polled every
    ``deadline.check_interval`` candidates, and on expiry the function
    raises :class:`DeadlineExceeded` carrying the matches proven so far
    (a subset of the exact answer). ``deadline=None`` keeps the hot
    loop byte-identical in behavior to the pre-deadline code.

    ``kernel`` selects the per-bucket distance engine: ``"scalar"``
    (the inlined big-int Myers loop), ``"vectorized"`` (the ``numpy``
    bucket kernel of :mod:`repro.distance.vectorized`), or ``"auto"``
    (default). Auto on a packed bucket always runs the frequency
    prefilter vectorized (a win at any size), then picks the distance
    kernel by how many candidates *survived*: vectorized for at least
    :data:`repro.distance.vectorized.DEFAULT_VECTOR_MIN_BUCKET`
    survivors — where amortizing the interpreter per column pays —
    and the scalar loop below that, where numpy dispatch overhead
    would dominate. Match sets, distances and ``scan.*`` counters are
    identical whichever kernel runs; with a deadline the vectorized
    kernel polls between column blocks instead of between candidates.
    """
    check_threshold(k)
    if kernel not in SCAN_KERNELS:
        raise ReproError(
            f"unknown scan kernel {kernel!r}; expected one of "
            f"{SCAN_KERNELS}"
        )
    window_lo, window_hi = corpus.window(len(query), k)
    if lo is not None:
        window_lo = max(window_lo, lo)
    if hi is not None:
        window_hi = min(window_hi, hi)
    if window_lo >= window_hi:
        if counters is not None:
            _flush_scan_counters(counters, buckets=0, candidates=0,
                                 freq_rejects=0, early_aborts=0, matches=0)
        return []
    buckets = corpus.buckets[window_lo:window_hi]

    encoded = corpus.encode_query(query)
    n = len(encoded)
    matches: list[Match] = []
    candidates = 0
    freq_rejects = 0
    early_aborts = 0

    check_interval = deadline.check_interval if deadline is not None else 0
    countdown = check_interval

    if n == 0:
        # Every bucket in the window has length <= k; the distance to an
        # empty query is the candidate's length.
        for bucket in buckets:
            if check_interval and deadline.spend(len(bucket.strings)):
                matches.sort()
                raise DeadlineExceeded(
                    f"compiled scan for {query!r} (k={k}) exceeded its "
                    f"deadline after {candidates} candidates",
                    partial=tuple(matches), scope="candidates",
                    completed=candidates,
                )
            distance = bucket.length
            candidates += len(bucket.strings)
            matches.extend(Match(s, distance) for s in bucket.strings)
        matches.sort()
        if counters is not None:
            _flush_scan_counters(counters, buckets=len(buckets),
                                 candidates=candidates, freq_rejects=0,
                                 early_aborts=0, matches=len(matches))
        return matches

    peq_get = build_peq(encoded).get
    mask = (1 << n) - 1
    last = 1 << (n - 1)

    tracked_width = len(corpus.tracked)
    check_frequency = use_frequency and tracked_width > 0
    query_vector = corpus.query_frequencies(query) if check_frequency else ()

    vector_query = None  # built lazily, shared by every vectorized bucket

    for bucket in buckets:
        length = bucket.length
        strings = bucket.strings
        frequencies = bucket.frequencies
        candidates += len(strings)

        if kernel == "vectorized" or (
                kernel == "auto" and bucket.packed is not None):
            import numpy as np

            rows = bucket.packed.codes if bucket.packed is not None \
                else np.asarray(bucket.encoded, dtype=np.uint16).reshape(
                    len(strings), length)
            kept = None
            if check_frequency:
                freq = np.asarray(frequencies, dtype=np.int64).reshape(
                    len(strings), tracked_width)
                diff = np.asarray(query_vector, dtype=np.int64) - freq
                positive = diff > 0
                surplus = np.where(positive, diff, 0).sum(axis=1)
                deficit = np.where(positive, 0, -diff).sum(axis=1)
                kept = np.nonzero((surplus <= k) & (deficit <= k))[0]
                rejected = len(strings) - len(kept)
                if rejected:
                    freq_rejects += int(rejected)
                    rows = rows[kept]
                else:
                    kept = None
            try:
                # Charge the freq-rejected candidates too (the scalar
                # loop spends one unit per candidate either way); the
                # kernel then charges its own rows between blocks.
                if deadline is not None and len(rows) < len(strings) \
                        and deadline.spend(len(strings) - len(rows)):
                    raise DeadlineExceeded(
                        f"compiled scan for {query!r} (k={k}) exceeded "
                        f"its deadline between buckets",
                        scope="candidates",
                    )
                if kernel == "auto" and \
                        len(rows) < DEFAULT_VECTOR_MIN_BUCKET:
                    # Too few survivors for the per-column numpy
                    # overhead to pay off: run the scalar kernel over
                    # just the kept rows (the prefilter above already
                    # ran vectorized, which wins at any bucket size).
                    if deadline is not None and len(rows) \
                            and deadline.spend(len(rows)):
                        raise DeadlineExceeded(
                            f"compiled scan for {query!r} (k={k}) "
                            f"exceeded its deadline between buckets",
                            scope="candidates",
                        )
                    for position in range(len(rows)):
                        pv = mask
                        mv = 0
                        score = n
                        remaining = length
                        for code in rows[position]:
                            eq = peq_get(code, 0)
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
                            sid = (position if kept is None
                                   else int(kept[position]))
                            matches.append(Match(strings[sid], score))
                    continue
                if vector_query is None:
                    vector_query = prepare_query(
                        encoded, corpus.alphabet.size)
                scores = bucket_distances(vector_query, rows, k,
                                          deadline=deadline)
            except DeadlineExceeded as error:
                matches.sort()
                if counters is not None:
                    _flush_scan_counters(
                        counters, buckets=len(buckets),
                        candidates=candidates,
                        freq_rejects=freq_rejects,
                        early_aborts=early_aborts,
                        matches=len(matches))
                raise DeadlineExceeded(
                    f"compiled scan for {query!r} (k={k}) exceeded its "
                    f"deadline mid-bucket (vectorized)",
                    partial=tuple(matches), scope="candidates",
                    completed=candidates - len(strings),
                    total=sum(len(b.strings) for b in buckets),
                ) from error
            hits = np.nonzero(scores <= k)[0]
            # Scalar-loop invariant: every non-match trips the abort
            # check (at the last column ``remaining`` is 0), so
            # early_aborts == kernel_calls - matches exactly.
            early_aborts += int(len(scores) - len(hits))
            if kept is None:
                matches.extend(
                    Match(strings[int(i)], int(scores[i])) for i in hits)
            else:
                matches.extend(
                    Match(strings[int(kept[i])], int(scores[i]))
                    for i in hits)
            continue

        for index, codes in enumerate(bucket.code_rows()):
            if countdown:
                countdown -= 1
                if not countdown:
                    countdown = check_interval
                    if deadline.spend(check_interval):
                        matches.sort()
                        if counters is not None:
                            _flush_scan_counters(
                                counters, buckets=len(buckets),
                                candidates=candidates,
                                freq_rejects=freq_rejects,
                                early_aborts=early_aborts,
                                matches=len(matches))
                        raise DeadlineExceeded(
                            f"compiled scan for {query!r} (k={k}) "
                            "exceeded its deadline mid-bucket",
                            partial=tuple(matches), scope="candidates",
                            completed=candidates - len(strings) + index,
                            total=sum(len(b.strings) for b in buckets),
                        )
            if check_frequency:
                # Inlined frequency_lower_bound: the larger of total
                # surplus and total deficit bounds the edit distance.
                surplus = 0
                deficit = 0
                candidate_vector = frequencies[index]
                for position in range(tracked_width):
                    difference = (query_vector[position]
                                  - candidate_vector[position])
                    if difference > 0:
                        surplus += difference
                    else:
                        deficit -= difference
                if surplus > k or deficit > k:
                    freq_rejects += 1
                    continue
            pv = mask
            mv = 0
            score = n
            remaining = length
            for code in codes:
                eq = peq_get(code, 0)
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
                matches.append(Match(strings[index], score))

    matches.sort()
    if counters is not None:
        _flush_scan_counters(counters, buckets=len(buckets),
                             candidates=candidates,
                             freq_rejects=freq_rejects,
                             early_aborts=early_aborts,
                             matches=len(matches))
    return matches


@dataclass(frozen=True)
class ScanProbe:
    """The compiled scan as a :class:`BatchExecutor` probe.

    Per-query histograms are only recorded for whole queries, never
    bucket chunks, so chunked fan-out cannot skew the distribution.
    """

    artifact: CompiledCorpus
    use_frequency: bool = True
    kernel: str = "auto"

    backend = "compiled-scan"
    what = "compiled corpus"
    timer = "scan.query"
    chunk_timer = "scan.chunk"
    histograms = {
        "scan.query_seconds": None,
        "scan.candidates_per_query": "scan.candidates",
        "scan.kernel_calls_per_query": "scan.kernel_calls",
    }

    def run(self, corpus: CompiledCorpus, query: str, k: int, *,
            counters: dict, deadline: Deadline | Budget | None = None,
            scratch: list | None = None,
            chunk: tuple[int | None, int | None] = (None, None)
            ) -> list[Match]:
        lo, hi = chunk
        return scan_query(corpus, query, k, lo=lo, hi=hi,
                          use_frequency=self.use_frequency,
                          counters=counters, deadline=deadline,
                          kernel=self.kernel)

    def chunks(self, corpus: CompiledCorpus, query: str, k: int,
               workers: int) -> list[tuple[int, int]]:
        """The query's bucket window in at most ``workers`` slices."""
        lo, hi = corpus.window(len(query), k)
        count = max(1, min(workers, hi - lo))
        bounds = [lo + (hi - lo) * step // count
                  for step in range(count + 1)]
        return list(zip(bounds, bounds[1:]))


class BatchScanExecutor(BatchExecutor):
    """Answer whole workloads against one :class:`CompiledCorpus`.

    Parameters
    ----------
    corpus:
        The compiled data side (built once, shared by every call).
    runner:
        Optional default :class:`repro.core.searcher.QueryRunner` used
        by :meth:`search_many` (overridable per call).
    cache_size:
        Capacity of the ``(query, k)`` result memo; ``0`` disables it.
    use_frequency:
        Apply the precomputed frequency-vector lower bound before the
        kernel (sound, so results never change).
    kernel:
        Distance-kernel selection forwarded to every
        :func:`scan_query` call — ``"auto"`` (default), ``"scalar"``
        or ``"vectorized"``; see :func:`scan_query`.

    Examples
    --------
    >>> executor = BatchScanExecutor(CompiledCorpus(["Bern", "Bonn", "Ulm"]))
    >>> [m.string for m in executor.search("Bern", 2)]
    ['Bern', 'Bonn']
    >>> results = executor.search_many(["Bern", "Bern", "Ulm"], 1)
    >>> results.total_matches
    3
    >>> executor.stats.deduplicated
    1
    """

    def __init__(self, corpus: CompiledCorpus, *,
                 runner: QueryRunner | None = None,
                 cache_size: int = DEFAULT_CACHE_SIZE,
                 use_frequency: bool = True,
                 kernel: str = "auto") -> None:
        if kernel not in SCAN_KERNELS:
            raise ReproError(
                f"unknown scan kernel {kernel!r}; expected one of "
                f"{SCAN_KERNELS}"
            )
        super().__init__(ScanProbe(corpus, use_frequency, kernel),
                         runner=runner, cache_size=cache_size)

    @property
    def corpus(self) -> CompiledCorpus:
        """The compiled data side."""
        return self._probe.artifact

    @property
    def kernel(self) -> str:
        """The configured kernel selection (``"auto"`` by default)."""
        return self._probe.kernel
