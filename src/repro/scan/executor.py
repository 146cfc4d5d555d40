"""Batch query execution over a compiled corpus.

Where :class:`repro.core.sequential.SequentialScanSearcher` treats every
``search()`` call as an isolated event, :class:`BatchScanExecutor`
treats the *workload* as the unit of work. Dedup, the result memo,
runner fan-out, deadlines and all bookkeeping are the shared
:class:`repro.core.batch.BatchExecutor`; this module supplies the scan
as its probe:

* :func:`scan_query` counts the query's symbol groups once per distinct
  query, selects the bag-distance survivors of the whole
  ``[len(q) - k, len(q) + k]`` window in one pass (and, on a corpus
  with a trigram table, those of them within the q-gram count bound),
  and scores them together;
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
from typing import NoReturn

import numpy as np

from repro.core.batch import DEFAULT_CACHE_SIZE, BatchExecutor
from repro.core.deadline import Budget, Deadline
from repro.core.result import Match
from repro.core.searcher import QueryRunner
from repro.distance.banded import check_threshold
from repro.distance.bitparallel import build_peq, myers_bounded
from repro.distance.vectorized import (
    DEFAULT_VECTOR_MIN_ROWS,
    prepare_query,
    window_distances,
)
from repro.exceptions import DeadlineExceeded
from repro.scan.corpus import QGRAM_LENGTH, CompiledCorpus


def _select(corpus: CompiledCorpus, encoded: tuple[int, ...], k: int,
            start: int, stop: int) -> np.ndarray:
    """Indices, relative to ``start``, of the corpus columns
    ``start:stop`` within the bag-distance bound of the query, and
    within its trigram bound where the corpus counts trigrams.

    With ``n'`` the query's symbols inside the alphabet and ``common``
    the per-group overlap ``sum(min(q_g, c_g))`` — only the query's
    non-zero groups contribute — the groups cover the alphabet, so a
    string of length ``len`` has surplus ``n' - common`` and deficit
    ``len - common``. It survives iff ``common >= max(n', len) - k``;
    folding symbols into groups never increases edit distance, so the
    bound is sound. One pass over the whole slice, however many buckets
    it spans. The survivors then face :func:`_trigram_select`.
    """
    counts = corpus.group_counts
    group_of = corpus.group_of
    query_counts = [0] * len(counts)
    for code in encoded:
        if code >= 0:
            query_counts[group_of[code]] += 1
    present = sum(query_counts)
    # No count exceeds the longest string, which the dtype holds, so
    # capping the query's counts there changes no minimum.
    longest = corpus.max_length
    common = np.zeros(stop - start, dtype=counts.dtype)
    scratch = np.empty_like(common)
    for group, count in enumerate(query_counts):
        if count:
            np.minimum(counts[group, start:stop], min(count, longest),
                       out=scratch)
            common += scratch
    if present > longest:
        # Longer than every corpus string: max(n', len) is n' throughout.
        kept = (common >= present - k).nonzero()[0]
    else:
        # max(n', len) >= len >= common, so the difference cannot wrap.
        np.maximum(corpus.row_lengths[start:stop], present, out=scratch)
        scratch -= common
        kept = (scratch <= k).nonzero()[0]
    if corpus.trigram_counts is None or not len(kept):
        return kept
    return _trigram_select(corpus, encoded, k, start, kept)


def _trigram_select(corpus: CompiledCorpus, encoded: tuple[int, ...],
                    k: int, start: int, kept: np.ndarray) -> np.ndarray:
    """The rows of ``kept`` (relative to ``start``) within the q-gram
    count bound of the query.

    One edit destroys at most ``q`` of a string's q-grams, so strings
    within ``k`` share at least ``max(n, len) - q + 1 - k·q`` of them
    (Ukkonen 1992), ``n`` the full query length. ``common`` is the
    per-group overlap ``sum(min(q_g, c_g))`` of the survivors' gathered
    trigram-group rows; a query trigram holding a symbol outside the
    alphabet occurs in no string and counts for nothing, and folding
    trigrams into groups can only raise ``common``, so the bound is
    sound.
    """
    n = len(encoded)
    lengths = corpus.row_lengths[start + kept]
    slack = QGRAM_LENGTH - 1 + k * QGRAM_LENGTH
    if max(n, int(lengths[-1])) <= slack:
        return kept  # Vacuous: every row needs at most nothing.
    size = corpus.alphabet.size
    group_of = corpus.trigram_group_of
    table = corpus.trigram_counts
    query_counts = [0] * table.shape[1]
    for a, b, c in zip(encoded, encoded[1:], encoded[2:]):
        if a >= 0 and b >= 0 and c >= 0:
            query_counts[group_of[(a * size + b) * size + c]] += 1
    # No row count, nor any row's total, reaches the longest string,
    # which the dtype holds: capping the query changes no minimum, and
    # the sum cannot wrap in the dtype.
    longest = corpus.max_length
    query_counts = np.array([min(count, longest) for count in query_counts],
                            dtype=table.dtype)
    rows = table.take(start + kept, axis=0)
    np.minimum(rows, query_counts, out=rows)
    common = rows.sum(1, dtype=table.dtype)
    needed = lengths.astype(np.int64)
    np.maximum(needed, n, out=needed)
    needed -= slack
    return kept[common >= needed]


def _window_matrix(selected, survivors: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The window's survivor code rows as one ``(longest, survivors)``
    column matrix, longest bucket first, and each row's length."""
    longest = selected[-1][0].length
    columns = np.zeros((longest, survivors), dtype=selected[-1][2].dtype)
    lengths = np.empty(survivors, dtype=np.int64)
    offset = 0
    for bucket, kept, rows in reversed(selected):
        columns[:bucket.length, offset:offset + len(kept)] = rows.T
        lengths[offset:offset + len(kept)] = bucket.length
        offset += len(kept)
    return columns, lengths


def scan_query(corpus: CompiledCorpus, query: str, k: int, *,
               lo: int | None = None, hi: int | None = None,
               counters: dict | None = None,
               deadline: Deadline | Budget | None = None) -> list[Match]:
    """Scan one query against (a bucket slice of) a compiled corpus.

    Every query-side cost is hoisted out of the candidate loop: the
    ``peq`` table is built once from the *encoded* query, the length
    filter is the bucket window itself, and the bag-distance and
    trigram bounds read the precomputed group counts. The window then
    goes through one pipeline:

    1. **select survivors** of the (sound) bag-distance bound — one
       pass over the window's contiguous slice of the corpus's
       group-count matrix (:func:`_select`) — and, where the corpus
       counts trigrams, of the q-gram count bound over their gathered
       trigram rows, split per bucket;
    2. **score survivors**, with one engine for the whole window: one
       :func:`window_distances` pass over every survivor of the window
       when at least
       :data:`repro.distance.vectorized.DEFAULT_VECTOR_MIN_ROWS`
       survived (where paying the interpreter once per column beats
       paying it once per candidate), :func:`myers_bounded` per
       survivor row otherwise;
    3. **emit** the survivors within ``k``.

    The scoring engine follows from the survivor count, so there is
    nothing to configure, and match sets, distances and ``scan.*``
    counters are identical whichever engine runs.

    ``lo``/``hi`` restrict the scan to ``corpus.buckets[lo:hi]`` (they
    are intersected with the query's length window), which is how a
    single query is chunked across workers.

    ``counters`` accepts an open ``scan.*`` counter mapping to add this
    scan's work profile to (buckets/candidates scanned, frequency
    rejects, kernel calls, early aborts, matches). The hot loop only
    maintains local integers; the mapping is touched once on the way
    out, expiry included.

    ``deadline`` bounds the scan at one work unit per candidate. Each
    bucket charges its prefilter rejects as it is selected; the scalar
    engine charges a bucket's survivors before scoring them, and the
    window pass charges its rows between column blocks. On expiry the
    function raises :class:`DeadlineExceeded` carrying the matches
    proven so far (a subset of the exact answer; an expiry inside the
    window pass carries none of the window's rows).
    """
    check_threshold(k)
    window_lo, window_hi = corpus.window(len(query), k)
    if lo is not None:
        window_lo = max(window_lo, lo)
    if hi is not None:
        window_hi = min(window_hi, hi)
    buckets = corpus.buckets[window_lo:window_hi]

    encoded = corpus.encode_query(query)
    n = len(encoded)
    matches: list[Match] = []
    candidates = 0
    freq_rejects = 0
    early_aborts = 0

    def expire(completed: int) -> NoReturn:
        matches.sort()
        raise DeadlineExceeded(
            f"compiled scan for {query!r} (k={k}) exceeded its deadline "
            f"after {completed} candidates",
            partial=tuple(matches), scope="candidates",
            completed=completed,
            total=sum(len(bucket.strings) for bucket in buckets),
        )

    try:
        if not buckets:
            return matches
        if n == 0:
            # Every bucket in the window has length <= k; the distance
            # to an empty query is the candidate's length.
            for bucket in buckets:
                if deadline is not None \
                        and deadline.spend(len(bucket.strings)):
                    expire(candidates)
                candidates += len(bucket.strings)
                matches.extend(Match(string, bucket.length)
                               for string in bucket.strings)
            matches.sort()
            return matches

        # 1. Select: the bound over the whole window at once, then each
        # bucket's survivors, its rejects charged as it is selected.
        bounds = corpus.offsets[window_lo:window_hi + 1]
        kept = _select(corpus, encoded, k, int(bounds[0]), int(bounds[-1]))
        bounds = bounds - bounds[0]
        splits = kept.searchsorted(bounds).tolist()
        bounds = bounds.tolist()
        selected = []
        survivors = 0
        for index, bucket in enumerate(buckets):
            done = candidates - survivors
            candidates += len(bucket.strings)
            rows = kept[splits[index]:splits[index + 1]]
            rejects = len(bucket.strings) - len(rows)
            freq_rejects += rejects
            if deadline is not None and rejects \
                    and deadline.spend(rejects):
                expire(done)
            if len(rows):
                rows = rows - bounds[index]
                codes = bucket.packed.codes
                selected.append((bucket, rows, codes if not rejects
                                 else codes[rows]))
                survivors += len(rows)

        # 2. Score: one engine for the whole window.
        if survivors >= DEFAULT_VECTOR_MIN_ROWS:
            try:
                scores = window_distances(
                    prepare_query(encoded, corpus.alphabet.size),
                    *_window_matrix(selected, survivors), k,
                    deadline=deadline)
            except DeadlineExceeded:
                expire(candidates - survivors)
            offset = 0
            for bucket, kept, _ in reversed(selected):
                chunk = scores[offset:offset + len(kept)]
                offset += len(kept)
                hits = np.nonzero(chunk <= k)[0]
                # The scalar kernel's invariant, kept: every non-match
                # counts as an abort (see myers_bounded).
                early_aborts += len(kept) - len(hits)
                strings = bucket.strings
                matches.extend(
                    Match(strings[index], distance)
                    for index, distance in zip(kept[hits].tolist(),
                                               chunk[hits].tolist()))
        else:
            peq_get = build_peq(encoded).get
            mask = (1 << n) - 1
            last = 1 << (n - 1)
            done = candidates - survivors
            for bucket, kept, rows in selected:
                if deadline is not None and deadline.spend(len(kept)):
                    expire(done)
                done += len(kept)
                strings = bucket.strings
                length = bucket.length
                for index, codes in zip(kept.tolist(), rows):
                    distance = myers_bounded(peq_get, n, mask, last, codes,
                                             length, k)
                    if distance is None:
                        early_aborts += 1
                    else:
                        matches.append(Match(strings[index], distance))

        matches.sort()
        return matches
    finally:
        if counters is not None:
            for name, amount in (
                    ("scan.buckets_scanned", len(buckets)),
                    ("scan.candidates", candidates),
                    ("scan.freq_rejects", freq_rejects),
                    ("scan.kernel_calls", candidates - freq_rejects),
                    ("scan.early_aborts", early_aborts),
                    ("scan.matches", len(matches))):
                counters[name] = counters.get(name, 0) + amount


@dataclass(frozen=True)
class ScanProbe:
    """The compiled scan as a :class:`BatchExecutor` probe.

    Per-query histograms are only recorded for whole queries, never
    bucket chunks, so chunked fan-out cannot skew the distribution.
    """

    artifact: CompiledCorpus

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
            chunk: tuple[int | None, int | None] = (None, None)
            ) -> list[Match]:
        lo, hi = chunk
        return scan_query(corpus, query, k, lo=lo, hi=hi,
                          counters=counters, deadline=deadline)

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
                 cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        super().__init__(ScanProbe(corpus), runner=runner,
                         cache_size=cache_size)

    @property
    def corpus(self) -> CompiledCorpus:
        """The compiled data side."""
        return self._probe.artifact
