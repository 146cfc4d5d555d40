"""One batch executor core, parameterised by a probe.

:class:`BatchExecutor` treats the *workload* as the unit of work,
whatever algorithm answers a single query:

* identical queries are deduplicated — each distinct ``(query, k)``
  pair is probed once per batch, however often it repeats;
* finished rows live in a bounded :class:`repro.core.cache.LRUCache`,
  so repeats *across* batches are lookups too;
* distinct queries fan out over any :mod:`repro.parallel` runner, and a
  single expensive query fans its chunks out instead when the probe can
  split it;
* a deadline bounds a batch serially, so the abort point is
  well-defined and the partial maps each completed query to its full
  row;
* every executed probe's work counters, per-query histograms, timer
  observation and trace span — including ones measured in worker
  processes — fold into one cumulative state under one lock.

The algorithm lives in a **probe**: a small frozen dataclass (it ships
to pool workers inside the task, re-created by
:func:`dataclasses.replace` with a segment reference for an artifact
that workers can mmap) with

``artifact``
    the compiled data side (``segment_path`` set when workers can mmap
    it instead of unpickling it);
``backend`` / ``timer`` / ``what``
    the exemplar backend name (``"compiled-scan"``), the timer and span
    name of one probe (``"scan.query"``) and the artifact's name in
    messages (``"compiled corpus"``);
``histograms``
    per-query histogram name → the counter it records (``None`` for
    the probe's seconds);
``run(artifact, query, k, *, counters, deadline=None)``
    one query's sorted matches, adding its work to ``counters`` and
    raising :class:`DeadlineExceeded` with the proven partial on
    expiry;
``chunks(artifact, query, k, workers)`` and ``chunk_timer`` (optional)
    split one query into units whose rows concatenate to the answer;
    ``run`` then also accepts ``chunk=``;
``run_many(artifact, queries, k)`` and ``weight`` (optional)
    one ``(matches, counters)`` pair per query from a single call; a
    serial batch without a deadline then probes all its distinct misses
    at once, and ``weight`` names the counter that apportions the
    call's wall time to its queries.

:class:`repro.scan.executor.BatchScanExecutor` and
:class:`repro.index.batch.BatchIndexExecutor` are this class with
their probe built in.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, replace
from time import perf_counter, time
from typing import Iterator, Sequence

from repro.core.cache import LRUCache
from repro.core.deadline import Budget, Deadline
from repro.core.result import Match, ResultSet
from repro.core.searcher import QueryRunner
from repro.distance.banded import check_threshold
from repro.exceptions import DeadlineExceeded, ReproError
from repro.obs.hist import Histogram
from repro.obs.recorder import QueryExemplar
from repro.obs.tracing import (
    adopt_spans,
    emit_span,
    ship_context,
    worker_span,
)

#: Default capacity of the per-executor result memo.
DEFAULT_CACHE_SIZE = 1024

#: How many chunks a single-query fan-out asks for when the runner does
#: not advertise a worker count.
DEFAULT_CHUNKS = 4


def _resolve_artifact(obj):
    """Materialize a :class:`repro.speed.SegmentRef`, pass others through.

    Duck-typed on ``resolve()`` so worker processes only import
    :mod:`repro.speed` when a ref actually arrives.
    """
    resolve = getattr(obj, "resolve", None)
    return resolve() if resolve is not None else obj


def _pool_payload(artifact, runner, what: str):
    """The value a task should carry for ``runner`` — artifact or ref.

    Thread runners share memory, so they always get the artifact
    itself. Process pools get a :class:`repro.speed.SegmentRef` when
    the artifact is segment-backed (workers mmap the file: ~1x resident
    memory however many workers run); otherwise the artifact is
    pickled, which is deprecated — each worker then holds a private
    copy.
    """
    if getattr(runner, "processes", None) is None:
        return artifact
    path = getattr(artifact, "segment_path", None)
    if path is not None:
        from repro.speed import SegmentRef

        return SegmentRef(path)
    warnings.warn(
        f"pickling a {what} to process-pool workers is deprecated and "
        f"will be removed in 2.0; save it with "
        f"repro.speed.save_segment and search the "
        f"repro.speed.load_segment result so workers mmap the segment "
        f"instead",
        DeprecationWarning,
        stacklevel=4,
    )
    return artifact


@dataclass(frozen=True)
class _ProbeTask:
    """Picklable work unit for runner fan-out.

    Items are queries, or chunks of ``query`` when that is set. Each
    call returns ``(row, counters, timers, seconds, spans)`` — counters
    *and* timer observations cross process boundaries as plain dicts
    and merge back in the parent, so process-pool runs report the same
    work profile serial runs do. ``timers`` maps timer name to
    ``(seconds, calls)``; ``spans`` is the worker-side trace-span dicts
    recorded under the shipped ``trace`` context (empty when no sampled
    trace shipped). Stateless on purpose: thread runners share one task
    across workers, so no scratch lives here.
    """

    probe: object
    k: int
    trace: dict | None = None
    query: str | None = None

    def __call__(self, item):
        probe = self.probe
        artifact = _resolve_artifact(probe.artifact)
        counters: dict = {}
        wall = time()
        started = perf_counter()
        if self.query is None:
            name, tags = probe.timer, {"query": item}
            row = tuple(probe.run(artifact, item, self.k,
                                  counters=counters))
        else:
            name = probe.chunk_timer
            tags = {"query": self.query, "chunk": str(item)}
            row = tuple(probe.run(artifact, self.query, self.k,
                                  counters=counters, chunk=item))
        seconds = perf_counter() - started
        spans = worker_span(name, self.trace, wall, seconds, tags=tags)
        return row, counters, {name: (seconds, 1)}, seconds, spans


@dataclass
class BatchStats:
    """Counters describing how much work a batch actually executed."""

    queries_seen: int = 0
    unique_queries: int = 0
    cache_hits: int = 0
    scans_executed: int = 0

    @property
    def deduplicated(self) -> int:
        """Queries answered by batch-level deduplication."""
        return self.queries_seen - self.unique_queries


class BatchExecutor:
    """Answer whole workloads through one probe (see the module doc).

    Parameters
    ----------
    probe:
        The algorithm and its compiled artifact.
    runner:
        Optional default :class:`repro.core.searcher.QueryRunner` used
        by :meth:`search_many` (overridable per call).
    cache_size:
        Capacity of the ``(query, k)`` result memo; ``0`` disables it.
    """

    def __init__(self, probe, *, runner: QueryRunner | None = None,
                 cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        if cache_size < 0:
            raise ReproError(
                f"cache_size must be non-negative, got {cache_size}"
            )
        self._probe = probe
        self._runner = runner
        self._cache: LRUCache[tuple[str, int], tuple[Match, ...]] | None = (
            LRUCache(cache_size) if cache_size else None
        )
        self.stats = BatchStats()
        # Cumulative work counters, merged back from every probe
        # (including ones executed in worker processes).
        self._counters: dict[str, int] = {}
        self._hists = {name: Histogram() for name in probe.histograms}
        # Guards the counters, the histograms and ``stats``.
        self._lock = threading.Lock()
        self._metrics = None
        self._recorder = None

    @property
    def probe(self):
        """The probe answering single queries."""
        return self._probe

    @property
    def cache(self) -> LRUCache | None:
        """The result memo (``None`` when disabled)."""
        return self._cache

    def attach_metrics(self, registry) -> None:
        """Attach a :class:`repro.obs.MetricsRegistry` (or ``None``).

        With a registry attached, the executor mirrors its work
        counters into it and records one timer observation per
        executed probe.
        """
        self._metrics = registry

    def attach_recorder(self, recorder) -> None:
        """Attach a :class:`repro.obs.FlightRecorder` (or ``None``)."""
        self._recorder = recorder

    def counters_snapshot(self) -> dict[str, int]:
        """Cumulative work counters since construction.

        Monotonic and thread-safe; includes work done in worker
        processes (tasks ship their counters back with their rows).
        """
        with self._lock:
            return dict(self._counters)

    def hists_snapshot(self) -> dict[str, Histogram]:
        """Cumulative per-query histograms since construction.

        Same contract as :meth:`counters_snapshot`: monotonic,
        thread-safe, exact to delta, and inclusive of worker-process
        probes — modulo worker wall-clocks for the latency series.
        """
        with self._lock:
            return {name: hist.copy()
                    for name, hist in self._hists.items()}

    # ------------------------------------------------------------------

    def search(self, query: str, k: int, *,
               deadline: Deadline | Budget | None = None) -> list[Match]:
        """One query's matches (memoized like any batch member).

        With a ``deadline`` set, an expiring probe raises
        :class:`DeadlineExceeded` carrying the matches proven so far;
        partial rows are never stored in the memo.
        """
        check_threshold(k)
        row = self._cached_row(query, k)
        hit = row is not None
        if not hit:
            row = self._probe_serial(query, k, deadline)
            self._store_row(query, k, row)
        with self._lock:
            stats = self.stats
            stats.cache_hits += hit
            stats.queries_seen += 1
            stats.unique_queries += 1
        return list(row)

    def search_many(self, queries: Sequence[str], k: int, *,
                    runner: QueryRunner | None = None,
                    deadline: Deadline | Budget | None = None
                    ) -> ResultSet:
        """Answer a whole batch, amortizing per-query work.

        Returns a :class:`ResultSet` with one row per input query, in
        input order — duplicate queries share one probe but still get
        their own (identical) rows, so the result is directly
        comparable to any per-query searcher's.

        With a ``deadline`` set, distinct queries execute serially (so
        the abort point is well-defined) and an expiry raises
        :class:`DeadlineExceeded` whose ``partial`` is a mapping of the
        *completed* queries to their full rows.
        """
        check_threshold(k)
        queries = list(queries)
        runner = runner if runner is not None else self._runner

        order: dict[str, None] = dict.fromkeys(queries)
        resolved: dict[str, tuple[Match, ...]] = {}
        misses: list[str] = []
        for query in order:
            row = self._cached_row(query, k)
            if row is None:
                misses.append(query)
            else:
                resolved[query] = row
        hits = len(resolved)

        if misses:
            if deadline is not None:
                self._execute_bounded(misses, k, deadline, resolved,
                                      total=len(order))
            else:
                for query, row in zip(misses,
                                      self._execute(misses, k, runner)):
                    resolved[query] = row
                    self._store_row(query, k, row)

        with self._lock:
            stats = self.stats
            stats.cache_hits += hits
            stats.queries_seen += len(queries)
            stats.unique_queries += len(order)
        return ResultSet(queries, [resolved[query] for query in queries])

    def run_workload(self, workload, runner: QueryRunner | None = None
                     ) -> ResultSet:
        """Workload adapter mirroring :meth:`Searcher.run_workload`."""
        return self.search_many(list(workload.queries), workload.k,
                                runner=runner)

    # ------------------------------------------------------------------

    def _cached_row(self, query: str, k: int) -> tuple[Match, ...] | None:
        if self._cache is None:
            return None
        return self._cache.get((query, k))

    def _store_row(self, query: str, k: int,
                   row: tuple[Match, ...]) -> None:
        if self._cache is not None:
            self._cache.put((query, k), row)

    def _merge_counters(self, counters: dict, seconds: float, *,
                        timers: dict | None = None,
                        executed: int = 1) -> None:
        """Fold one whole query's profile into the cumulative state.

        ``timers`` is a worker-shipped ``{name: (seconds, calls)}``
        mapping merged verbatim in place of the probe's own timer
        observation. ``executed`` is 0 for a probe its deadline cut
        short.
        """
        probe = self._probe
        with self._lock:
            own = self._counters
            for name, value in counters.items():
                own[name] = own.get(name, 0) + value
            hists = self._hists
            for name, source in probe.histograms.items():
                hists[name].record(seconds if source is None
                                   else counters.get(source, 0))
            self.stats.scans_executed += executed
        metrics = self._metrics
        if metrics is not None:
            metrics.merge_counts(counters)
            if timers:
                metrics.merge_timers(timers)
            else:
                metrics.observe(probe.timer, seconds)

    def _offer_exemplar(self, query: str, k: int, seconds: float,
                        matches: int, counters: dict,
                        stages: dict | None = None) -> None:
        """Offer a completed query to the flight recorder, if any."""
        recorder = self._recorder
        if recorder is not None and recorder.interested(seconds):
            probe = self._probe
            recorder.record(QueryExemplar(
                query=query, k=k, backend=probe.backend,
                seconds=seconds, matches=matches,
                stages=stages or {probe.timer: seconds},
                counters=dict(counters),
            ))

    def _probe_serial(self, query: str, k: int,
                      deadline: Deadline | Budget | None = None
                      ) -> tuple[Match, ...]:
        """Probe one query on the calling thread."""
        probe = self._probe
        counters: dict = {}
        started = perf_counter()
        try:
            row = tuple(probe.run(probe.artifact, query, k,
                                  counters=counters, deadline=deadline))
        except DeadlineExceeded:
            self._merge_counters(counters, perf_counter() - started,
                                 executed=0)
            raise
        seconds = perf_counter() - started
        self._merge_counters(counters, seconds)
        self._offer_exemplar(query, k, seconds, len(row), counters)
        emit_span(probe.timer, seconds, {"query": query})
        return row

    def _execute_bounded(self, misses: list[str], k: int,
                         deadline: Deadline | Budget,
                         resolved: dict[str, tuple[Match, ...]],
                         total: int) -> None:
        """Serial deadline-bounded execution, filling ``resolved``.

        On expiry re-raises with the batch-level partial: every
        *completed* query's full row (cache hits included).
        """
        for query in misses:
            try:
                row = self._probe_serial(query, k, deadline)
            except DeadlineExceeded as error:
                raise DeadlineExceeded(
                    f"batch {self._probe.backend} exceeded its deadline "
                    f"with {len(resolved)} of {total} distinct queries "
                    f"complete (in-flight: {error})",
                    partial=dict(resolved), scope="queries",
                    completed=len(resolved), total=total,
                ) from error
            resolved[query] = row
            self._store_row(query, k, row)

    def _probe_many(self, misses: list[str], k: int
                    ) -> list[tuple[Match, ...]]:
        """Probe every miss in one ``run_many`` call on this thread.

        Work counters stay per query. The call's wall time is split
        across the queries by the probe's ``weight`` counter (evenly
        when that is zero everywhere), so the per-query latency series
        and exemplars add up to what the call took.
        """
        probe = self._probe
        started = perf_counter()
        answers = probe.run_many(probe.artifact, misses, k)
        wall = perf_counter() - started
        weights = [counters.get(probe.weight, 0) for _, counters in answers]
        total = sum(weights)
        rows: list[tuple[Match, ...]] = []
        for query, (found, counters), weight in zip(misses, answers,
                                                     weights):
            seconds = wall * (weight / total if total else 1 / len(misses))
            row = tuple(found)
            self._merge_counters(counters, seconds)
            self._offer_exemplar(query, k, seconds, len(row), counters)
            rows.append(row)
        emit_span(probe.timer, wall, {"queries": str(len(misses))})
        return rows

    def _execute(self, misses: list[str], k: int,
                 runner: QueryRunner | None) -> list[tuple[Match, ...]]:
        if runner is None:
            if getattr(self._probe, "run_many", None) is not None:
                return self._probe_many(misses, k)
            return [self._probe_serial(query, k) for query in misses]
        if len(misses) == 1:
            return [self._probe_chunked(misses[0], k, runner)]
        rows: list[tuple[Match, ...]] = []
        for query, (row, counters, timers, seconds) in zip(
                misses, self._fan_out(runner, k, misses)):
            self._merge_counters(counters, seconds, timers=timers)
            self._offer_exemplar(query, k, seconds, len(row), counters)
            rows.append(row)
        return rows

    def _fan_out(self, runner: QueryRunner, k: int, items: list,
                 query: str | None = None) -> Iterator[tuple]:
        """Run queries (or chunks of ``query``) through the runner.

        Yields ``(row, counters, timers, seconds)`` per item, worker
        spans already rejoined to the ambient trace.
        """
        probe = self._probe
        shipped = replace(probe, artifact=_pool_payload(
            probe.artifact, runner, probe.what))
        task = _ProbeTask(shipped, k, ship_context(), query)
        for row, counters, timers, seconds, spans in runner.run(
                task, items):
            adopt_spans(spans)
            yield row, counters, timers, seconds

    def _probe_chunked(self, query: str, k: int,
                       runner: QueryRunner) -> tuple[Match, ...]:
        """Fan one query's chunks out across the runner, if it splits."""
        probe = self._probe
        split = getattr(probe, "chunks", None)
        if split is None:
            return self._probe_serial(query, k)
        workers = (getattr(runner, "threads", None)
                   or getattr(runner, "processes", None)
                   or DEFAULT_CHUNKS)
        chunks = split(probe.artifact, query, k, workers)
        if len(chunks) < 2:
            return self._probe_serial(query, k)
        merged: list[Match] = []
        totals: dict = {}
        stages: dict[str, float] = {}
        started = perf_counter()
        for index, (part, counters, _, seconds) in enumerate(
                self._fan_out(runner, k, chunks, query)):
            for name, value in counters.items():
                totals[name] = totals.get(name, 0) + value
            stages[f"{probe.chunk_timer}[{index}]"] = seconds
            merged.extend(part)
        merged.sort()
        # The histograms' unit is a whole query, never a fragment:
        # wall clock is the parent-observed window, work the chunk sum.
        wall = perf_counter() - started
        self._merge_counters(totals, wall, timers={
            probe.chunk_timer: (sum(stages.values()), len(stages))})
        self._offer_exemplar(query, k, wall, len(merged), totals,
                             stages=stages)
        return tuple(merged)
