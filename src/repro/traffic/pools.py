"""Per-shard worker pools: queue-fed crews with batch draining.

The service executes a submit inline on the caller's thread; a traffic
gateway needs the opposite — callers enqueue and *workers* execute, so
arrival rate and service rate decouple and a queue forms where the
backlog is measurable. :class:`ShardPools` gives every shard of a
:class:`repro.service.ShardedCorpus` its own bounded crew of workers:

* **batch draining** — a worker that wakes up does not take one task;
  it drains up to ``batch_limit`` queued tasks and serves them through
  the shard's :class:`repro.scan.executor.BatchScanExecutor` in one
  call, so a backlog is answered with the batch machinery's amortized
  costs (duplicate queries deduplicated, the vectorized kernel fed
  whole buckets, the result memo warm). On a single-core host this —
  not parallel scheduling — is where the pool's throughput advantage
  over one-task-per-wakeup service comes from, and the deeper the
  backlog the bigger the amortization; the bench reports it as such.
* **zero-copy handoff** — with ``kind="process"``, workers are
  processes primed with a :class:`repro.speed.SegmentRef`: each child
  mmaps the shard's segment file instead of unpickling a private
  corpus copy, so N workers cost ~1x resident corpus memory.

A submit returns a :class:`PoolTicket`; ticket resolution mirrors the
sharding failure mode — every shard answers in full or not at all, and
a deadline that expires at the merge only forfeits the shards still in
queue (``status="partial"``, verified matches kept).
"""

from __future__ import annotations

import os
import queue as queue_module
import threading
from time import perf_counter, time
from typing import Mapping, Sequence

from repro.core.deadline import Deadline
from repro.core.request import SearchRequest
from repro.exceptions import ReproError
from repro.obs.hist import Histogram
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import current_trace, worker_span
from repro.scan.corpus import CompiledCorpus
from repro.scan.executor import BatchScanExecutor
from repro.service.service import ServiceResult
from repro.service.sharding import ShardedCorpus, merge_matches

#: Worker-pool kinds.
POOL_KINDS = ("thread", "process")

#: Default per-wakeup drain bound — deep enough for real amortization,
#: bounded so one worker cannot starve its siblings of a whole backlog.
DEFAULT_BATCH_LIMIT = 32

#: How long an idle worker blocks on its queue before re-checking the
#: pools' stop flag (seconds); close latency is one interval.
IDLE_POLL_SECONDS = 0.05

#: Counters the pools maintain (``pool.*`` namespace).
POOL_COUNTERS = (
    "pool.submitted",
    "pool.served",
    "pool.batches",
    "pool.batched_tasks",
)


# -- process-kind worker side -------------------------------------------

_WORKER_EXECUTOR: BatchScanExecutor | None = None


def _process_worker_init(segment_path: str) -> None:
    """Prime one pool process: mmap the shard segment, build the executor.

    Runs once per worker process. The :class:`repro.speed.SegmentRef`
    resolves through the process-global segment cache, so the corpus
    arrays are mmap views shared with every sibling worker.
    """
    global _WORKER_EXECUTOR
    from repro.speed import SegmentRef

    _WORKER_EXECUTOR = BatchScanExecutor(SegmentRef(segment_path).resolve())


def _process_serve(queries: Sequence[str], k: int,
                   traces: Sequence[Mapping | None] | None = None):
    """Serve one drained batch inside a primed worker process.

    ``traces`` ships one serialized :class:`repro.obs.tracing
    .TraceContext` (or ``None``) per drained ticket. When absent the
    return value keeps its original shape — the plain row list; when
    present it becomes ``(rows, spans)``, where ``spans`` holds one
    ``pool.worker.batch`` span dict per sampled ticket, stamped with
    this worker's pid/tid so the trace export stitches the batch onto
    the child process's lane.
    """
    if traces is None:
        result = _WORKER_EXECUTOR.search_many(list(queries), k)
        return list(result.rows)
    wall = time()
    started = perf_counter()
    result = _WORKER_EXECUTOR.search_many(list(queries), k)
    seconds = perf_counter() - started
    spans: list[dict] = []
    for shipped in traces:
        spans.extend(worker_span(
            "pool.worker.batch", shipped, wall, seconds,
            tags={"queries": str(len(queries)), "k": str(k)},
        ))
    return list(result.rows), spans


# -- tickets ------------------------------------------------------------

class PoolTicket:
    """One submitted request's merge state across the shard crews.

    Workers fulfill one shard each; :meth:`result` waits for all of
    them (bounded by the request's wall-clock deadline, when it has
    one) and merges. Missing shards at expiry cost exactly their rows:
    the merged answer of the completed shards is returned as a
    ``partial`` — verified, a strict subset of the exact answer.

    ``trace`` carries the submitter's sampled ``(tracer, context)``
    pair (``None`` otherwise) so worker threads — which run on their
    own stacks, outside the submitter's ambient trace — can parent
    their shard spans under the submitting span.
    """

    def __init__(self, request: SearchRequest, shard_count: int,
                 plan: str, trace: tuple | None = None) -> None:
        self.request = request
        self.enqueued_at = perf_counter()
        self.trace = trace
        self._plan = plan
        self._rows: list[tuple | None] = [None] * shard_count
        self._remaining = shard_count
        self._error: BaseException | None = None
        self._finished = False
        self._done = threading.Event()
        self._lock = threading.Lock()

    @property
    def done(self) -> bool:
        """Whether every shard has answered (or one has failed)."""
        return self._done.is_set()

    def _fulfill(self, shard: int, row: tuple) -> bool:
        """Record one shard's row; ``True`` iff this call finished it."""
        with self._lock:
            if self._finished:
                return False
            if self._rows[shard] is None:
                self._rows[shard] = tuple(row)
                self._remaining -= 1
            if self._remaining <= 0:
                self._finished = True
                self._done.set()
                return True
            return False

    def _fail(self, shard: int, error: BaseException) -> bool:
        """Record a failure; ``True`` iff this call finished the ticket."""
        with self._lock:
            if self._finished:
                return False
            self._error = error
            self._finished = True
            self._done.set()
            return True

    def result(self, timeout: float | None = None) -> ServiceResult:
        """Wait for the shard crews and merge, honestly labeled.

        The wait is additionally bounded by the request's wall-clock
        deadline when it carries one; a work-unit
        :class:`repro.core.deadline.Budget` does not translate to a
        wait and is ignored here.
        """
        deadline = self.request.deadline
        if isinstance(deadline, Deadline):
            remaining = max(0.0, deadline.remaining())
            timeout = remaining if timeout is None \
                else min(timeout, remaining)
        self._done.wait(timeout)
        with self._lock:
            if self._error is not None:
                raise self._error
            rows = [row for row in self._rows if row is not None]
            complete = self._remaining <= 0
        matches = merge_matches(rows)
        return ServiceResult(
            query=self.request.query, k=self.request.k,
            status="complete" if complete else "partial",
            matches=matches, verified=True,
            plan=self._plan if complete else "", attempts=1,
        )


# -- the pools ----------------------------------------------------------

class _ShardCrew:
    """One shard's queue, workers and executor (thread or process)."""

    def __init__(self, shard: int, strings: tuple[str, ...], *,
                 kind: str, process_workers: int,
                 segment_path: str | None) -> None:
        self.shard = shard
        self.queue: queue_module.Queue = queue_module.Queue()
        self.threads: list[threading.Thread] = []
        self.process_pool = None
        if not strings:
            # Nothing to scan; tasks resolve to empty rows (mirrors
            # ShardedCorpus.searcher_for returning None).
            self.executor = None
        elif kind == "process":
            from concurrent.futures import ProcessPoolExecutor

            from repro.speed import load_or_build_corpus_segment

            # Build (or reuse) the segment up front in the parent so
            # worker inits only ever mmap an existing file.
            load_or_build_corpus_segment(strings, segment_path)
            self.segment_path = segment_path
            self.executor = None
            self.process_pool = ProcessPoolExecutor(
                max_workers=process_workers,
                initializer=_process_worker_init,
                initargs=(segment_path,),
            )
        else:
            if segment_path is not None:
                from repro.speed import load_or_build_corpus_segment

                corpus = load_or_build_corpus_segment(strings, segment_path)
            else:
                corpus = CompiledCorpus(strings)
            self.executor = BatchScanExecutor(corpus)

    @property
    def workers(self) -> int:
        return sum(1 for thread in self.threads if thread.is_alive())


class ShardPools:
    """Queue-fed worker crews, one per shard of a sharded corpus.

    Parameters
    ----------
    corpus:
        The sharded data side (or the strings to shard here). The
        crews compile the shards once, so a corpus over a mutable
        :class:`repro.live.Corpus` is refused: serve live data through
        the ladder (``AsyncService(service)`` with no pools), which
        follows the corpus across writes.
    shards:
        Shard count when building the corpus here.
    kind:
        ``"thread"`` (workers scan in-process; default) or
        ``"process"`` (workers scan in child processes primed with a
        :class:`repro.speed.SegmentRef`; requires ``segment_dir``).
    workers_per_shard:
        Crew size per shard.
    batch_limit:
        Most tasks one worker drains per wakeup. ``1`` disables batch
        amortization — the static configuration benchmarks compare
        against.
    segment_dir:
        Directory of per-shard segment files (``shard-NNNN.seg``;
        built on demand). Mandatory for ``kind="process"``.
    metrics:
        Optional registry mirroring the pool's counters and timers.
    """

    def __init__(self, corpus: ShardedCorpus | Sequence[str], *,
                 shards: int = 4,
                 kind: str = "thread",
                 workers_per_shard: int = 1,
                 batch_limit: int = DEFAULT_BATCH_LIMIT,
                 segment_dir: str | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        if kind not in POOL_KINDS:
            raise ReproError(
                f"unknown pool kind {kind!r}; expected one of {POOL_KINDS}"
            )
        if kind == "process" and segment_dir is None:
            raise ReproError(
                "process pools need segment_dir: workers attach via "
                "SegmentRef, never by pickled corpus"
            )
        if workers_per_shard < 1:
            raise ReproError(
                f"workers_per_shard must be positive, got "
                f"{workers_per_shard}"
            )
        if batch_limit < 1:
            raise ReproError(
                f"batch_limit must be positive, got {batch_limit}"
            )
        if not isinstance(corpus, ShardedCorpus):
            corpus = ShardedCorpus(corpus, shards)
        if corpus.source is not None and corpus.source.mutable:
            raise ReproError(
                "ShardPools compiles its shards once and would keep "
                "answering from this snapshot after the next write to "
                "the live corpus; serve a live corpus through the "
                "ladder instead (AsyncService(service) without pools=)"
            )
        self._corpus = corpus
        self._kind = kind
        self._batch_limit = batch_limit
        self._metrics = metrics
        self._counters = dict.fromkeys(POOL_COUNTERS, 0)
        self._hists = {
            "pool.batch_seconds": Histogram(),
            "pool.batch_size": Histogram(),
        }
        self._lock = threading.Lock()
        self._pending = 0
        self._closed = False
        self._stop = threading.Event()
        self._crews: list[_ShardCrew] = []
        for shard in range(corpus.shard_count):
            path = None
            if segment_dir is not None:
                os.makedirs(segment_dir, exist_ok=True)
                path = os.path.join(segment_dir, f"shard-{shard:04d}.seg")
            crew = _ShardCrew(shard, corpus.shard(shard), kind=kind,
                              process_workers=workers_per_shard,
                              segment_path=path)
            self._crews.append(crew)
            for _ in range(workers_per_shard):
                thread = threading.Thread(target=self._worker,
                                          args=(crew,), daemon=True)
                crew.threads.append(thread)
                thread.start()

    # -- introspection --------------------------------------------------

    @property
    def corpus(self) -> ShardedCorpus:
        """The sharded data side."""
        return self._corpus

    @property
    def kind(self) -> str:
        """``"thread"`` or ``"process"``."""
        return self._kind

    @property
    def batch_limit(self) -> int:
        """Most tasks one worker drains per wakeup."""
        return self._batch_limit

    def workers(self) -> dict[int, int]:
        """Live worker count per shard."""
        return {crew.shard: crew.workers for crew in self._crews}

    def queue_depth(self) -> int:
        """Requests submitted but not yet fully served."""
        with self._lock:
            return self._pending

    def counters_snapshot(self) -> dict[str, int]:
        """Cumulative ``pool.*`` counters since construction."""
        with self._lock:
            return dict(self._counters)

    def hists_snapshot(self) -> dict[str, Histogram]:
        """Cumulative batch-shape histograms since construction."""
        with self._lock:
            return {name: hist.copy()
                    for name, hist in self._hists.items()}

    def _count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] += value
        if self._metrics is not None:
            self._metrics.inc(name, value)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and process pool (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        for crew in self._crews:
            for thread in crew.threads:
                thread.join()
            if crew.process_pool is not None:
                crew.process_pool.shutdown(wait=True)

    def __enter__(self) -> "ShardPools":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # -- submission -----------------------------------------------------

    def submit(self, request: SearchRequest) -> PoolTicket:
        """Enqueue one request onto every shard crew."""
        if request.is_batch:
            raise ReproError(
                "ShardPools.submit takes one query per ticket; submit "
                "batch requests one at a time"
            )
        with self._lock:
            if self._closed:
                raise ReproError("submit on a closed ShardPools")
            self._pending += 1
        self._count("pool.submitted")
        tracer, context = current_trace()
        trace = ((tracer, context)
                 if tracer is not None and context is not None
                 and context.sampled else None)
        ticket = PoolTicket(request, self._corpus.shard_count,
                            plan=f"pool[{self._kind}]", trace=trace)
        for crew in self._crews:
            crew.queue.put(ticket)
        return ticket

    # -- the worker loop ------------------------------------------------

    def _worker(self, crew: _ShardCrew) -> None:
        while not self._stop.is_set():
            try:
                first = crew.queue.get(timeout=IDLE_POLL_SECONDS)
            except queue_module.Empty:
                continue
            batch = [first]
            while len(batch) < self._batch_limit:
                try:
                    batch.append(crew.queue.get_nowait())
                except queue_module.Empty:
                    break
            started = perf_counter()
            self._serve(crew, batch)
            seconds = perf_counter() - started
            with self._lock:
                self._hists["pool.batch_seconds"].record(seconds)
                self._hists["pool.batch_size"].record(len(batch))
            if self._metrics is not None:
                self._metrics.observe(
                    f"pool.shard[{crew.shard}].busy", seconds)
            self._count("pool.batches")
            self._count("pool.batched_tasks", len(batch))

    def _serve(self, crew: _ShardCrew, batch: list[PoolTicket]) -> None:
        """Answer one drained batch, grouped by k for the batch scan.

        Sampled tickets get one ``pool.shard[N]`` span each (a child of
        the submitting span, pre-minted here so process workers can
        parent under it), and process crews ship one
        ``pool.worker.batch`` span per sampled ticket back alongside
        the rows.
        """
        by_k: dict[int, list[PoolTicket]] = {}
        for ticket in batch:
            by_k.setdefault(ticket.request.k, []).append(ticket)
        for k, tickets in by_k.items():
            queries = [ticket.request.query for ticket in tickets]
            contexts = [
                ticket.trace[1].child() if ticket.trace is not None
                else None
                for ticket in tickets
            ]
            traced = any(context is not None for context in contexts)
            wall = time()
            started = perf_counter()
            spans: Sequence[Mapping] = ()
            try:
                if crew.process_pool is None and crew.executor is None:
                    rows = [() for _ in queries]
                elif crew.process_pool is not None:
                    if traced:
                        shipped = [
                            context.to_dict() if context is not None
                            else None
                            for context in contexts
                        ]
                        rows, spans = crew.process_pool.submit(
                            _process_serve, queries, k, shipped).result()
                    else:
                        rows = crew.process_pool.submit(
                            _process_serve, queries, k).result()
                else:
                    rows = list(
                        crew.executor.search_many(queries, k).rows)
            except BaseException as error:
                for ticket in tickets:
                    self._task_done(ticket._fail(crew.shard, error))
                continue
            if traced:
                self._record_shard_spans(
                    crew, tickets, contexts, wall,
                    perf_counter() - started, len(queries), k, spans)
            for ticket, row in zip(tickets, rows):
                self._task_done(ticket._fulfill(crew.shard, row))

    def _record_shard_spans(self, crew: _ShardCrew,
                            tickets: Sequence[PoolTicket],
                            contexts: Sequence,
                            wall: float, seconds: float,
                            batch: int, k: int,
                            spans: Sequence[Mapping]) -> None:
        """Record one shard span per sampled ticket, rejoin worker spans.

        Worker spans carry their trace_id, so they fold back into the
        tracer of whichever ticket shipped their parent context —
        drained batches can mix tickets from different traces.
        """
        tracers = {}
        for ticket, context in zip(tickets, contexts):
            if context is None:
                continue
            tracer = ticket.trace[0]
            tracers[context.trace_id] = tracer
            tracer.record_span(
                f"pool.shard[{crew.shard}]", context, wall, seconds,
                tags={"kind": self._kind, "batch": str(batch),
                      "k": str(k)},
            )
        for span in spans:
            tracer = tracers.get(span.get("trace_id"))
            if tracer is not None:
                tracer.adopt((span,))

    def _task_done(self, finished_now: bool) -> None:
        if finished_now:
            with self._lock:
                self._pending -= 1
            self._count("pool.served")
