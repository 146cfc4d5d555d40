"""Per-shard worker pools: queue-fed crews with batch draining.

The service executes a submit inline on the caller's thread; a traffic
gateway needs the opposite — callers enqueue and *workers* execute, so
arrival rate and service rate decouple and a queue forms where the
backlog is measurable. :class:`ShardPools` gives every shard of a
:class:`repro.service.ShardedCorpus` its own bounded crew of worker
threads.

A worker that wakes up does not take one task; it drains up to
``batch_limit`` queued tasks and serves them in one ``search_many``
call on the shard's own compiled searcher —
``ShardedCorpus.searcher_for("compiled", i)``, the object the ladder's
``compiled`` rung uses. A backlog is thus answered with the batch
machinery's amortized costs (duplicate queries deduplicated, the
vectorized kernel fed whole buckets, the result memo warm). On a
single-core host this — not parallel scheduling — is where the pool's
throughput advantage over one-task-per-wakeup service comes from, and
the deeper the backlog the bigger the amortization.

The crews hold no compiled state of their own: pools and a service over
one sharded corpus compile each shard once, and a corpus built with
``segment_dir=`` serves the crews from its mmap'd shard segments.
Process parallelism lives in the batch runners
(``search_many(runner=ProcessPoolRunner(n))``), not here.

A submit returns a :class:`PoolTicket`; ticket resolution mirrors the
sharding failure mode — every shard answers in full or not at all, and
a deadline that expires at the merge only forfeits the shards still in
queue (``status="partial"``, verified matches kept).
"""

from __future__ import annotations

import queue as queue_module
import threading
from time import perf_counter, time
from typing import Sequence

from repro.core.deadline import Deadline
from repro.core.request import SearchRequest
from repro.exceptions import ReproError
from repro.obs.hist import Histogram
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import current_trace
from repro.service.service import ServiceResult
from repro.service.sharding import ShardedCorpus, merge_matches

#: Worker-pool kinds: the crews are threads. Process parallelism is
#: :class:`repro.parallel.ProcessPoolRunner` under ``search_many``.
POOL_KINDS = ("thread",)

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
    """One shard's queue and worker threads."""

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.queue: queue_module.Queue = queue_module.Queue()
        self.threads: list[threading.Thread] = []

    @property
    def workers(self) -> int:
        return sum(1 for thread in self.threads if thread.is_alive())


class ShardPools:
    """Queue-fed worker crews, one per shard of a sharded corpus.

    Parameters
    ----------
    corpus:
        The sharded data side (or the strings to shard here). The
        crews answer through its cached ``"compiled"`` shard searchers,
        built here once; a corpus over a mutable
        :class:`repro.live.Corpus` is refused: serve live data through
        the ladder (``AsyncService(service)`` with no pools), which
        follows the corpus across writes.
    shards:
        Shard count when building the corpus here.
    kind:
        ``"thread"``, the only kind (:data:`POOL_KINDS`).
    workers_per_shard:
        Crew size per shard.
    batch_limit:
        Most tasks one worker drains per wakeup. ``1`` disables batch
        amortization — the static configuration benchmarks compare
        against.
    metrics:
        Optional registry mirroring the pool's counters and timers.
    """

    def __init__(self, corpus: ShardedCorpus | Sequence[str], *,
                 shards: int = 4,
                 kind: str = "thread",
                 workers_per_shard: int = 1,
                 batch_limit: int = DEFAULT_BATCH_LIMIT,
                 metrics: MetricsRegistry | None = None) -> None:
        if kind not in POOL_KINDS:
            raise ReproError(
                f"unknown pool kind {kind!r}; expected one of "
                f"{POOL_KINDS} (for process parallelism pass "
                "runner=ProcessPoolRunner(n) to search_many)"
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
                "ShardPools serves its shards' searchers as built and "
                "would keep answering from this snapshot after the next "
                "write to the live corpus; serve a live corpus through "
                "the ladder instead (AsyncService(service) without pools=)"
            )
        self._corpus = corpus
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
            # Build before any worker runs, so the first tickets pay no
            # compile and sibling workers never race to build it.
            corpus.searcher_for("compiled", shard)
            crew = _ShardCrew(shard)
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
        """Stop every worker (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        for crew in self._crews:
            for thread in crew.threads:
                thread.join()

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
                            plan="pool[thread]", trace=trace)
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
        """Answer one drained batch, grouped by k, on the shard searcher.

        ``None`` (an empty shard) answers every query with an empty row.
        """
        searcher = self._corpus.searcher_for("compiled", crew.shard)
        by_k: dict[int, list[PoolTicket]] = {}
        for ticket in batch:
            by_k.setdefault(ticket.request.k, []).append(ticket)
        for k, tickets in by_k.items():
            queries = [ticket.request.query for ticket in tickets]
            wall = time()
            started = perf_counter()
            try:
                rows = (list(searcher.search_many(queries, k).rows)
                        if searcher is not None else [() for _ in queries])
            except BaseException as error:
                for ticket in tickets:
                    self._task_done(ticket._fail(crew.shard, error))
                continue
            self._record_shard_spans(crew, tickets, wall,
                                     perf_counter() - started, k)
            for ticket, row in zip(tickets, rows):
                self._task_done(ticket._fulfill(crew.shard, row))

    @staticmethod
    def _record_shard_spans(crew: _ShardCrew,
                            tickets: Sequence[PoolTicket],
                            wall: float, seconds: float, k: int) -> None:
        """One ``pool.shard[N]`` span per sampled ticket, parented under
        the span that submitted it (batches can mix traces)."""
        for ticket in tickets:
            if ticket.trace is None:
                continue
            tracer, context = ticket.trace
            tracer.record_span(
                f"pool.shard[{crew.shard}]", context.child(), wall,
                seconds, tags={"batch": str(len(tickets)), "k": str(k)},
            )

    def _task_done(self, finished_now: bool) -> None:
        if finished_now:
            with self._lock:
                self._pending -= 1
            self._count("pool.served")
