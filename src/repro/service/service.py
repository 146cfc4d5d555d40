"""The deadline-aware resilient query service.

:class:`Service` is the operational wrapper the library was missing:
where :class:`repro.core.engine.SearchEngine` answers "which algorithm
should serve this data", the service answers "what happens when the
answer must arrive *by then*". It composes four mechanisms:

* **admission control** — a bounded in-flight slot pool; a submit that
  finds no free slot is rejected immediately with
  :class:`repro.exceptions.ServiceOverloaded` instead of queueing
  unboundedly (fail fast beats fail slow);
* **sharded execution** — queries run over a
  :class:`repro.service.sharding.ShardedCorpus`, so an expiring
  deadline only forfeits the shards that had not finished;
* **a degradation ladder** — an ordered tuple of plans
  (:mod:`repro.service.plans`); when a rung raises — its deadline
  expired, or a :class:`repro.exceptions.ReproError` — the service
  runs the next rung, down to a filter-only pass that always answers.
  A rung is never retried: it is a pure function of immutable shards,
  so a second try fails the same way;
* **observability** — ``service.*`` counters and per-attempt spans
  through :mod:`repro.obs`, and a :meth:`Service.report` that emits
  the standard validated :class:`repro.obs.SearchReport` with
  ``mode="service"``.

The result is always a :class:`ServiceResult` that says *exactly* what
the caller got: ``complete`` (exact, first rung), ``degraded`` (exact,
lower rung), ``partial`` (verified subset rescued from an expiry) or
``candidates`` (unverified filter-only superset). Verified flags are
never inflated — a partial or candidate answer can be acted on, but
cannot be mistaken for the full exact answer.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.deadline import Budget, Deadline
from repro.core.planner import Planner, PlannerPolicy
from repro.core.request import SearchOptions, SearchRequest, as_request
from repro.core.result import Match
from repro.core.searcher import BACKENDS
from repro.exceptions import (
    DeadlineExceeded,
    PartialResultError,
    ReproError,
    ServiceOverloaded,
)
from repro.obs.events import EventLog
from repro.obs.hist import Histogram
from repro.obs.recorder import FlightRecorder, QueryExemplar
from repro.obs.registry import NULL, MetricsRegistry
from repro.obs.report import SearchReport, build_report
from repro.obs.tracing import (
    Tracer,
    current_context,
    current_trace_id,
    trace_span,
)
from repro.service.plans import default_ladder
from repro.service.sharding import ShardedCorpus

#: Result statuses, best to worst.
SERVICE_STATUSES = ("complete", "degraded", "partial", "candidates")

#: Counters the service reports (``service.*`` namespace; open
#: counters section of the standard report schema).
SERVICE_COUNTERS = (
    "service.submitted",
    "service.accepted",
    "service.rejected",
    "service.completed",
    "service.degraded",
    "service.partial",
    "service.candidates",
    "service.deadline_expirations",
    "service.attempts",
    "service.corpus_refreshes",
    "service.corpus_rebases",
)

#: Default bounded-queue capacity (concurrent in-flight submits).
DEFAULT_CAPACITY = 8


@dataclass(frozen=True)
class ServiceResult:
    """What one submit produced, honestly labeled.

    Attributes
    ----------
    query:
        The submitted query.
    k:
        The edit-distance threshold.
    status:
        One of :data:`SERVICE_STATUSES` — ``complete`` (exact answer
        from the preferred rung), ``degraded`` (exact answer from a
        lower rung), ``partial`` (verified subset of the exact answer,
        rescued from a deadline expiry) or ``candidates`` (unverified
        filter-only superset; distances are lower bounds).
    matches:
        Sorted, deduplicated matches.
    verified:
        ``True`` iff every match carries a true edit distance
        ``<= k``. ``partial`` results are verified but incomplete.
    plan:
        Name of the plan that produced the matches (``""`` when an
        expiry left only merged partials).
    attempts:
        Total plan executions performed for this submit.
    """

    query: str
    k: int
    status: str
    matches: tuple[Match, ...]
    verified: bool
    plan: str
    attempts: int

    @property
    def complete(self) -> bool:
        """Whether the matches are the full exact answer."""
        return self.status in ("complete", "degraded")


class Service:
    """Deadline-aware similarity-search service over one dataset.

    Parameters
    ----------
    dataset:
        The strings to serve, a prebuilt :class:`ShardedCorpus`, or a
        :class:`repro.live.Corpus` (frozen or live). A live corpus is
        tracked by epoch: every submit lets the shards catch up with
        the corpus when it drifted since the last one, and the planner
        statistics are refreshed whenever that catch-up was a rebase
        (see :meth:`ShardedCorpus.refresh`).
    shards:
        Shard count when building the corpus here.
    capacity:
        Maximum concurrent in-flight submits; the bounded queue. A
        submit beyond it raises :class:`ServiceOverloaded` immediately.
    plans:
        The degradation ladder, best rung first. Defaults to
        :func:`repro.service.plans.default_ladder`. Injectable for
        tests (any object with ``name`` and
        ``run(corpus, query, k, deadline)``).
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` for timers; the
        always-on ``service.*`` counters do not need it.
    recorder:
        Optional :class:`repro.obs.FlightRecorder`. Every degradation
        event — deadline expiry, overload rejection, degraded
        or partial answer — force-records an exemplar (the ladder's
        audit trail), and slow complete submits compete for the
        slowlog like any engine query. Exemplars carry the ambient
        trace_id, the planner's chosen rung and (when the gateway
        stamped one into baggage) the shed decision.
    tracer:
        Optional :class:`repro.obs.Tracer`. When a submit arrives with
        no ambient trace (standalone use, outside the gateway), the
        service mints a root context on it so the ladder still produces
        a span tree; submits already inside a trace (the gateway's)
        just add child spans to it.
    events:
        Optional :class:`repro.obs.EventLog` receiving ``admission``,
        ``ladder_rung`` and ``corpus_rebase`` lines, each stamped with
        the ambient trace_id.

    Examples
    --------
    >>> service = Service(["Berlin", "Bern", "Ulm"], shards=2)
    >>> result = service.submit("Berlino", 2)
    >>> result.status
    'complete'
    >>> [m.string for m in result.matches]
    ['Berlin']
    """

    def __init__(self, dataset: Iterable[str] | ShardedCorpus, *,
                 shards: int = 4,
                 capacity: int = DEFAULT_CAPACITY,
                 plans: Sequence | None = None,
                 metrics: MetricsRegistry | None = None,
                 recorder: FlightRecorder | None = None,
                 tracer: Tracer | None = None,
                 events: EventLog | None = None) -> None:
        if capacity < 1:
            raise ReproError(
                f"capacity must be positive, got {capacity}"
            )
        if isinstance(dataset, ShardedCorpus):
            self._corpus = dataset
        else:
            self._corpus = ShardedCorpus(dataset, shards)
        self._plans = tuple(plans) if plans is not None \
            else default_ladder()
        if not self._plans:
            raise ReproError("the plan ladder must have at least one rung")
        self._capacity = capacity
        self._slots = threading.BoundedSemaphore(capacity)
        self._in_flight = 0
        self._metrics = metrics if metrics is not None else NULL
        self._recorder = recorder
        self._tracer = tracer
        self._events = events
        self._counters = dict.fromkeys(SERVICE_COUNTERS, 0)
        self._hists = {"service.submit_seconds": Histogram()}
        self._counters_lock = threading.Lock()
        self._last_seconds = 0.0
        self._planner: Planner | None = None
        self._planner_lock = threading.Lock()
        self._analyzed_rebases = 0

    @property
    def corpus(self) -> ShardedCorpus:
        """The sharded data side."""
        return self._corpus

    @property
    def capacity(self) -> int:
        """The bounded queue's size."""
        return self._capacity

    @property
    def in_flight(self) -> int:
        """Submits currently holding an admission slot."""
        return self._in_flight

    @property
    def plans(self) -> tuple:
        """The degradation ladder, best rung first."""
        return self._plans

    @property
    def planner(self) -> Planner:
        """The cost-model planner ordering the ladder's rungs.

        Built lazily (the ANALYZE pass walks the whole corpus once)
        and shared by every submit. Nothing in the service feeds
        executed windows back to it, so it prices every request from
        its profile and the corpus statistics alone.
        """
        with self._planner_lock:
            if self._planner is None:
                self._planner = Planner(self._corpus.strings)
            return self._planner

    def attach_metrics(self, registry: MetricsRegistry | None) -> None:
        """Attach (or detach, with ``None``) a timer registry."""
        self._metrics = registry if registry is not None else NULL

    def attach_recorder(self, recorder: FlightRecorder | None) -> None:
        """Attach (or detach, with ``None``) a flight recorder."""
        self._recorder = recorder

    def attach_tracer(self, tracer: Tracer | None) -> None:
        """Attach (or detach, with ``None``) a standalone-root tracer."""
        self._tracer = tracer

    def attach_events(self, events: EventLog | None) -> None:
        """Attach (or detach, with ``None``) an operational event log."""
        self._events = events

    def _emit_event(self, kind: str, **fields) -> None:
        if self._events is not None:
            self._events.emit(kind, **fields)

    @property
    def recorder(self) -> FlightRecorder | None:
        """The attached flight recorder (``None`` unless asked)."""
        return self._recorder

    def counters_snapshot(self) -> dict[str, int]:
        """Cumulative ``service.*`` counters since construction."""
        with self._counters_lock:
            return dict(self._counters)

    def hists_snapshot(self) -> dict[str, Histogram]:
        """Cumulative submit-latency histograms since construction."""
        with self._counters_lock:
            return {name: hist.copy()
                    for name, hist in self._hists.items()}

    def gauges_snapshot(self) -> dict[str, float]:
        """Current ``service.*`` gauges.

        Over a live corpus, ``service.delta_strings``: the strings the
        shards carry as an overlay rather than in their base (see
        :meth:`ShardedCorpus.refresh`). Empty over a frozen one.
        """
        source = self._corpus.source
        if source is None or not source.mutable:
            return {}
        shape = self._corpus.describe()
        return {"service.delta_strings":
                float(shape["added"] + shape["removed"])}

    def estimate_retry_after_ms(self) -> float | None:
        """How long a rejected caller should wait before retrying.

        Estimated from the queue drain rate: with every slot taken, one
        frees after roughly a mean submit's worth of work, so the mean
        of the cumulative ``service.submit_seconds`` histogram is the
        expected wait for the next free slot. ``None`` until at least
        one submit has completed (no drain rate to extrapolate from).
        """
        with self._counters_lock:
            hist = self._hists["service.submit_seconds"]
            if not hist.count:
                return None
            return hist.mean() * 1000.0

    def _count(self, name: str, value: int = 1) -> None:
        with self._counters_lock:
            self._counters[name] += value
        self._metrics.inc(name, value)

    def _sync_live_corpus(self) -> None:
        """Track a live source corpus: catch the shards up, re-ANALYZE
        on a rebase.

        When the service serves a mutable :class:`repro.live.Corpus`,
        each submit first lets the sharded corpus swap in a view of the
        drifted corpus (``service.corpus_refreshes``, one per swap;
        the overlay it carries is the ``service.delta_strings``
        gauge). Only when that swap was a rebase — the overlay folded
        into a fresh partitioning — are the planner's ANALYZE
        statistics refreshed too (``service.corpus_rebases`` and a
        ``corpus_rebase`` event line): between rebases the statistics
        lag the corpus by at most the overlay, sqrt(2n) of n strings —
        too little to reorder the ladder, and not worth an O(n) pass
        on every write.
        """
        started = time.perf_counter()
        if not self._corpus.refresh():
            return
        self._count("service.corpus_refreshes")
        shape = self._corpus.describe()
        self._metrics.gauge("service.delta_strings",
                            shape["added"] + shape["removed"])
        with self._planner_lock:
            # Concurrent submits may both see the new base; the first
            # one in pays for the ANALYZE, once per rebase.
            if shape["rebases"] <= self._analyzed_rebases:
                return
            self._analyzed_rebases = shape["rebases"]
            if self._planner is not None:
                self._planner.refresh_statistics(self._corpus.strings)
        self._count("service.corpus_rebases")
        self._emit_event("corpus_rebase", base=shape["base"],
                         delta=shape["folded"],
                         seconds=time.perf_counter() - started)

    def _record_event(self, query: str, k: int, seconds: float,
                      kind: str, *, matches: int = -1,
                      note: str = "") -> None:
        """Force-record a ladder event on the flight recorder, if any.

        Forced records bypass the latency threshold — every degrade,
        expiry and overload leaves an exemplar; the recorder's
        ring is bounded, so this stays safe always-on.
        """
        recorder = self._recorder
        if recorder is not None:
            recorder.record(QueryExemplar(
                query=query, k=k, backend="service[ladder]",
                seconds=seconds, matches=matches, kind=kind, note=note,
                trace_id=current_trace_id(),
            ), force=True)

    # ----------------------------------------------------------------

    def submit(self, query: str | SearchRequest, k: int | None = None,
               *, deadline: Deadline | Budget | None = None,
               options: SearchOptions | None = None,
               plan: PlannerPolicy | None = None) -> ServiceResult:
        """Answer one query through admission, ladder and deadline.

        Accepts the legacy positional form or a single
        :class:`SearchRequest`. ``plan=`` takes a
        :class:`repro.core.planner.PlannerPolicy` hint for the ladder
        ordering; by default the cost-model planner picks the first
        rung per query.
        Raises :class:`ServiceOverloaded` when all ``capacity`` slots
        are taken, and :class:`PartialResultError` when the answer is
        not the full exact one and ``options.allow_partial`` is
        ``False`` (the refused result rides on the error's ``result``
        attribute).
        """
        request = as_request(query, k, deadline=deadline,
                             options=options, plan=plan)
        if request.is_batch:
            raise ReproError(
                "Service.submit answers one query per call; submit "
                "batch queries one at a time"
            )
        self._count("service.submitted")
        self._sync_live_corpus()
        if not self._slots.acquire(blocking=False):
            self._count("service.rejected")
            self._record_event(
                request.query, request.k, 0.0, "overload",
                note=f"rejected at capacity {self._capacity}",
            )
            self._emit_event("admission", outcome="rejected",
                             in_flight=self._capacity,
                             capacity=self._capacity)
            retry_after = self.estimate_retry_after_ms()
            hint = (f"; retry in ~{retry_after:.0f}ms"
                    if retry_after is not None else "")
            raise ServiceOverloaded(
                f"service at capacity ({self._capacity} in flight); "
                f"submit rejected{hint}",
                capacity=self._capacity, in_flight=self._capacity,
                retry_after_ms=retry_after,
            )
        self._in_flight += 1
        started = time.perf_counter()
        try:
            self._count("service.accepted")
            self._emit_event("admission", outcome="accepted",
                             in_flight=self._in_flight,
                             capacity=self._capacity)
            with self._metrics.timer("service.submit"):
                result = self._traced_ladder(request, started)
        finally:
            self._in_flight -= 1
            self._slots.release()
            self._last_seconds = time.perf_counter() - started
            with self._counters_lock:
                self._hists["service.submit_seconds"].record(
                    self._last_seconds)
        recorder = self._recorder
        if recorder is not None and result.status == "complete" \
                and recorder.interested(self._last_seconds):
            # Non-complete outcomes already left forced event
            # exemplars inside the ladder; complete submits compete
            # for the slowlog on latency like any engine query.
            recorder.record(QueryExemplar(
                query=request.query, k=request.k,
                backend="service[ladder]", seconds=self._last_seconds,
                matches=len(result.matches),
                stages={"service.submit": self._last_seconds},
                note=f"plan={result.plan}",
                trace_id=current_trace_id(),
            ))
        if not result.complete and not request.options.allow_partial:
            raise PartialResultError(
                f"query {request.query!r} (k={request.k}) produced a "
                f"{result.status} result and allow_partial is off",
                result=result,
            )
        return result

    def _ordered_plans(self, request: SearchRequest) -> tuple:
        """The ladder, reordered for this request.

        A forced :class:`PlannerPolicy` strategy promotes its rung to
        the front. Otherwise
        the cost-model planner scores the request's shape and promotes
        the rung matching its choice — the ladder stays a *degradation*
        ladder (every rung below remains reachable), the planner only
        decides where it starts.
        """
        strategy = request.policy.strategy
        if strategy is None:
            strategy = self.planner.plan_queries(
                [request.query], request.k).strategy
        hint = BACKENDS[strategy].rung
        promoted = [plan for plan in self._plans
                    if getattr(plan, "name", "") == hint]
        rest = [plan for plan in self._plans
                if getattr(plan, "name", "") != hint]
        return tuple(promoted + rest)

    def _traced_ladder(self, request: SearchRequest,
                       started: float) -> ServiceResult:
        """Run the ladder inside a request span.

        Standalone submits (no gateway upstream) mint their own root on
        the attached tracer so the ladder still yields a span tree;
        submits already inside an ambient trace nest under it instead.
        """
        if self._tracer is not None and current_context() is None:
            with self._tracer.root("service.submit"):
                return self._run_ladder(request, started)
        with trace_span("service.submit"):
            return self._run_ladder(request, started)

    def _ladder_note(self, plans: tuple) -> str:
        """The planner/shed context every ladder exemplar carries.

        Names the rung the planner chose to start from; when the
        gateway stamped its shed decision into the request baggage
        (``shed=none`` / ``shed=degrade`` ...), that rides along too —
        a slowlog line then explains both *why* the ladder started
        where it did and what admission pressure shaped the request.
        """
        chosen = getattr(plans[0], "name", plans[0].__class__.__name__)
        note = f"chosen={chosen}"
        context = current_context()
        shed = (context.baggage_value("shed", "")
                if context is not None else "")
        if shed:
            note += f", shed={shed}"
        return note

    def _run_ladder(self, request: SearchRequest,
                    started: float) -> ServiceResult:
        query = request.query
        k = request.k
        deadline = request.deadline
        plans = self._ordered_plans(request)
        ladder_note = self._ladder_note(plans)
        best_partial: tuple[Match, ...] | None = None
        for rung, plan in enumerate(plans):
            name = getattr(plan, "name", plan.__class__.__name__)
            self._count("service.attempts")
            try:
                section = f"service.attempt[{name}]"
                with self._metrics.timer(section), \
                        trace_span(section, {"rung": str(rung)}):
                    outcome = plan.run(self._corpus, query, k, deadline)
            except DeadlineExceeded as error:
                self._count("service.deadline_expirations")
                partial = tuple(error.partial)
                if best_partial is None or len(partial) > len(best_partial):
                    best_partial = partial
                self._record_event(
                    query, k, time.perf_counter() - started,
                    "deadline", matches=len(partial),
                    note=f"plan={name}, rescued {len(partial)} "
                         f"partial matches ({ladder_note})",
                )
                self._emit_event("ladder_rung", rung=rung, plan=name,
                                 outcome="deadline", rescued=len(partial))
                continue
            except ReproError:
                # Rungs are pure functions of immutable shards: a second
                # try fails the same way, so an error degrades too.
                self._emit_event("ladder_rung", rung=rung, plan=name,
                                 outcome="error")
                continue
            if not outcome.verified:
                status, counter = "candidates", "service.candidates"
            elif rung == 0:
                status, counter = "complete", "service.completed"
            else:
                status, counter = "degraded", "service.degraded"
            self._count(counter)
            self._emit_event("ladder_rung", rung=rung, plan=name,
                             outcome=status, matches=len(outcome.matches))
            if status != "complete":
                self._record_event(
                    query, k, time.perf_counter() - started,
                    status, matches=len(outcome.matches),
                    note=f"plan={outcome.plan}, rung {rung} "
                         f"({ladder_note})",
                )
            return ServiceResult(
                query=query, k=k, status=status,
                matches=tuple(outcome.matches),
                verified=outcome.verified,
                plan=outcome.plan, attempts=rung + 1,
            )
        # Every rung failed. Surface the best verified partial (it is
        # still a strict subset of the exact answer).
        self._count("service.partial")
        matches = best_partial if best_partial is not None else ()
        self._record_event(
            query, k, time.perf_counter() - started, "partial",
            matches=len(matches),
            note=f"every rung failed after {len(plans)} attempts "
                 f"({ladder_note})",
        )
        self._emit_event("ladder_rung", rung=len(plans), plan="",
                         outcome="partial", matches=len(matches))
        return ServiceResult(
            query=query, k=k, status="partial",
            matches=matches, verified=True, plan="",
            attempts=len(plans),
        )

    # ----------------------------------------------------------------

    def report(self, *, queries: int = 1, k: int = 0,
               matches: int = 0) -> SearchReport:
        """A standard validated report of the service's counters.

        ``mode="service"``; the ``counters`` section holds the
        cumulative ``service.*`` series and the ``histograms`` section
        summarizes the cumulative ``service.submit_seconds``
        distribution; over a live corpus the ``gauges`` section holds
        ``service.delta_strings``, the overlay the shards currently
        carry. It validates and serializes like any engine report.
        """
        return build_report(
            backend="service",
            engine="service[ladder]",
            mode="service",
            queries=queries,
            k=k,
            matches=matches,
            seconds=self._last_seconds,
            counters=self.counters_snapshot(),
            histograms=self.hists_snapshot(),
            gauges=self.gauges_snapshot(),
            choice_backend="service",
            choice_reason=(
                f"degradation ladder over {self._corpus.shard_count} "
                f"shards: " + " -> ".join(
                    getattr(plan, "name", "?") for plan in self._plans)
            ),
        )
