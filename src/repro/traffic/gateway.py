"""The asyncio gateway: open-loop arrivals over the blocking service.

:class:`repro.service.Service` answers on the caller's thread — a
closed loop, where a slow answer *slows the arrival of the next
question* and the measured latency flatters the system (coordinated
omission). Real traffic is open-loop: requests arrive on their own
schedule whether or not the last one finished. :class:`AsyncService`
is the adapter between the two worlds, and the place the whole
traffic stack composes:

1. **cache** — a hit answers from memory before anything else runs
   (:class:`repro.traffic.cache.ResultCache`; only complete results
   live there, so a hit is always a full exact answer);
2. **shedding** — the queue-depth watermark policy
   (:class:`repro.traffic.shedding.LoadShedder`) decides admit /
   degrade-to-floor / fast-reject *before* any deadline is burned;
3. **execution** — admitted requests run on the per-shard worker
   pools (:class:`repro.traffic.pools.ShardPools`) when attached, or
   through the service's degradation ladder otherwise, off the event
   loop either way;
4. **observability** — ``service.queue_depth`` and
   ``service.cache.size`` gauges, ``service.gateway.*`` counters, a
   gateway-latency histogram, and a :meth:`AsyncService.report` that
   folds in the cache, shedder, pool and underlying-service series.
"""

from __future__ import annotations

import asyncio
import time
from typing import Sequence

from repro.core.deadline import Budget, Deadline
from repro.core.request import SearchOptions, SearchRequest, as_request
from repro.exceptions import ReproError, ServiceOverloaded
from repro.obs.events import EventLog
from repro.obs.hist import Histogram
from repro.obs.registry import MetricsRegistry
from repro.obs.report import SearchReport, build_report
from repro.obs.tracing import (TraceContext, Tracer, bound, emit_span,
                               use_trace)
from repro.service.plans import FilterOnlyPlan
from repro.service.service import Service, ServiceResult
from repro.traffic.cache import ResultCache
from repro.traffic.pools import ShardPools
from repro.traffic.shedding import LoadShedder, ShedDecision

#: Counters the gateway maintains (``service.gateway.*`` namespace).
GATEWAY_COUNTERS = (
    "service.gateway.submitted",
    "service.gateway.cache_answers",
    "service.gateway.pool_answers",
    "service.gateway.ladder_answers",
    "service.gateway.floor_answers",
    "service.gateway.rejections",
    "service.gateway.invalidation_events",
)


class AsyncService:
    """Async facade over a :class:`repro.service.Service`.

    Parameters
    ----------
    service:
        The blocking service underneath (its corpus, ladder and
        admission stay authoritative for ladder execution).
    cache:
        Optional hot-query :class:`ResultCache`; consulted first. When
        the service serves a *live* :class:`repro.live.Corpus`, the
        gateway subscribes to its mutation events and invalidates the
        cache on every insert (drop everything — an insert can only
        add matches) and delete (drop the entries mentioning the
        string), and does not store an answer whose submit was
        overtaken by a write, so a hit is never staler than the
        corpus.
    shedder:
        Optional :class:`LoadShedder`; without one every request is
        admitted (the service's own slot pool still applies).
    pools:
        Optional :class:`ShardPools`; admitted requests then execute
        on the shard crews instead of the caller-side ladder.
    metrics:
        Optional registry mirroring gateway gauges and counters; also
        attached to a live corpus underneath so its ``live.*`` gauges
        land in the same registry.
    tracer:
        Optional :class:`repro.obs.tracing.Tracer`. The gateway mints
        one :class:`TraceContext` per submit — the root of that
        request's span tree — and threads it through the cache check,
        the shed decision, and whichever execution path runs (pools,
        ladder or floor), across the asyncio-to-thread boundary. The
        tracer is also attached to the underlying service so ladder
        spans join the same tree.
    events:
        Optional :class:`repro.obs.events.EventLog`. The gateway
        stamps admission/shed/cache lines with the submit's trace_id;
        the log is also attached to the service and any live corpus
        underneath, so ladder-rung, flush and compaction lines land in
        the same stream.

    Examples
    --------
    >>> import asyncio
    >>> service = Service(["Berlin", "Bern", "Ulm"], shards=2)
    >>> gateway = AsyncService(service, cache=ResultCache())
    >>> result = asyncio.run(gateway.submit("Berlino", 2))
    >>> result.status
    'complete'
    """

    def __init__(self, service: Service, *,
                 cache: ResultCache | None = None,
                 shedder: LoadShedder | None = None,
                 pools: ShardPools | None = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 events: EventLog | None = None) -> None:
        self._service = service
        self._cache = cache
        self._shedder = shedder
        self._pools = pools
        self._metrics = metrics
        self._tracer = tracer
        self._events = events
        self._floor = FilterOnlyPlan()
        self._counters = dict.fromkeys(GATEWAY_COUNTERS, 0)
        self._hists = {"gateway.submit_seconds": Histogram()}
        self._pending = 0
        self._last_seconds = 0.0
        self._invalidation_source = None
        source = getattr(service.corpus, "source", None)
        self._live_source = (source if source is not None
                             and getattr(source, "mutable", False)
                             else None)
        if tracer is not None:
            service.attach_tracer(tracer)
        if events is not None:
            service.attach_events(events)
        if self._live_source is not None \
                and (metrics is not None or events is not None):
            # One registry, one log for the whole stack: live.* gauges
            # and flush/compaction lines join the gateway's series.
            self._live_source.attach_observability(
                metrics=metrics, events=events)
        if cache is not None and self._live_source is not None:
            # The write path's cache contract: a mutation must drop
            # every cached answer it could change before the next
            # lookup. Inserts can only *add* matches, so they clear
            # everything; deletes only remove matches, so they drop
            # just the entries that mention the deleted string.
            self._live_source.subscribe(self._on_corpus_event)
            self._invalidation_source = self._live_source

    def _on_corpus_event(self, event) -> None:
        """Invalidate cached results on a live-corpus mutation.

        Runs on the mutating caller's thread (corpus events are
        synchronous); the cache is internally locked, so this is safe
        from any thread. Flush/compact events change layout, not
        logical contents, and are ignored.
        """
        cache = self._cache
        if cache is None or event.kind not in ("insert", "delete"):
            return
        self._count("service.gateway.invalidation_events")
        if event.kind == "insert":
            cache.invalidate()
            dropped = "all"
        else:
            cache.invalidate(event.string)
            dropped = event.string
        # trace_id defaults to the mutating caller's ambient trace, so
        # a traced insert's invalidation joins that insert's tree.
        self._emit_event("cache_invalidation", mutation=event.kind,
                         dropped=dropped, size=len(cache))
        self._set_gauges()

    @property
    def service(self) -> Service:
        """The blocking service underneath."""
        return self._service

    @property
    def cache(self) -> ResultCache | None:
        """The attached result cache, if any."""
        return self._cache

    @property
    def shedder(self) -> LoadShedder | None:
        """The attached load shedder, if any."""
        return self._shedder

    @property
    def pools(self) -> ShardPools | None:
        """The attached shard pools, if any."""
        return self._pools

    @property
    def tracer(self) -> Tracer | None:
        """The attached tracer, if any."""
        return self._tracer

    @property
    def events(self) -> EventLog | None:
        """The attached event log, if any."""
        return self._events

    def _emit_event(self, kind: str, *, trace_id: str | None = None,
                    **fields) -> None:
        """One event line (no-op without an attached log)."""
        if self._events is not None:
            self._events.emit(kind, trace_id=trace_id, **fields)

    def queue_depth(self) -> int:
        """Requests admitted by the gateway but not yet answered."""
        return self._pending

    def counters_snapshot(self) -> dict[str, int]:
        """Cumulative ``service.gateway.*`` counters."""
        return dict(self._counters)

    def _count(self, name: str, value: int = 1) -> None:
        self._counters[name] += value
        if self._metrics is not None:
            self._metrics.inc(name, value)

    def _set_gauges(self) -> None:
        if self._metrics is None:
            return
        self._metrics.gauge("service.queue_depth", self._pending)
        if self._cache is not None:
            self._metrics.gauge("service.cache.size", len(self._cache))
        if self._pools is not None:
            self._metrics.gauge(
                "pool.workers", sum(self._pools.workers().values()))

    # ----------------------------------------------------------------

    async def submit(self, query: str | SearchRequest,
                     k: int | None = None, *,
                     deadline: Deadline | Budget | None = None,
                     options: SearchOptions | None = None
                     ) -> ServiceResult:
        """Answer one request through cache, shedding and execution.

        Raises :class:`repro.exceptions.ServiceOverloaded` (with a
        ``retry_after_ms`` hint) when the shedder's reject watermark is
        breached. A shed-to-floor answer comes back as an honest
        ``candidates`` result, exactly like a ladder bottom-out.

        With a tracer attached, each call mints a fresh root context:
        the whole submit becomes one ``gateway.submit`` span whose
        children cover the cache probe and the execution path, across
        the event-loop-to-thread boundary (into the ladder's executor
        thread or a pool worker) — one tree per request. The shed
        decision rides the context's baggage (``shed=admit|degrade``),
        which is how ladder exemplars learn about it downstream.
        """
        request = as_request(query, k, deadline=deadline,
                             options=options)
        if request.is_batch:
            raise ReproError(
                "AsyncService.submit answers one query per call; use "
                "submit_many for workloads"
            )
        tracer = self._tracer
        context = tracer.mint() if tracer is not None else None
        trace_id = context.trace_id if context is not None else ""
        wall = time.time()
        submit_started = time.perf_counter()
        self._count("service.gateway.submitted")
        if self._cache is not None:
            lookup_started = time.perf_counter()
            hit = self._cache.get(request)
            self._cache_span(tracer, context, wall,
                             time.perf_counter() - lookup_started, hit)
            if hit is not None:
                self._count("service.gateway.cache_answers")
                self._emit_event("cache_hit", trace_id=trace_id,
                                 query=request.query)
                self._set_gauges()
                self._finish_root(tracer, context, wall, submit_started,
                                  outcome="cache")
                return hit
            self._emit_event("cache_miss", trace_id=trace_id,
                             query=request.query)
        decision = self._decide()
        if self._shedder is not None:
            self._emit_event("shed", trace_id=trace_id,
                             action=decision.action,
                             queue_depth=decision.queue_depth)
        if context is not None:
            context = context.with_baggage(shed=decision.action)
        if decision.action == "reject":
            self._count("service.gateway.rejections")
            self._set_gauges()
            self._finish_root(tracer, context, wall, submit_started,
                              outcome="rejected")
            hint = (f"; retry in ~{decision.retry_after_ms:.0f}ms"
                    if decision.retry_after_ms is not None else "")
            raise ServiceOverloaded(
                f"gateway shedding at queue depth "
                f"{decision.queue_depth}; submit rejected{hint}",
                capacity=decision.queue_depth,
                in_flight=decision.queue_depth,
                retry_after_ms=decision.retry_after_ms,
            )
        loop = asyncio.get_running_loop()
        # Read before the answer is computed: if the corpus moves while
        # the request is in flight, the answer may predate the write
        # whose invalidation has already run, and must not be cached.
        live = self._live_source
        epoch = live.epoch if live is not None else 0
        started = time.perf_counter()
        self._pending += 1
        self._set_gauges()
        outcome = "error"
        try:
            if decision.action == "degrade":
                self._count("service.gateway.floor_answers")
                result = await loop.run_in_executor(
                    None, bound(tracer, context, self._run_floor,
                                request))
            elif self._pools is not None:
                self._count("service.gateway.pool_answers")
                # Capture the trace on the ticket synchronously (no
                # await between install and submit), so pool workers
                # parent their shard spans under this request's root.
                with use_trace(tracer, context):
                    ticket = self._pools.submit(request)
                result = await loop.run_in_executor(None, ticket.result)
            else:
                self._count("service.gateway.ladder_answers")
                result = await loop.run_in_executor(
                    None, bound(tracer, context, self._service.submit,
                                request))
            outcome = result.status
        finally:
            self._pending -= 1
            seconds = time.perf_counter() - started
            self._last_seconds = seconds
            self._hists["gateway.submit_seconds"].record(seconds)
            if self._shedder is not None:
                self._shedder.observe_completion(seconds)
            self._finish_root(tracer, context, wall, submit_started,
                              outcome=outcome)
            self._set_gauges()
        if self._cache is not None \
                and (live is None or live.epoch == epoch):
            self._cache.put(request, result)
            self._set_gauges()
        return result

    def _cache_span(self, tracer: Tracer | None,
                    context: TraceContext | None, wall: float,
                    seconds: float, hit: ServiceResult | None) -> None:
        """One child span for the cache probe (hit or miss)."""
        if tracer is None or context is None:
            return
        tracer.record_span(
            "gateway.cache", context.child(), wall, seconds,
            tags={"outcome": "hit" if hit is not None else "miss"})

    def _finish_root(self, tracer: Tracer | None,
                     context: TraceContext | None, wall: float,
                     started: float, *, outcome: str) -> None:
        """Record the whole-submit root span (explicit-timing twin)."""
        if tracer is None or context is None:
            return
        tracer.record_span(
            "gateway.submit", context, wall,
            time.perf_counter() - started, tags={"outcome": outcome})

    async def submit_many(self, requests: Sequence[SearchRequest], *,
                          arrivals: Sequence[float] | None = None
                          ) -> list:
        """Run a workload of requests, optionally on an arrival schedule.

        ``arrivals`` gives each request's offset in seconds from the
        call (an **open-loop** schedule: request *i* launches at
        ``arrivals[i]`` whether or not earlier ones finished — the
        load-generation discipline that keeps latency honest under
        saturation). Without it every request launches immediately.

        Returns one entry per request, in request order; a rejected
        submit's entry is its :class:`ServiceOverloaded` (or other
        exception) instance rather than a raise, so a replay records
        rejections alongside answers.
        """
        if arrivals is not None and len(arrivals) != len(requests):
            raise ReproError(
                f"arrivals ({len(arrivals)}) and requests "
                f"({len(requests)}) must align"
            )

        async def timed(request: SearchRequest, offset: float):
            if offset > 0:
                await asyncio.sleep(offset)
            return await self.submit(request)

        tasks = [
            timed(request,
                  arrivals[index] if arrivals is not None else 0.0)
            for index, request in enumerate(requests)
        ]
        return await asyncio.gather(*tasks, return_exceptions=True)

    # ----------------------------------------------------------------

    def _decide(self) -> ShedDecision:
        depth = self._pending
        if self._shedder is None:
            return ShedDecision(action="admit", queue_depth=depth)
        return self._shedder.decide(depth)

    def _run_floor(self, request: SearchRequest) -> ServiceResult:
        """The shed path: straight to the filter-only floor, no queue."""
        started = time.perf_counter()
        outcome = self._floor.run(self._service.corpus, request.query,
                                  request.k, request.deadline)
        emit_span("gateway.floor", time.perf_counter() - started,
                  {"plan": outcome.plan})
        return ServiceResult(
            query=request.query, k=request.k, status="candidates",
            matches=tuple(outcome.matches), verified=False,
            plan=f"{outcome.plan}[shed]", attempts=1,
        )

    # ----------------------------------------------------------------

    def report(self, *, queries: int = 1, k: int = 0,
               matches: int = 0) -> SearchReport:
        """One validated report over the whole traffic stack.

        Counters fold together the gateway's own series, the cache's
        ``service.cache.*``, the shedder's ``service.shed.*``, the
        pools' ``pool.*`` and the underlying service's ``service.*``;
        histograms carry gateway latency next to the service and pool
        distributions; the ``gauges`` section snapshots
        ``service.queue_depth``, ``service.cache.size``, pool worker
        counts and — when the service fronts a live corpus — the
        ``service.delta_strings`` gauge (memtable plus hidden strings)
        and the ``live.memtable_size`` / ``live.segments`` /
        ``live.compactions_in_flight`` write-path gauges.
        """
        counters: dict[str, float] = dict(self._counters)
        counters.update(self._service.counters_snapshot())
        hists: dict[str, Histogram] = {
            name: hist.copy() for name, hist in self._hists.items()
        }
        hists.update(self._service.hists_snapshot())
        gauges: dict[str, float] = {
            "service.queue_depth": float(self._pending),
            **self._service.gauges_snapshot(),
        }
        if self._cache is not None:
            counters.update(self._cache.counters_snapshot())
            gauges["service.cache.size"] = float(len(self._cache))
        if self._shedder is not None:
            counters.update(self._shedder.counters_snapshot())
        if self._pools is not None:
            counters.update(self._pools.counters_snapshot())
            hists.update(self._pools.hists_snapshot())
            gauges["pool.workers"] = float(
                sum(self._pools.workers().values()))
        live = (self._live_source.live_corpus
                if self._live_source is not None else None)
        if live is not None:
            gauges["live.memtable_size"] = float(live.memtable_size)
            gauges["live.segments"] = float(len(live.segment_sizes()))
            gauges["live.compactions_in_flight"] = float(
                live.compactions_in_flight)
        parts = ["gateway"]
        if self._cache is not None:
            parts.append("cache")
        if self._shedder is not None:
            parts.append("shedding")
        parts.append("pools" if self._pools is not None else "ladder")
        return build_report(
            backend="traffic",
            engine="traffic[gateway]",
            mode="service",
            queries=queries,
            k=k,
            matches=matches,
            seconds=self._last_seconds,
            counters=counters,
            histograms=hists,
            gauges=gauges,
            choice_backend="traffic",
            choice_reason=" + ".join(parts),
        )
