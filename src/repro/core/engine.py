"""SearchEngine: the user-facing facade over both solutions.

The paper's conclusion is a decision rule: short strings over a large
alphabet favour the optimized sequential scan; long strings over a tiny
alphabet favour the trie index. The rule is not a constant, though —
the winner flips with the threshold ``k``, the query length and how
many queries arrive together. :class:`SearchEngine` therefore routes
``backend="auto"`` through the calibrated cost model of
:mod:`repro.core.planner`: every strategy (per-query scan, compiled
batch scan, flat trie) is scored against the corpus's
ANALYZE statistics and the request's shape, and the cheapest one
serves. :meth:`plan` / :meth:`explain` expose the ``EXPLAIN``-style
:class:`repro.core.planner.QueryPlan` behind any call, the same plan is
serialized into :attr:`last_report`, and every executed call feeds its
actual timings back into the planner (:meth:`Planner.observe_window`),
so the estimates track the hardware they run on.

The batch engines add the second axis: a scan-regime workload goes
through the compiled-corpus batch path (:mod:`repro.scan`); an
index-regime workload through the compiled flat-trie batch path
(:mod:`repro.index.batch`). Both are the one
:class:`repro.core.batch.BatchExecutor` — dedup, memo, fan-out,
bookkeeping — under a different probe.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Iterable

from repro.core.deadline import Budget, Deadline
from repro.core.indexed import IndexedSearcher
from repro.core.planner import (
    AUTO_POLICY,
    BATCH_STRATEGIES,
    DEFAULT_PLAN_K,
    STRATEGIES,
    CostProfile,
    Planner,
    PlannerPolicy,
    QueryPlan,
    collect_statistics,
)
from repro.core.request import (
    SearchOptions,
    SearchRequest,
    as_request,
)
from repro.core.result import Match, ResultSet
from repro.core.searcher import QueryRunner, Searcher
from repro.core.sequential import SequentialScanSearcher
from repro.data.workload import Workload
from repro.exceptions import ReproError
from repro.obs.hist import hists_delta
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import NULL, MetricsRegistry, counter_delta
from repro.obs.report import BatchCounters, SearchReport, build_report
from repro.obs.tracing import trace_span

#: Single-query windows shorter than this are dominated by Python
#: dispatch overhead, so they are not fed back into the planner's
#: corrections (multi-query windows always are).
SEARCH_FEEDBACK_FLOOR = 1e-3


class SearchEngine:
    """Similarity search with planner-driven backend selection.

    Parameters
    ----------
    dataset:
        The strings to search.
    backend:
        ``"auto"`` routes every call through the cost-model planner;
        ``"sequential"``, ``"indexed"`` (the compiled flat trie) or
        ``"compiled"`` (the batch-amortized scan of :mod:`repro.scan`)
        force a strategy.
    runner:
        Optional parallel runner used by :meth:`run_workload`.
    observe:
        Create a :class:`repro.obs.MetricsRegistry`, attach it to every
        backend the engine touches, and collect timer evidence in
        it (reachable as :attr:`metrics`). Off by default — the
        always-on work counters, per-query histograms and
        :attr:`last_report` do not need it.
    metrics:
        Use a caller-owned registry instead (implies ``observe``).
    recorder:
        Optional :class:`repro.obs.FlightRecorder` forwarded to every
        backend the engine touches, so slow queries leave exemplars
        (query, k, per-stage timings, work counters) no matter which
        component serves them.
    segment:
        Optional path to a corpus segment file (see
        :mod:`repro.speed`). The compiled backend then mmap-loads its
        corpus from the file — compiling and saving it first if the
        file does not exist yet — instead of compiling from scratch on
        every start. Implies ``backend="compiled"`` unless a backend
        was forced explicitly.
    profile:
        A :class:`repro.core.planner.CostProfile` (or a path to one
        persisted by :meth:`CostProfile.save`) for the planner's
        per-unit constants; defaults to the built-in profile.

    Examples
    --------
    >>> engine = SearchEngine(["Berlin", "Bern", "Ulm"])
    >>> engine.default_plan.strategy
    'sequential'
    >>> engine.explain("Berlino", 2).strategy
    'sequential'
    >>> [match.string for match in engine.search("Berlino", 2)]
    ['Berlin']
    >>> engine.last_report.matches
    1
    """

    def __init__(self, dataset: Iterable[str], *,
                 backend: str = "auto",
                 runner: QueryRunner | None = None,
                 observe: bool = False,
                 metrics: MetricsRegistry | None = None,
                 recorder: FlightRecorder | None = None,
                 segment: str | None = None,
                 profile: CostProfile | str | None = None) -> None:
        from repro.live.facade import Corpus

        if isinstance(dataset, Corpus):
            self._source: Corpus | None = dataset
            self._source_epoch = dataset.epoch
            strings = dataset.snapshot()
        else:
            self._source = None
            self._source_epoch = 0
            strings = tuple(dataset)
        if backend not in ("auto",) + STRATEGIES:
            raise ReproError(
                f"unknown backend {backend!r}; expected 'auto' or one "
                f"of {STRATEGIES}"
            )
        self._runner = runner
        self._strings = strings
        self._segment = segment
        if metrics is not None:
            self._metrics: MetricsRegistry | None = metrics
        else:
            self._metrics = MetricsRegistry() if observe else None
        self._recorder = recorder
        self._batch_index = None
        self._searchers: dict[str, Searcher] = {}
        self._last_call: dict | None = None
        self._last_report_cache: SearchReport | None = None
        if isinstance(profile, str):
            profile = CostProfile.load(profile)
        self._stats = collect_statistics(strings)
        self._planner = Planner(self._stats, profile=profile)
        segment_reason = None
        if backend != "auto":
            self._default_policy = PlannerPolicy(strategy=backend)
        elif segment is not None:
            self._default_policy = PlannerPolicy(strategy="compiled")
            segment_reason = ("segment-backed corpus serves the "
                             "compiled scan")
        else:
            self._default_policy = AUTO_POLICY
        representative = max(1, int(round(self._stats.mean_length)))
        self._default_plan = self._planner.plan(
            length=representative, k=DEFAULT_PLAN_K,
            policy=self._default_policy,
        )
        if segment_reason is not None:
            self._default_plan = replace(self._default_plan,
                                         reason=segment_reason)
        self._segment_reason = segment_reason
        self._searcher_for(self._default_plan.strategy)

    def _sync_with_source(self) -> None:
        """Re-derive everything when a live source corpus drifted.

        Engines built over a :class:`repro.live.Corpus` poll its epoch
        at call entry. On drift: re-snapshot the strings, refresh the
        planner's ANALYZE statistics (keeping its learned
        corrections), re-plan the dataset-level default and rebuild
        the searchers lazily. Many mutations between two calls cost
        one refresh, not one per mutation.
        """
        source = self._source
        if source is None or not source.mutable:
            return
        epoch = source.epoch
        if epoch == self._source_epoch:
            return
        self._source_epoch = epoch
        self._strings = source.snapshot()
        self._stats = collect_statistics(self._strings)
        self._planner.refresh_statistics(self._stats)
        representative = max(1, int(round(self._stats.mean_length)))
        self._default_plan = self._planner.plan(
            length=representative, k=DEFAULT_PLAN_K,
            policy=self._default_policy,
        )
        if self._segment_reason is not None:
            self._default_plan = replace(self._default_plan,
                                         reason=self._segment_reason)
        self._batch_index = None
        self._searchers.clear()
        self._searcher_for(self._default_plan.strategy)

    @property
    def source_corpus(self):
        """The :class:`repro.live.Corpus` behind this engine, if any."""
        return self._source

    def _attach_obs(self, component) -> None:
        """Attach the engine's registry/recorder where supported."""
        if self._metrics is not None:
            attach = getattr(component, "attach_metrics", None)
            if attach is not None:
                attach(self._metrics)
        if self._recorder is not None:
            attach = getattr(component, "attach_recorder", None)
            if attach is not None:
                attach(self._recorder)

    # ----------------------------------------------------------------
    # the planner surface

    @property
    def planner(self) -> Planner:
        """The engine's cost-model planner (see :mod:`repro.core.planner`)."""
        return self._planner

    @property
    def default_plan(self) -> QueryPlan:
        """The dataset-level plan behind the constructor's searcher.

        Scored for a representative query (the corpus's mean length at
        ``k=2``); per-call routing re-plans for each request's actual
        shape.
        """
        return self._default_plan

    def plan(self, query=None, k: int | None = None, *,
             deadline: Deadline | Budget | None = None,
             options: SearchOptions | None = None,
             plan: PlannerPolicy | None = None,
             batch: bool | None = None) -> QueryPlan:
        """The :class:`QueryPlan` a call with these arguments would use.

        Accepts the same spellings as :meth:`search`/:meth:`search_many`
        (a query string, a sequence of queries, or a
        :class:`SearchRequest`) and returns the EXPLAIN-style plan
        without executing anything.  ``batch`` overrides the executor
        mode: ``True`` scores only the batch executors, ``False`` the
        per-query searchers (workload mode); by default multi-query
        requests plan as batches.
        """
        self._sync_with_source()
        request = self._to_request(query, k, deadline=deadline,
                                   options=options, plan=plan)
        return self._plan_request(request, batch=batch)

    def explain(self, query=None, k: int | None = None, *,
                deadline: Deadline | Budget | None = None,
                options: SearchOptions | None = None,
                plan: PlannerPolicy | None = None,
                batch: bool | None = None) -> QueryPlan:
        """Alias of :meth:`plan` (the SQL ``EXPLAIN`` spelling).

        ``print(engine.explain("Berlino", 2).render())`` prints the
        per-strategy cost table.
        """
        return self.plan(query, k, deadline=deadline, options=options,
                         plan=plan, batch=batch)

    def _plan_request(self, request: SearchRequest, *,
                      batch: bool | None = None) -> QueryPlan:
        """Plan one normalized request with the engine's default policy.

        ``batch`` overrides batch-executor feasibility: workload mode
        runs per-query searchers, so a multi-query request may still
        use the non-batch strategies there.
        """
        policy = request.plan if request.plan is not None \
            else self._default_policy
        return self._planner.plan_queries(
            list(request.queries), request.k,
            batch=request.is_batch if batch is None else batch,
            policy=policy,
        )

    @property
    def searcher(self) -> Searcher:
        """The default plan's searcher (for inspection)."""
        return self._searcher_for(self._default_plan.strategy)

    @property
    def metrics(self) -> MetricsRegistry | None:
        """The attached observability registry (``None`` unless asked)."""
        return self._metrics

    @property
    def recorder(self) -> FlightRecorder | None:
        """The attached flight recorder (``None`` unless asked)."""
        return self._recorder

    @property
    def last_report(self) -> SearchReport | None:
        """The :class:`repro.obs.SearchReport` of the last engine call.

        ``None`` before the first call. Always describes the backend
        that *actually served* the call — including a per-call
        ``plan=`` override on :meth:`search_many` — never a stale
        sibling, and carries the serialized :class:`QueryPlan` in its
        ``plan`` section. Built lazily from snapshots taken around the
        call, so reading it costs nothing on the hot path.
        """
        if self._last_call is None:
            return None
        if self._last_report_cache is None:
            call = dict(self._last_call)
            plan = call.pop("plan_obj", None)
            call["plan"] = plan.to_dict() if plan is not None else None
            self._last_report_cache = build_report(**call)
        return self._last_report_cache

    # ----------------------------------------------------------------
    # report plumbing

    @staticmethod
    def _batch_state(component) -> tuple[int, int, int, int] | None:
        """The dedup/memo totals of a component's batch executor."""
        stats = getattr(getattr(component, "executor", component),
                        "stats", None)
        if stats is None:
            return None
        return (stats.queries_seen, stats.unique_queries,
                stats.cache_hits, stats.scans_executed)

    def _timers_delta(self, before: dict) -> dict:
        if self._metrics is None:
            return {}
        delta: dict = {}
        for name, cell in self._metrics.timers().items():
            prior = before.get(name)
            seconds = cell["seconds"] - (prior["seconds"] if prior else 0.0)
            calls = cell["calls"] - (prior["calls"] if prior else 0)
            if calls or seconds:
                delta[name] = {"seconds": seconds, "calls": calls}
        return delta

    def _feed_planner(self, strategy: str, k: int,
                      lengths: list[int], seconds: float) -> None:
        """Close the loop: executed window -> planner correction."""
        try:
            self._planner.observe_window(strategy, k, lengths, seconds)
        except Exception:  # pragma: no cover - observation is advisory
            pass

    def _observed_call(self, *, component, queries: list[str],
                       engine_name: str, mode: str, k: int,
                       call: Callable[[], ResultSet | list[Match]],
                       plan: QueryPlan):
        """Run one engine call and capture its report window.

        ``component`` is the searcher or batch executor the plan names.
        Its counters and histograms are cumulative; the window is the
        before/after difference, so the report holds exactly this
        call's work no matter how many calls came before. The window
        also feeds the planner's online corrections.
        """
        counters_of = getattr(component, "counters_snapshot", dict)
        hists_of = getattr(component, "hists_snapshot", dict)
        counters_before = counters_of()
        hists_before = hists_of()
        batch_before = self._batch_state(component)
        before_timers = (dict(self._metrics.timers())
                         if self._metrics is not None else {})
        section = f"engine.{mode}"
        metrics = self._metrics if self._metrics is not None else NULL
        started = time.perf_counter()
        with metrics.timer(section), trace_span(section):
            result = call()
        seconds = time.perf_counter() - started
        batch_after = self._batch_state(component)
        self._last_call = {
            "backend": plan.strategy,
            "engine": engine_name,
            "mode": mode,
            "queries": len(queries),
            "k": k,
            "matches": (result.total_matches
                        if isinstance(result, ResultSet) else len(result)),
            "seconds": seconds,
            "counters": counter_delta(counters_before, counters_of()),
            "timers": self._timers_delta(before_timers),
            # Live Histogram deltas; build_report summarizes lazily.
            "histograms": hists_delta(hists_before, hists_of()),
            "batch": (BatchCounters(*(after - prior for after, prior
                                      in zip(batch_after, batch_before)))
                      if batch_after is not None else None),
            "choice_backend": plan.strategy,
            "choice_reason": plan.reason,
            "plan_obj": plan,
        }
        self._last_report_cache = None
        if mode != "search" or seconds >= SEARCH_FEEDBACK_FLOOR:
            # Single-query windows only carry signal once the measured
            # work dwarfs Python dispatch overhead; below the floor
            # the observation would teach the planner the overhead,
            # not the strategy.
            self._feed_planner(
                plan.strategy, k,
                sorted({len(query) for query in queries}) or [1],
                seconds,
            )
        return result

    def _make_compiled_searcher(self) -> Searcher:
        """A compiled-scan searcher, segment-backed when configured."""
        from repro.scan.searcher import CompiledScanSearcher

        if self._segment is not None:
            from repro.speed import load_or_build_corpus_segment

            corpus = load_or_build_corpus_segment(self._strings,
                                                  self._segment)
            return CompiledScanSearcher(corpus)
        if self._source is not None and not self._source.mutable:
            compiled = self._source.compiled_corpus
            if compiled is not None:
                # A frozen Corpus already paid the compile; share it.
                return CompiledScanSearcher(compiled)
        return CompiledScanSearcher(self._strings)

    def _ensure_batch_index(self):
        if self._batch_index is None:
            from repro.index.batch import BatchIndexExecutor
            from repro.index.flat import FlatTrie

            flat = getattr(self._searchers.get("indexed"), "flat_trie",
                           None)
            if flat is None:
                flat = FlatTrie(self._strings)
            self._batch_index = BatchIndexExecutor(flat)
            self._attach_obs(self._batch_index)
        return self._batch_index

    # ----------------------------------------------------------------
    # request plumbing

    def _to_request(self, query, k, *, deadline=None,
                    report: bool = False,
                    options: SearchOptions | None = None,
                    plan: PlannerPolicy | None = None,
                    batch: bool = False) -> SearchRequest:
        """Normalize legacy arguments or a :class:`SearchRequest`.

        The legacy ``report=`` flag folds into ``options.report``;
        combining it with an explicit request (or explicit options) is
        a conflict, mirroring :func:`repro.core.request.as_request`.
        """
        if report:
            if isinstance(query, SearchRequest) or options is not None:
                raise ReproError(
                    "pass report inside SearchOptions, not alongside a "
                    "SearchRequest/options value"
                )
            options = SearchOptions(report=True)
        return as_request(query, k, deadline=deadline, options=options,
                          plan=plan, batch=batch)

    def _searcher_for(self, strategy: str) -> Searcher:
        """The searcher serving one planned (or forced) strategy.

        Built (and instrumented) on first use and kept, so one engine
        can serve any strategy per request; the constructor builds the
        default plan's.
        """
        searcher = self._searchers.get(strategy)
        if searcher is not None:
            return searcher
        if strategy == "compiled":
            searcher = self._make_compiled_searcher()
        elif strategy == "sequential":
            searcher = SequentialScanSearcher(
                self._strings, kernel="bitparallel", order="length"
            )
        elif strategy == "indexed":
            searcher = IndexedSearcher(self._strings, index="flat")
        else:
            raise ReproError(
                f"unknown strategy {strategy!r}; expected one of "
                f"{STRATEGIES}"
            )
        self._attach_obs(searcher)
        self._searchers[strategy] = searcher
        return searcher

    # ----------------------------------------------------------------
    # the one-call API

    def search(self, query: str | SearchRequest, k: int | None = None,
               *, deadline: Deadline | Budget | None = None,
               options: SearchOptions | None = None,
               plan: PlannerPolicy | None = None,
               report: bool = False):
        """All dataset strings within edit distance ``k`` of ``query``.

        Accepts either the legacy positional form (``query, k`` plus
        keywords) or a single :class:`repro.core.request.SearchRequest`
        carrying the same information; a batch request is routed to
        :meth:`search_many`. ``plan=`` takes a
        :class:`PlannerPolicy` (forcing a strategy or restricting the
        planner). With ``report=True`` (or ``options.report``) returns
        ``(matches, SearchReport)``; either way :attr:`last_report`
        describes this call afterwards.

        A ``deadline`` bounds the work: on expiry the call raises
        :class:`repro.exceptions.DeadlineExceeded` carrying the
        verified partial matches found so far.
        """
        self._sync_with_source()
        request = self._to_request(query, k, deadline=deadline,
                                   report=report, options=options,
                                   plan=plan)
        if request.is_batch:
            return self.search_many(request)
        qplan = self._plan_request(request)
        component = self._searcher_for(qplan.strategy)
        matches = self._observed_call(
            component=component,
            queries=[request.query],
            engine_name=getattr(component, "name", qplan.strategy),
            mode="search",
            k=request.k,
            call=lambda: component.search(request.query, request.k,
                                          deadline=request.deadline),
            plan=qplan,
        )
        if request.options.report:
            return matches, self.last_report
        return matches

    def search_many(self, queries: Iterable[str] | SearchRequest,
                    k: int | None = None, *,
                    deadline: Deadline | Budget | None = None,
                    options: SearchOptions | None = None,
                    plan: PlannerPolicy | None = None,
                    report: bool = False):
        """Answer a whole batch of queries at one threshold.

        In the scan regime this routes through the compiled-corpus
        batch engine — queries are deduplicated, the corpus is encoded
        and bucketed once, and repeats hit the result memo. In the
        index regime it routes through the compiled flat-trie batch
        engine (:class:`repro.index.batch.BatchIndexExecutor`), which
        dedupes and memoizes the same way and fans distinct queries
        out over the configured runner. The planner scores both per
        batch.

        ``plan=`` overrides the routing for this call only:
        ``PlannerPolicy(strategy="compiled")`` forces the batch scan,
        ``PlannerPolicy(strategy="indexed")`` the batch index.
        :attr:`last_report` always reflects the executor that
        actually served this call.
        A :class:`SearchRequest` may be passed instead of
        ``queries``/``k``; its fields supply the same information.

        Results are always one row per input query, in input order,
        identical to calling :meth:`search` in a loop. With
        ``report=True`` returns ``(results, SearchReport)``. With a
        ``deadline``, distinct queries execute serially and expiry
        raises :class:`repro.exceptions.DeadlineExceeded` whose
        ``partial`` maps each *completed* query to its full row.
        """
        self._sync_with_source()
        request = self._to_request(queries, k, deadline=deadline,
                                   report=report, options=options,
                                   plan=plan, batch=True)
        results = self._execute_batch(request, mode="batch")
        if request.options.report:
            return results, self.last_report
        return results

    def _batch_executor_for(self, strategy: str):
        """(executor, engine name, ``search_many``) of a batch strategy."""
        if strategy == "indexed":
            executor = self._ensure_batch_index()
            return executor, "batch-index[flat]", executor.search_many
        searcher = self._searcher_for("compiled")
        return searcher.executor, searcher.name, searcher.search_many

    def _execute_batch(self, request: SearchRequest, *,
                       mode: str) -> ResultSet:
        """Serve one batch through the batch executor its plan names."""
        policy = request.plan
        if policy is None:
            policy = self._default_policy
            if policy.strategy is not None \
                    and policy.strategy not in BATCH_STRATEGIES:
                # An engine-level sequential force cannot serve a
                # batch; let the planner pick among the batch executors.
                policy = PlannerPolicy(allow=BATCH_STRATEGIES)
        query_list = list(request.queries)
        qplan = self._planner.plan_queries(query_list, request.k,
                                           batch=True, policy=policy)
        if qplan.strategy not in BATCH_STRATEGIES:
            raise ReproError(
                f"unknown batch backend {qplan.strategy!r}; expected "
                f"None or one of {BATCH_STRATEGIES} (the per-query scan "
                "has no batch executor)"
            )
        executor, name, search_many = self._batch_executor_for(
            qplan.strategy)
        return self._observed_call(
            component=executor,
            queries=query_list,
            engine_name=name,
            mode=mode,
            k=request.k,
            call=lambda: search_many(query_list, request.k,
                                     runner=self._runner,
                                     deadline=request.deadline),
            plan=qplan,
        )

    def run_workload(self, workload: Workload | SearchRequest, *,
                     deadline: Deadline | Budget | None = None,
                     report: bool = False):
        """Execute a workload through the configured runner.

        With ``report=True`` returns ``(results, SearchReport)``; the
        report's mode is ``"workload"``. Accepts a
        :class:`SearchRequest` (built with
        :meth:`SearchRequest.from_workload`) in place of a workload.
        With a ``deadline`` the workload routes through the batch
        engine serially so expiry has a well-defined abort point.
        """
        self._sync_with_source()
        if isinstance(workload, SearchRequest):
            request = self._to_request(workload, None, deadline=deadline,
                                       report=report)
            run = Workload(queries=request.queries, k=request.k)
        else:
            request = SearchRequest.from_workload(
                workload, deadline=deadline,
                options=SearchOptions(report=report),
            )
            run = workload
        if request.deadline is not None:
            results = self._execute_batch(request, mode="workload")
            if request.options.report:
                return results, self.last_report
            return results
        # Workload mode runs per-query searchers through the runner, so
        # every strategy is feasible regardless of batch size.
        qplan = self._plan_request(request, batch=False)
        component = self._searcher_for(qplan.strategy)
        results = self._observed_call(
            component=component,
            queries=list(request.queries),
            engine_name=getattr(component, "name", qplan.strategy),
            mode="workload",
            k=request.k,
            call=lambda: component.run_workload(run, self._runner),
            plan=qplan,
        )
        if request.options.report:
            return results, self.last_report
        return results

    def timed_workload(self, workload: Workload) -> tuple[ResultSet, float]:
        """Execute a workload and report (results, elapsed seconds).

        Times only query execution, like the paper (index build happened
        in the constructor). The same window is what
        :attr:`last_report` records as ``seconds``.
        """
        results = self.run_workload(workload)
        assert self._last_call is not None
        return results, self._last_call["seconds"]
