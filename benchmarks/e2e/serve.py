"""``city_serve`` and ``live_mixed``: requests through the gateway stack.

Both drive ``AsyncService(Service(data, shards=2), cache=ResultCache(4096),
shedder=LoadShedder(Watermarks(16, 64)))`` from one process: a Zipf
stream over a pool of distinct perturbed queries spread over the
workload's three thresholds, closed loop with one client.
``city_serve`` serves a frozen corpus; its traced run adds open-loop
phases (a fixed arrival schedule, latency from the *scheduled*
arrival). ``live_mixed`` serves a ``Corpus.live`` and mixes writes in:
every tenth operation inserts or deletes a string, which empties the
cache and forces a re-shard before the next read.
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass

import layers
from common import (
    Context,
    Outcome,
    SpeedProbe,
    check_answers,
    end_to_end,
    median,
    percentile,
)
from inputs import (
    GENERATORS,
    QuerySource,
    ZipfStream,
    corpus_path,
    load_corpus,
    request_pool,
)
from repro import Corpus, Service
from repro.core.deadline import Deadline
from repro.exceptions import ServiceOverloaded
from repro.traffic import AsyncService, LoadShedder, ResultCache, Watermarks
from spans import SpanRecorder

perf_counter = time.perf_counter

#: Open-loop phases give every request this long (seconds).
OPEN_LOOP_DEADLINE = 5.0

#: An open-loop rate "holds" when p95 from scheduled arrival stays
#: under this and the backlog is not growing when the schedule ends.
#: (One k=3 request that misses the cache takes about 100 ms alone.)
RATE_OK_P95_MS = 250.0

#: The popularity schedule (which pool entry each request asks for) is
#: part of the workload, not of the seed: every run replays the same
#: Zipf rank sequence over its own seeded strings, so hit ratio and
#: rung order repeat exactly and only the content differs.
SCHEDULE_SEED = 2013

#: Strings the sharded-vs-whole probe runs over (two extra trie builds
#: over the full corpus would double the traced run).
SHARDING_PROBE_STRINGS = 20_000


@dataclass(frozen=True)
class ServeSpec:
    name: str
    strings: int
    ladder: tuple[int, int, int]
    #: tenths of the requests on each rung
    rung_shares: tuple[int, int, int]
    pool_size: int
    zipf_exponent: float
    live: bool
    #: how many times the stack is built; ``setup_s`` is the median
    set_ups: int
    #: base rate of the traced run's open-loop phases (0: none)
    open_rate: int
    #: one write per this many operations (0: read only)
    write_every: int
    #: seeded writes applied while setting up, so that the measured
    #: corpus already holds several flushed segments
    prefill_writes: int
    check_per_rung: int
    #: closed-loop operations one run measures (at the nominal
    #: ``--seconds``): the same stretch of the schedule every time
    ops: int
    #: ``ops_per_s`` is the median rate over consecutive blocks of
    #: this many completed closed-loop operations
    rate_block: int
    #: operations in each pass of the traced run
    pass_ops: int
    #: requests per rung and plan in the forced-plan probes
    forced_size: int


CITY_SERVE = ServeSpec(
    name="city_serve", strings=200_000, ladder=(1, 2, 3),
    rung_shares=(6, 3, 1), pool_size=6000, zipf_exponent=0.8, live=False,
    set_ups=3, open_rate=30, write_every=0,
    prefill_writes=0, check_per_rung=10, ops=650, rate_block=50,
    pass_ops=400,
    forced_size=10,
)

LIVE_MIXED = ServeSpec(
    name="live_mixed", strings=20_000, ladder=(1, 2, 3),
    rung_shares=(5, 3, 2), pool_size=6000, zipf_exponent=0.8, live=True,
    set_ups=3, open_rate=0, write_every=10,
    prefill_writes=96, check_per_rung=17, ops=160, rate_block=10,
    pass_ops=60,
    forced_size=10,
)

FLUSH_THRESHOLD = 8


def new_gateway(service: Service) -> AsyncService:
    return AsyncService(
        service, cache=ResultCache(maxsize=4096),
        shedder=LoadShedder(Watermarks(shed_depth=16, reject_depth=64)))


class Writer:
    """Seeded inserts and deletes, mirrored into a model multiset."""

    def __init__(self, corpus: Corpus, strings, ctx: Context) -> None:
        self.corpus = corpus
        self.initial = Counter(strings)
        self.log: list[tuple[str, str]] = []
        self._present = list(strings)
        self._rng = ctx.rng("writes")
        self._fresh = (name for name in GENERATORS["city"](
            4 * ctx.count(1000) + 1000, seed=ctx.seed + 1)
            if name not in self.initial)
        self._next_insert = True

    def write(self) -> None:
        if self._next_insert:
            string = next(self._fresh)
            self.corpus.insert(string)
            self._present.append(string)
        else:
            slot = self._rng.randrange(len(self._present))
            string = self._present[slot]
            self._present[slot] = self._present[-1]
            self._present.pop()
            self.corpus.delete(string)
        self.log.append(("insert" if self._next_insert else "delete",
                         string))
        self._next_insert = not self._next_insert

    def model_after(self, writes: int) -> Counter:
        """The multiset the corpus must equal after ``writes`` writes."""
        model = Counter(self.initial)
        for kind, string in self.log[:writes]:
            model[string] += 1 if kind == "insert" else -1
        return +model


class Stack:
    """The built serving stack of one workload."""

    def __init__(self, spec: ServeSpec, strings, ctx: Context,
                 scratch: str) -> None:
        self.writer = None
        self.segment_dir = None
        if spec.live:
            self.segment_dir = tempfile.mkdtemp(prefix="segments-",
                                                dir=scratch)
            corpus = Corpus.live(strings, flush_threshold=FLUSH_THRESHOLD,
                                 segment_dir=self.segment_dir)
            self.writer = Writer(corpus, strings, ctx)
            for _ in range(spec.prefill_writes):
                self.writer.write()
            self.service = Service(corpus, shards=2)
        else:
            self.service = Service(strings, shards=2)
        self.gateway = new_gateway(self.service)

    async def warm_up(self, source: QuerySource, ladder) -> None:
        for k in ladder:
            await self.gateway.submit(source.batch(1, k)[0], k)


class Driver:
    """Issues operations and records what came back."""

    def __init__(self, spec: ServeSpec, stack: Stack, stream,
                 probe: SpeedProbe | None = None) -> None:
        self.spec = spec
        self.stack = stack
        self.gateway = stack.gateway
        self.stream = stream
        self.recorder: SpanRecorder | None = None
        # per read: (rung, latency ms, query, k, matches, writes so far,
        # answered from the cache)
        self.reads: list[tuple] = []
        self.write_ms: list[float] = []
        # seconds each closed-loop operation took, in order
        self.op_seconds: list[float] = []
        self.failed = 0
        #: whether shed, rejected and partial answers count as failed
        #: (not in the open-loop phases that overload on purpose)
        self.strict = True
        self.operations = 0
        #: ticked before every block of the gated run; None when traced
        self.probe = probe

    def fresh_cache(self) -> None:
        self.gateway = new_gateway(self.stack.service)

    async def read(self, query: str, k: int, *, due: float | None = None,
                   deadline: float | None = None) -> None:
        self.operations += 1
        cache = self.gateway.cache
        hits = cache.counters_snapshot()["service.cache.hits"]
        started = perf_counter() if due is None else due
        try:
            limit = Deadline(deadline) if deadline is not None else None
            if self.recorder is None:
                result = await self.gateway.submit(query, k,
                                                   deadline=limit)
            else:
                with self.recorder.op("gateway.submit",
                                      f"op{self.operations}"):
                    result = await self.gateway.submit(query, k,
                                                       deadline=limit)
        except ServiceOverloaded:
            self.failed += self.strict
            return
        except Exception as error:
            print(f"submit failed: {error!r}", file=sys.stderr)
            self.failed += 1
            return
        latency = (perf_counter() - started) * 1e3
        # Exact with one request in flight; in the open-loop phases,
        # whose latencies are not split by it, only roughly.
        hit = cache.counters_snapshot()["service.cache.hits"] > hits
        matches = result.matches
        if result.status != "complete":
            # Shed or partial: a failure wherever the load is meant to
            # be carried, and never an answer to check.
            self.failed += self.strict
            matches = None
        writes = len(self.stack.writer.log) if self.stack.writer else 0
        self.reads.append((self.spec.ladder.index(k), latency, query, k,
                           matches, writes, hit))

    def write(self) -> None:
        self.operations += 1
        started = perf_counter()
        try:
            if self.recorder is None:
                self.stack.writer.write()
            else:
                with self.recorder.op("live.write",
                                      f"op{self.operations}"):
                    self.stack.writer.write()
        except Exception as error:
            print(f"write failed: {error!r}", file=sys.stderr)
            self.failed += 1
        self.write_ms.append((perf_counter() - started) * 1e3)

    async def closed_loop(self, count: int) -> float:
        """One client sending its next operation when the last one is
        answered, ``count`` operations; returns the seconds it took."""
        started = perf_counter()
        every = self.spec.write_every
        for issued in range(1, count + 1):
            if self.probe is not None \
                    and issued % self.spec.rate_block == 1:
                self.probe.tick()
            began = perf_counter()
            if every and issued % every == 0:
                self.write()
            else:
                await self.read(*next(self.stream))
            self.op_seconds.append(perf_counter() - began)
        return perf_counter() - started

    async def open_loop(self, rate: float, seconds: float) -> dict:
        """Arrivals every ``1 / rate`` s whatever the answers do."""
        total = max(1, int(rate * seconds))
        first = len(self.reads)
        tasks, lags = [], []
        started = perf_counter() + 0.01
        for index in range(total):
            due = started + index / rate
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append((perf_counter() - due) * 1e3)
            tasks.append(asyncio.create_task(self.read(
                *next(self.stream), due=due,
                deadline=OPEN_LOOP_DEADLINE)))
        backlog = sum(1 for task in tasks if not task.done())
        await asyncio.gather(*tasks)
        # At least one value, so that a phase that shed everything
        # still reports (as its deadline).
        latencies = [read[1] for read in self.reads[first:]] \
            or [OPEN_LOOP_DEADLINE * 1e3]
        return {
            "rate": rate, "sent": total, "answered": len(latencies),
            "backlog_at_end": backlog,
            "p50_ms": median(latencies),
            "p95_ms": percentile(latencies, 0.95),
            "p99_ms": percentile(latencies, 0.99),
            "max_ms": max(latencies),
            "lag_p99_ms": percentile(lags, 0.99),
        }

    def block_rates(self) -> list[float]:
        """Operations per second of time spent in operations, for each
        full block of consecutive operations."""
        block, seconds = self.spec.rate_block, self.op_seconds
        return [block / sum(seconds[first:first + block])
                for first in range(0, len(seconds) - block + 1, block)]

    def rung_medians(self) -> list[float]:
        """Median latency per rung of the reads the cache did not answer.

        A cache hit takes microseconds and a miss milliseconds; a
        median over both sits on whichever side holds the majority and
        jumps when that changes. What the hits save shows in
        ``ops_per_s``, which counts every operation.
        """
        return [median([read[1] for read in self.reads
                        if read[0] == rung and not read[6]])
                for rung in range(3)]

    def exact_counts(self) -> dict[str, int]:
        """Counts that a seed fixes, with one operation in flight."""
        counts = {
            "reads": len(self.reads),
            "writes": len(self.write_ms),
            "cache_hits": sum(1 for read in self.reads if read[6]),
            "matches": sum(len(read[4] or ()) for read in self.reads),
        }
        service = self.stack.service.counters_snapshot()
        counts["service.corpus_refreshes"] = \
            service["service.corpus_refreshes"]
        return counts


def check_reads(spec: ServeSpec, stack: Stack, strings, reads,
                ctx: Context) -> tuple[int, int]:
    """A seeded sample of reads against the reference scan.

    On the live workload the reference scans a from-scratch rebuild of
    the model multiset as it stood when the read was answered.
    """
    answers = [[(query, k, matches, writes)
                for rung, _, query, k, matches, writes, _ in reads
                if rung == wanted and matches is not None]
               for wanted in range(3)]

    def corpus_at(writes: int):
        if stack.writer is None:
            return strings
        return list(stack.writer.model_after(writes).elements())

    return check_answers(answers, spec.check_per_rung, ctx.rng("check"),
                         corpus_at)


def check_reopen(stack: Stack) -> tuple[bool, float]:
    """``sync()``, reopen from disk, compare with the model multiset."""
    corpus = stack.writer.corpus
    corpus.sync()
    started = perf_counter()
    reopened = Corpus.open(stack.segment_dir)
    seconds = perf_counter() - started
    model = stack.writer.model_after(len(stack.writer.log))
    return multiset(reopened) == model == multiset(corpus), seconds


def multiset(corpus: Corpus) -> Counter:
    live = corpus.live_corpus
    return Counter({string: live.count(string)
                    for string in live.snapshot()})


def run(spec: ServeSpec, ctx: Context) -> Outcome:
    strings = load_corpus(ctx.inputs_dir, "city",
                          ctx.corpus_size(spec.strings), ctx.seed)
    os.makedirs(ctx.out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{spec.name}-", dir=ctx.out_dir)
    try:
        return asyncio.run(run_async(spec, ctx, strings, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


async def run_async(spec: ServeSpec, ctx: Context, strings,
                    scratch: str) -> Outcome:
    source = QuerySource(strings, "city", ctx.seed)
    pool = request_pool(source, spec.ladder, spec.rung_shares,
                        ctx.corpus_size(spec.pool_size), ctx.rng("pool"))
    stream = ZipfStream(pool, spec.zipf_exponent, SCHEDULE_SEED)
    outcome = Outcome()
    recorder = SpanRecorder() if ctx.trace else None

    set_up_seconds = []
    stack = None
    for _ in range(spec.set_ups if not ctx.trace else 1):
        stack = None  # the earlier build goes before the next one comes
        gc.collect()
        started = perf_counter()
        if recorder is None:
            stack = Stack(spec, strings, ctx, scratch)
            await stack.warm_up(source, spec.ladder)
        else:
            with recorder.installed(layers.trace_points()):
                stack = Stack(spec, strings, ctx, scratch)
                await stack.warm_up(source, spec.ladder)
        set_up_seconds.append(perf_counter() - started)
    driver = Driver(spec, stack, stream,
                    None if ctx.trace else SpeedProbe())

    if ctx.trace:
        await traced_passes(spec, ctx, strings, source, driver, recorder,
                            outcome)
    else:
        await driver.closed_loop(ctx.count(spec.ops))
        rates = driver.block_rates()
        outcome.end_to_end = end_to_end(
            median(set_up_seconds), median(rates), driver.rung_medians(),
            driver.probe, outcome.info)
        outcome.info["exact_counts"] = driver.exact_counts()
        latencies = [read[1] for read in driver.reads]
        outcome.info["samples"] = {
            "ops_per_s": len(rates),
            "setup_s": len(set_up_seconds),
            **{f"rung{rung + 1}_ms":
               sum(1 for read in driver.reads
                   if read[0] == rung and not read[6])
               for rung in range(3)}}
        outcome.info["diagnostics"] = {
            "p95_ms": percentile(latencies, 0.95),
            "p99_ms": percentile(latencies, 0.99),
            "max_ms": max(latencies), "reads": len(latencies),
            "writes": len(driver.write_ms)}

    outcome.attempted += driver.operations
    outcome.failed += driver.failed
    checked, wrong = check_reads(spec, stack, strings, driver.reads, ctx)
    if spec.live:
        same, reopen_seconds = check_reopen(stack)
        checked += 1
        wrong += 0 if same else 1
        outcome.per_layer["live.reopen_s"] = reopen_seconds
        outcome.info["reopen_equals_model"] = same
    outcome.checked = checked
    outcome.failed += wrong
    outcome.info.update(strings=len(strings), ladder=list(spec.ladder),
                        answers_checked=checked, answers_wrong=wrong)
    return outcome


# -- the traced run ----------------------------------------------------


async def traced_passes(spec: ServeSpec, ctx: Context, strings, source,
                        driver: Driver, recorder: SpanRecorder,
                        outcome: Outcome) -> None:
    layer = outcome.per_layer
    stack = driver.stack
    layers.set_up_spans(layer, recorder)
    # Untraced and traced stretches alternate (two of each, every one
    # on a fresh cache and the next stretch of the schedule), because
    # the stack keeps getting faster for a while after its warm-up: one
    # pass after the other would credit that to whichever ran second.
    # A stretch holds whole write cycles whatever ``--seconds`` is.
    stretch = max(ctx.count(spec.pass_ops) // 2, spec.write_every, 1)
    operations = 2 * stretch
    plain_wall = traced_wall = 0.0
    plain_reads, traced_reads = [], []
    cache = Counter()
    for _ in range(2):
        for reads, trace in ((plain_reads, None), (traced_reads, recorder)):
            if not spec.live:
                driver.fresh_cache()
            first = len(driver.reads)
            driver.recorder = trace
            if trace is None:
                plain_wall += await driver.closed_loop(stretch)
                cache.update(driver.gateway.cache.counters_snapshot())
            else:
                with recorder.installed(layers.trace_points()):
                    traced_wall += await driver.closed_loop(stretch)
            reads.extend(driver.reads[first:])
    driver.recorder = None
    if spec.live:
        # One gateway served every stretch: its counters are cumulative.
        cache = driver.gateway.cache.counters_snapshot()
    layer["obs.tracing_overhead_ratio"] = traced_wall / plain_wall

    layers.write_budget(outcome, recorder, spec.name,
                        ("gateway.submit", "live.write"), operations,
                        traced_wall, ctx)
    searches = [span["end"] - span["start"] for span in recorder.spans
                if span["name"] == "sharding.search"]
    layer["service.sharding.search_ms"] = \
        sum(searches) / len(searches) * 1e3 if searches else 0.0
    lookups = cache["service.cache.hits"] + cache["service.cache.misses"]
    layer["traffic.cache.hit_ratio"] = cache["service.cache.hits"] / lookups
    layer["traffic.cache.invalidations"] = \
        cache["service.cache.invalidations"]
    service = stack.service.counters_snapshot()
    layer["service.degraded_share"] = \
        service["service.degraded"] / max(1, service["service.submitted"])
    layer["service.corpus_refreshes"] = service["service.corpus_refreshes"]
    # Taken before the open-loop phases, whose overload is timing.
    outcome.info["exact_counts"] = {
        **driver.exact_counts(),
        "traffic.cache.invalidations":
            cache["service.cache.invalidations"],
    }

    if spec.open_rate:
        await rate_ladder(spec, ctx, driver, layer, outcome)
    else:
        latencies = [read[1] for read in plain_reads]
        layer["gateway.submit_p50_ms"] = median(latencies)
        layer["gateway.submit_p95_ms"] = percentile(latencies, 0.95)
        layer["gateway.submit_p99_ms"] = percentile(latencies, 0.99)
        layer["gateway.submit_max_ms"] = max(latencies)
    if spec.live:
        live_probes(layer, stack, driver, source, spec, outcome)

    outcome.info["exact_counts"].update(
        forced_plans(layer, spec, ctx, stack, source))
    misses = [(query, spec.ladder[1])
              for query in source.batch(20, spec.ladder[1])]
    layers.traffic_probes(layer, [(read[2], read[3]) for read in plain_reads],
                          ctx)
    current = (list(stack.writer.corpus.snapshot()) if spec.live
               else strings)
    layers.pools_probe(layer, current, misses)
    layers.sharding_probe(layer, strings[:SHARDING_PROBE_STRINGS], misses)
    layers.distance_probes(layer, strings, source, spec.ladder[1], ctx)
    layers.segment_probes(layer, strings, ctx)
    layers.data_round_trip(
        layer, corpus_path(ctx.inputs_dir, "city", len(strings), ctx.seed),
        os.path.join(ctx.out_dir, f"answers_{spec.name}.txt"),
        [read[2] for read in traced_reads],
        [read[4] or () for read in traced_reads])


async def rate_ladder(spec, ctx, driver: Driver, layer, outcome) -> None:
    """Open loop at the base rate, then twice and four times it."""
    seconds = max(1.0, 0.2 * ctx.seconds)
    phases = []
    shed_total: Counter = Counter()
    for factor in (1, 2, 4):
        driver.fresh_cache()
        driver.strict = factor == 1
        phase = await driver.open_loop(spec.open_rate * factor, seconds)
        phases.append(phase)
        if factor > 1:
            shed_total.update(driver.gateway.shedder.counters_snapshot())
    driver.strict = True
    base = phases[0]
    layer["gateway.submit_p50_ms"] = base["p50_ms"]
    layer["gateway.submit_p95_ms"] = base["p95_ms"]
    layer["gateway.submit_p99_ms"] = base["p99_ms"]
    layer["gateway.submit_max_ms"] = base["max_ms"]
    layer["gateway.rate60_p95_ms"] = phases[1]["p95_ms"]
    layer["gateway.rate120_p95_ms"] = phases[2]["p95_ms"]
    layer["gateway.generator_lag_p99_ms"] = max(
        phase["lag_p99_ms"] for phase in phases)
    holding = [phase["rate"] for phase in phases
               if phase["p95_ms"] <= RATE_OK_P95_MS
               and phase["backlog_at_end"] <= max(2, phase["sent"] // 20)]
    layer["gateway.max_rate_ok_qps"] = max(holding, default=0.0)
    decisions = max(1, sum(shed_total.values()))
    layer["traffic.shedding.degraded_share"] = \
        shed_total["service.shed.degraded"] / decisions
    layer["traffic.shedding.rejected_share"] = \
        shed_total["service.shed.rejected"] / decisions
    outcome.info["open_loop"] = phases


def live_probes(layer, stack: Stack, driver: Driver, source, spec,
                outcome: Outcome) -> None:
    """The write path by itself, after the passes fixed the counts."""
    corpus = stack.writer.corpus
    shape = corpus.describe()
    layer["live.flushes"] = shape["flushes"]
    layer["live.compactions"] = shape["compactions"]
    layer["live.segments_final"] = len(shape["segments"])
    layer["live.write_mean_ms"] = \
        sum(driver.write_ms) / len(driver.write_ms)
    outcome.info["exact_counts"].update({
        "live.flushes": shape["flushes"],
        "live.compactions": shape["compactions"],
        "live.segments_final": len(shape["segments"]),
    })
    stored = sum(os.path.getsize(os.path.join(stack.segment_dir, name))
                 for name in os.listdir(stack.segment_dir))
    payload = sum(len(string.encode("utf-8")) + 1
                  for string in corpus.snapshot())
    layer["live.space_amplification"] = stored / payload

    samples = []
    for query in source.batch(20, spec.ladder[1]):
        started = perf_counter()
        corpus.search(query, spec.ladder[1])
        samples.append((perf_counter() - started) * 1e3)
    layer["live.search_ms"] = median(samples)

    # refresh() only re-partitions; the shard tries are rebuilt by the
    # first search after it, so that search belongs to the refresh.
    refreshes = []
    for query in source.batch(4, spec.ladder[0]):
        stack.writer.write()
        started = perf_counter()
        stack.service.corpus.refresh()
        stack.service.corpus.search(query, spec.ladder[0])
        refreshes.append(perf_counter() - started)
    layer["service.refresh_s"] = median(refreshes)
    stack.writer.write()
    started = perf_counter()
    corpus.flush()
    layer["live.flush_ms"] = (perf_counter() - started) * 1e3
    started = perf_counter()
    corpus.compact()
    layer["live.compaction_ms"] = (perf_counter() - started) * 1e3


def forced_plans(layer, spec, ctx, stack: Stack, source) -> dict[str, int]:
    """Each rung through ``Service.submit`` and through each exact
    ladder plan forced on the sharded corpus; regret; work counters.
    Returns the work-counter totals of the forced calls (exact)."""
    sharded = stack.service.corpus
    totals: Counter = Counter()
    queries = {"scan": 0, "index": 0}
    count = ctx.count(spec.forced_size)

    def counters(plan: str) -> Counter:
        total: Counter = Counter()
        for shard in range(sharded.shard_count):
            total.update(sharded.searcher_for(plan, shard)
                         .counters_snapshot())
        return total

    for rung, k in enumerate(spec.ladder):
        # The first submit after a write re-shards; keep it off the clock.
        stack.service.submit(source.batch(1, k)[0], k)
        started = perf_counter()
        for query in source.batch(count, k):
            stack.service.submit(query, k)
        auto_ms = (perf_counter() - started) / count * 1e3
        side_ms = {}
        for side, plan in (("scan", "compiled"), ("index", "flat")):
            sharded.search(source.batch(1, k)[0], k, plan=plan)
            before = counters(plan)
            started = perf_counter()
            for query in source.batch(count, k):
                sharded.search(query, k, plan=plan)
            side_ms[side] = (perf_counter() - started) / count * 1e3
            layer[f"{side}.rung{rung + 1}_ms"] = side_ms[side]
            queries[side] += count
            after = counters(plan)
            after.subtract(before)
            totals.update(after)
        layer[f"planner.regret.rung{rung + 1}"] = \
            auto_ms / min(side_ms.values())
    layers.work_counters(layer, totals, queries["scan"], queries["index"])
    return dict(totals)
