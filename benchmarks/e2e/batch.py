"""``city_batch`` and ``dna_batch``: a query file answered per threshold.

The paper's competition shape: build once, then answer batches of
queries at each threshold of the data set's ladder through
``SearchEngine(strings, backend="auto").search_many`` with the serial
runner, one call at a time (closed loop, one client).
"""

from __future__ import annotations

import filecmp
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import layers
from common import (
    ROOT,
    Context,
    Outcome,
    SpeedProbe,
    check_answers,
    end_to_end,
    median,
)
from inputs import QuerySource, corpus_path, load_corpus
from repro import PlannerPolicy, SearchEngine
from repro.data import write_result_file, write_strings
from spans import SpanRecorder

perf_counter = time.perf_counter


@dataclass(frozen=True)
class BatchSpec:
    name: str
    kind: str
    strings: int
    #: the three thresholds, rung 1 to rung 3
    ladder: tuple[int, int, int]
    #: queries per ``search_many`` call on each rung; one call per rung
    #: makes a round, and the sizes give the calls similar lengths
    batch_sizes: tuple[int, int, int]
    #: rounds one run measures (at the nominal ``--seconds``)
    rounds: int
    #: answers per rung compared with the reference scan
    check_per_rung: int
    #: rounds in each pass of the traced run
    pass_rounds: int
    #: queries per rung and side in the forced-strategy probes
    forced_sizes: tuple[int, int, int]
    cli_parity: bool


CITY_BATCH = BatchSpec(
    name="city_batch", kind="city", strings=400_000, ladder=(1, 2, 3),
    batch_sizes=(100, 12, 4), rounds=12, check_per_rung=5, pass_rounds=3,
    forced_sizes=(6, 3, 2), cli_parity=True,
)

# 50,000 reads, not the paper's 750,000: the pure-Python flat trie
# takes about 18 s to build per 50,000 reads on the reference box.
DNA_BATCH = BatchSpec(
    name="dna_batch", kind="dna", strings=50_000, ladder=(4, 8, 16),
    batch_sizes=(4, 2, 1), rounds=5, check_per_rung=1, pass_rounds=2,
    forced_sizes=(3, 1, 1), cli_parity=False,
)


class Rounds:
    """Samples and answers of a run of rounds of ``search_many`` calls.

    A round is one call per rung, rung 1 to rung 3. Going round and
    round (and not finishing one rung before the next) spreads every
    rung's samples over the whole measuring time, so that a slow spell
    of the machine hits a minority of each rung's samples and the
    medians ignore it.
    """

    def __init__(self, probe: SpeedProbe | None = None) -> None:
        #: ticked before every call of the gated run; None when traced
        self.probe = probe
        self.ms_per_query = [[], [], []]
        self.round_rates: list[float] = []
        self.answers = [[], [], []]
        self.queries = 0
        self.failed = 0

    def round(self, spec: BatchSpec, engine, source: QuerySource, *,
              recorder: SpanRecorder | None = None) -> None:
        seconds = 0.0
        for rung, k in enumerate(spec.ladder):
            queries = source.batch(spec.batch_sizes[rung], k)
            if self.probe is not None:
                self.probe.tick()
            started = perf_counter()
            try:
                if recorder is None:
                    result = engine.search_many(queries, k)
                else:
                    op_id = f"round{len(self.round_rates)}-rung{rung + 1}"
                    with recorder.op("engine.search_many", op_id):
                        result = engine.search_many(queries, k)
            except Exception as error:  # a failed call fails its queries
                print(f"search_many failed: {error!r}", file=sys.stderr)
                self.failed += len(queries)
                result = ()
            elapsed = perf_counter() - started
            seconds += elapsed
            self.queries += len(queries)
            self.ms_per_query[rung].append(elapsed / len(queries) * 1e3)
            self.answers[rung].extend(
                (query, k, row, 0) for query, row in result)
        self.round_rates.append(sum(spec.batch_sizes) / seconds)

    def medians(self) -> list[float]:
        return [median(samples) for samples in self.ms_per_query]


SIDES = (("scan", "compiled"), ("index", "indexed"))


def set_up(spec: BatchSpec, strings, source: QuerySource, *,
           primed: bool) -> SearchEngine:
    """Strings in memory → engine built and warmed up.

    The planner corrects its cost model from the calls it has served,
    per (strategy, k), and falls back to a strategy's mean correction
    where it has none. Left to itself after one query per rung
    (``primed=False``, how the traced run starts) it tries the
    compiled scan at a moment that depends on timing, charges the
    1.5 s compile to that k, and in about one run in ten settles k=3
    on the scan at three times the trie's cost: ``planner.regret.*``
    reports what such a start costs. A gated
    time that falls into one of two modes by chance cannot show a
    regression, so the gated run (``primed=True``) gives the planner
    one forced query per side and rung before the clock starts: it
    then holds a measurement of every choice, as a long-running engine
    does, and its choices repeat.
    """
    engine = SearchEngine(strings, backend="auto")
    if primed:
        prime(spec, engine, source)
    else:
        for k in spec.ladder:
            engine.search_many(source.batch(1, k), k)
    return engine


def prime(spec: BatchSpec, engine, source: QuerySource) -> None:
    """One forced query per side and rung; builds both executors."""
    for k in spec.ladder:
        for _, strategy in SIDES:
            engine.search_many(source.batch(1, k), k,
                               plan=PlannerPolicy(strategy=strategy))


def finish(outcome: Outcome, spec: BatchSpec, ctx: Context, strings,
           rounds_list) -> Outcome:
    """Count operations and check a sample of answers, off the clock."""
    answers = [[], [], []]
    for rounds in rounds_list:
        outcome.attempted += rounds.queries
        outcome.failed += rounds.failed
        for rung in range(3):
            answers[rung].extend(rounds.answers[rung])
    checked, wrong = check_answers(answers, spec.check_per_rung,
                                   ctx.rng("check"), lambda _: strings)
    outcome.checked = checked
    outcome.failed += wrong
    outcome.info.update(strings=len(strings), ladder=list(spec.ladder),
                        answers_checked=checked, answers_wrong=wrong)
    # What the answers held is a function of the seed alone.
    outcome.info.setdefault("exact_counts", {}).update(
        queries=sum(rounds.queries for rounds in rounds_list),
        **{f"matches.rung{rung + 1}": sum(len(row[2]) for row in rows)
           for rung, rows in enumerate(answers)})
    return outcome


def run(spec: BatchSpec, ctx: Context) -> Outcome:
    strings = load_corpus(ctx.inputs_dir, spec.kind,
                          ctx.corpus_size(spec.strings), ctx.seed)
    source = QuerySource(strings, spec.kind, ctx.seed)
    if ctx.trace:
        return run_traced(spec, ctx, strings, source)
    outcome = Outcome()
    started = perf_counter()
    engine = set_up(spec, strings, source, primed=True)
    set_up_seconds = perf_counter() - started
    rounds = Rounds(SpeedProbe())
    for _ in range(ctx.count(spec.rounds)):
        rounds.round(spec, engine, source)
    outcome.end_to_end = end_to_end(
        set_up_seconds, median(rounds.round_rates), rounds.medians(),
        rounds.probe, outcome.info)
    samples = len(rounds.round_rates)
    outcome.info["samples"] = {
        "setup_s": 1, "ops_per_s": samples, "rung1_ms": samples,
        "rung2_ms": samples, "rung3_ms": samples}
    return finish(outcome, spec, ctx, strings, [rounds])


# -- the traced run ----------------------------------------------------


def run_traced(spec: BatchSpec, ctx: Context, strings,
               source: QuerySource) -> Outcome:
    outcome = Outcome()
    layer = outcome.per_layer
    recorder = SpanRecorder()
    with recorder.installed(layers.trace_points()):
        engine = set_up(spec, strings, source, primed=False)
    # What the planner's own first choices cost, for the regret; then
    # primed like the gated run, so that its explorations (a 1.5 s
    # compile inside one call) stay out of the overhead ratio and the
    # budget.
    count = ctx.count(spec.pass_rounds)
    cold = Rounds()
    with recorder.installed(layers.trace_points()):
        # Patched, so that an executor the planner decides to build in
        # these rounds is seen by ``scan.compile_s``.
        for _ in range(count):
            cold.round(spec, engine, source)
        prime(spec, engine, source)
    layers.set_up_spans(layer, recorder)

    # Untraced and traced rounds alternate, so that neither side gets
    # the slower or the faster stretch of the machine to itself.
    plain, traced = Rounds(), Rounds()
    plain_wall = traced_wall = 0.0
    for _ in range(count):
        started = perf_counter()
        plain.round(spec, engine, source)
        plain_wall += perf_counter() - started
        with recorder.installed(layers.trace_points()):
            started = perf_counter()
            traced.round(spec, engine, source, recorder=recorder)
            traced_wall += perf_counter() - started
    layer["obs.tracing_overhead_ratio"] = \
        (traced_wall / traced.queries) / (plain_wall / plain.queries)

    layers.write_budget(outcome, recorder, spec.name,
                        ("engine.search_many",), traced.queries,
                        traced_wall, ctx)

    outcome.info["exact_counts"] = forced_strategies(
        layer, spec, ctx, engine, source, cold.medians())
    layer["engine.rung0_qps"] = rung0_rate(engine, source, ctx)
    layers.distance_probes(layer, strings, source, spec.ladder[1], ctx)
    layers.segment_probes(layer, strings, ctx)
    layer["parallel.process2_speedup"] = process_speedup(
        spec, ctx, engine, source)
    answers = [answer for rung in traced.answers for answer in rung]
    layers.data_round_trip(
        layer,
        corpus_path(ctx.inputs_dir, spec.kind, len(strings), ctx.seed),
        os.path.join(ctx.out_dir, f"answers_{spec.name}.txt"),
        [answer[0] for answer in answers],
        [answer[2] for answer in answers])
    if spec.cli_parity:
        cli_parity(outcome, spec, ctx, strings, engine, source)
    return finish(outcome, spec, ctx, strings, [cold, plain, traced])


def forced_strategies(layer, spec, ctx, engine, source,
                      auto_ms) -> dict[str, int]:
    """Each rung through each forced side; regret of ``auto``; counters.

    ``auto_ms`` comes from the rounds a planner served that had seen
    nothing but its own choices: a regret above 1 is what its cold
    start costs. The two sides get different (equally stratified)
    queries, because the executors memoise answers and would serve a
    repeat from memory. Returns the work-counter totals, which are
    exact: forced strategies over seeded queries.
    """
    totals: dict[str, int] = {}
    queries = {"scan": 0, "index": 0}
    for rung, k in enumerate(spec.ladder):
        count = ctx.count(spec.forced_sizes[rung])
        side_ms = {}
        for side, strategy in SIDES:
            batch = source.batch(count, k)
            started = perf_counter()
            _, report = engine.search_many(
                batch, k, plan=PlannerPolicy(strategy=strategy),
                report=True)
            side_ms[side] = (perf_counter() - started) / count * 1e3
            layer[f"{side}.rung{rung + 1}_ms"] = side_ms[side]
            queries[side] += count
            for name, value in report.counters.items():
                totals[name] = totals.get(name, 0) + value
        layer[f"planner.regret.rung{rung + 1}"] = \
            auto_ms[rung] / min(side_ms.values())
    layers.work_counters(layer, totals, queries["scan"], queries["index"])
    return totals


def rung0_rate(engine, source, ctx: Context) -> float:
    batch = source.batch(ctx.count(200), 0)
    started = perf_counter()
    engine.search_many(batch, 0)
    return len(batch) / (perf_counter() - started)


def process_speedup(spec, ctx, engine, source) -> float:
    """Rung 2 over the engine's flat trie: serial ÷ two worker processes."""
    from repro.index.batch import FlatIndexSearcher
    from repro.parallel import ProcessPoolRunner

    flat = getattr(engine.searcher, "flat_trie", None)
    if flat is None:
        return 0.0
    searcher = FlatIndexSearcher(flat)
    k = spec.ladder[1]
    count = max(2, 2 * spec.batch_sizes[1])
    started = perf_counter()
    searcher.search_many(source.batch(count, k), k)
    serial = perf_counter() - started
    started = perf_counter()
    searcher.search_many(source.batch(count, k), k,
                         runner=ProcessPoolRunner(2))
    return serial / (perf_counter() - started)


def cli_parity(outcome: Outcome, spec, ctx, strings, engine,
               source) -> None:
    """The paper's own front door, once: ``python -m repro search``.

    Its result file must equal, byte for byte, the API's answer to the
    same queries written with ``write_result_file``.
    """
    k = spec.ladder[0]
    queries = source.batch(spec.batch_sizes[0], k)
    work = os.path.join(ctx.out_dir, "cli")
    os.makedirs(work, exist_ok=True)
    data_file = corpus_path(ctx.inputs_dir, spec.kind, len(strings),
                            ctx.seed)
    query_file = os.path.join(work, "queries.txt")
    api_file = os.path.join(work, "api.txt")
    cli_file = os.path.join(work, "cli.txt")
    write_strings(query_file, queries)
    result = engine.search_many(queries, k)
    write_result_file(api_file, queries,
                      [[match.string for match in row]
                       for _, row in result])
    environment = dict(os.environ,
                       PYTHONPATH=os.path.join(ROOT, "src"))
    started = perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "search", data_file, query_file,
         "-k", str(k), "--batch", "-o", cli_file],
        env=environment, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=150)
    outcome.per_layer["cli.wall_s"] = perf_counter() - started
    outcome.attempted += 1
    same = completed.returncode == 0 \
        and filecmp.cmp(cli_file, api_file, shallow=False)
    if not same:
        outcome.failed += 1
        print(f"CLI parity failed (exit {completed.returncode}): "
              f"{completed.stderr[-500:]}", file=sys.stderr)
    outcome.info["cli_parity"] = same
