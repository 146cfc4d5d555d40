"""Command-line interface: the paper's workflow as a tool.

The paper's programs read a data file and a query file and write the
matches to a result file (section 3.1). ``repro-search`` (also
``python -m repro``) exposes that workflow plus the supporting chores:

.. code-block:: console

    repro-search generate cities -n 10000 -o cities.txt
    repro-search generate dna -n 2000 -o reads.txt
    repro-search stats cities.txt
    repro-search search cities.txt queries.txt -k 2 -o results.txt
    repro-search distance AGGCGT AGAGT --matrix
    repro-search bench table03
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Sequence

from repro.bench.registry import EXPERIMENTS, run_experiment
from repro.core.deadline import Deadline
from repro.core.engine import SearchEngine
from repro.core.planner import STRATEGIES
from repro.data.cities import generate_city_names
from repro.data.dna import generate_reads
from repro.data.io import read_queries, read_strings, write_strings
from repro.data.stats import describe
from repro.data.workload import Workload
from repro.distance.levenshtein import edit_distance
from repro.distance.matrix import DistanceMatrix
from repro.exceptions import (
    DeadlineExceeded,
    ReproError,
    ServiceOverloaded,
)
from repro.parallel.executor import (
    ProcessPoolRunner,
    SerialRunner,
    ThreadPoolRunner,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-search",
        description="String similarity search: optimized sequential scan "
                    "vs. prefix-tree index (EDBT/ICDT 2013 reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    search = commands.add_parser(
        "search", help="answer a query file against a data file",
    )
    search.add_argument("data_file", help="dataset, one string per line")
    search.add_argument("query_file", help="queries, one string per line")
    search.add_argument("-k", type=int, required=True,
                        help="edit-distance threshold")
    search.add_argument("-o", "--output", default=None,
                        help="result file (default: stdout)")
    search.add_argument("--backend", default="auto",
                        choices=("auto",) + STRATEGIES,
                        help="force a solution side (default: auto; "
                             "'indexed' is served by the compiled "
                             "flat trie)")
    search.add_argument("--runner", default="serial",
                        help="serial | threads:N | processes:N")
    search.add_argument("--batch", action="store_true",
                        help="answer the query file through the "
                             "matching compiled batch engine — the "
                             "corpus scan or the flat-trie index — "
                             "which dedupes repeated queries and "
                             "amortizes per-query setup; identical "
                             "results)")
    search.add_argument("--explain", action="store_true",
                        help="print the planner's EXPLAIN-style query "
                             "plan for this workload (per-strategy "
                             "cost estimates) and exit without "
                             "running any query; honours "
                             "--stats-format text|json")
    search.add_argument("--stats", action="store_true",
                        help="emit the run's SearchReport (work "
                             "counters, timings, batch dedup/memo "
                             "profile) after the results")
    search.add_argument("--stats-format", default="text",
                        choices=("text", "json", "prom"),
                        help="SearchReport rendering: human text, one "
                             "JSON document, or Prometheus text "
                             "exposition (implies --stats)")
    search.add_argument("--stats-output", default=None,
                        help="write the report there instead of "
                             "stderr (implies --stats)")
    search.add_argument("--slowlog", type=int, default=None,
                        metavar="N",
                        help="record every query on a flight recorder "
                             "and print the N slowest (per-stage "
                             "timings and work counters) to stderr "
                             "after the run")
    search.add_argument("--trace-out", default=None, metavar="FILE",
                        help="export the run's spans as Chrome/"
                             "Perfetto trace-event JSON to FILE (open "
                             "in chrome://tracing or ui.perfetto.dev): "
                             "one cli.search-rooted tree, pool worker "
                             "lanes included")
    search.add_argument("--events-out", default=None, metavar="FILE",
                        help="write the run's operational event log "
                             "(JSON lines: admission, ladder rungs, "
                             "flush/compaction, each with a trace_id "
                             "when traced) to FILE; events are emitted "
                             "by the service and live-corpus layers, "
                             "so this pairs with --service")
    search.add_argument("--telemetry-out", default=None, metavar="FILE",
                        help="sample gauges on a background "
                             "TelemetrySampler during the run and "
                             "write its JSON dump to FILE (render it "
                             "with `repro-search metrics FILE`)")
    search.add_argument("--deadline-ms", type=float, default=None,
                        help="wall-clock deadline in milliseconds — "
                             "per query with --service (the ladder "
                             "degrades), per run otherwise (on expiry "
                             "completed queries are written, the "
                             "truncation is reported on stderr, and "
                             "the exit code is 3)")
    search.add_argument("--segment", default=None, metavar="FILE",
                        help="mmap-load the compiled corpus from this "
                             "segment file (repro.speed format); if the "
                             "file does not exist it is compiled from "
                             "the data file and saved there first, so "
                             "every later start is near-instant; "
                             "implies --backend compiled")
    search.add_argument("--save-segment", default=None, metavar="FILE",
                        help="after the run, save the compiled corpus "
                             "to FILE as a zero-copy segment for later "
                             "--segment runs")
    search.add_argument("--service", action="store_true",
                        help="serve queries through the resilient "
                             "repro.service ladder (sharded corpus, "
                             "degradation on deadline expiry, honest "
                             "result labels)")
    search.add_argument("--shards", type=int, default=4,
                        help="service-mode corpus shard count "
                             "(default 4)")

    generate = commands.add_parser(
        "generate", help="generate a synthetic dataset",
    )
    generate.add_argument("kind", choices=("cities", "dna"))
    generate.add_argument("-n", "--count", type=int, required=True)
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--seed", type=int, default=2013)

    suggest = commands.add_parser(
        "suggest", help="top-k nearest strings for one query",
    )
    suggest.add_argument("data_file", help="dataset, one string per line")
    suggest.add_argument("query")
    suggest.add_argument("-n", "--count", type=int, default=5,
                         help="how many suggestions (default 5)")
    suggest.add_argument("--backend", default="auto",
                         choices=("auto", "sequential", "indexed"))

    complete = commands.add_parser(
        "complete", help="error-tolerant autocompletion for a prefix",
    )
    complete.add_argument("data_file", help="dataset, one string per line")
    complete.add_argument("prefix", help="what the user typed so far")
    complete.add_argument("-k", type=int, default=1,
                          help="typo budget for the prefix (default 1)")
    complete.add_argument("-n", "--count", type=int, default=10,
                          help="how many completions (default 10)")

    join = commands.add_parser(
        "join", help="similarity join two files (or self-join one)",
    )
    join.add_argument("left_file", help="left input, one string per line")
    join.add_argument("right_file", nargs="?", default=None,
                      help="right input; omit for a self-join")
    join.add_argument("-k", type=int, required=True,
                      help="edit-distance threshold")
    join.add_argument("-o", "--output", default=None,
                      help="result file (default: stdout)")
    join.add_argument("--method", default="auto",
                      choices=("auto", "scan", "index", "prefix"))

    stats = commands.add_parser(
        "stats", help="Table-I style dataset properties",
    )
    stats.add_argument("data_file")

    distance = commands.add_parser(
        "distance", help="edit distance of two strings",
    )
    distance.add_argument("x")
    distance.add_argument("y")
    distance.add_argument("--matrix", action="store_true",
                          help="print the DP matrix (paper Figure 1)")

    explain = commands.add_parser(
        "explain", help="trace one comparison through every layer, or "
                        "show the planner's strategy choice for a "
                        "query against a dataset",
    )
    explain.add_argument("query")
    explain.add_argument("candidate", nargs="?", default=None,
                         help="second string for a pairwise distance "
                              "trace; omit it (and pass --data) to "
                              "EXPLAIN the engine's query plan instead")
    explain.add_argument("-k", type=int, required=True)
    explain.add_argument("--data", default=None, metavar="FILE",
                         help="dataset to plan the query against "
                              "(query-plan mode)")
    explain.add_argument("--batch", action="store_true",
                         help="plan the query as a batch member "
                              "(scores only the batch executors)")
    explain.add_argument("--stats-format", default="text",
                         choices=("text", "json"),
                         help="plan rendering: human text or one JSON "
                              "document (query-plan mode)")

    live = commands.add_parser(
        "live", help="replay a mutation/query script against a live "
                     "(mutable, LSM-segmented) corpus",
    )
    live.add_argument("ops_file",
                      help="script, one operation per line: '+string' "
                           "inserts, '-string' deletes, '?query' "
                           "searches (blank lines and '#' comments "
                           "are skipped)")
    live.add_argument("-k", type=int, required=True,
                      help="edit-distance threshold for '?' queries")
    live.add_argument("-o", "--output", default=None,
                      help="result file for query lines "
                           "(default: stdout)")
    live.add_argument("--data", default=None, metavar="FILE",
                      help="seed the corpus from this dataset file "
                           "before replaying the script")
    live.add_argument("--segment-dir", default=None, metavar="DIR",
                      help="persist segments + manifest there (the "
                           "corpus is reopened from DIR if a manifest "
                           "already exists, so scripts compose across "
                           "runs); synced on exit")
    live.add_argument("--flush-threshold", type=int, default=None,
                      help="memtable size that triggers a segment "
                           "flush (default 256)")
    live.add_argument("--fanout", type=int, default=None,
                      help="segments per level before compaction "
                           "merges them (default 4)")
    live.add_argument("--compaction", default="inline",
                      choices=("inline", "background"),
                      help="merge segments on the mutating thread "
                           "(inline, default) or on a daemon thread "
                           "(background)")
    live.add_argument("--compact", action="store_true",
                      help="fold everything into one segment after "
                           "the script finishes")

    metrics = commands.add_parser(
        "metrics", help="render a telemetry dump (the JSON written by "
                        "search --telemetry-out)",
    )
    metrics.add_argument("dump_file",
                         help="TelemetrySampler JSON dump file")
    metrics.add_argument("--format", default="tail",
                         choices=("dump", "tail", "prom"),
                         help="dump: the raw JSON document; tail: the "
                              "newest samples per series, human-"
                              "readable (default); prom: latest value "
                              "per series as Prometheus gauges")
    metrics.add_argument("-n", "--samples", type=int, default=10,
                         help="samples shown per series with "
                              "--format tail (default 10)")
    metrics.add_argument("-o", "--output", default=None,
                         help="write there instead of stdout")

    bench = commands.add_parser(
        "bench", help="run a registered paper experiment",
    )
    bench.add_argument("experiment",
                       help=f"one of: {', '.join(sorted(EXPERIMENTS))}")
    return parser


def _make_runner(spec: str):
    if spec == "serial":
        return SerialRunner()
    kind, _, count = spec.partition(":")
    if kind in ("threads", "processes"):
        try:
            workers = int(count)
        except ValueError:
            raise ReproError(
                f"runner spec {spec!r} needs a worker count, "
                f"e.g. {kind}:8"
            ) from None
        if kind == "threads":
            return ThreadPoolRunner(threads=workers)
        return ProcessPoolRunner(processes=workers)
    raise ReproError(
        f"unknown runner {spec!r}; expected serial, threads:N or "
        "processes:N"
    )


def _emit_report(report, args: argparse.Namespace) -> None:
    """Render the run's SearchReport per --stats-format/--stats-output."""
    if args.stats_format == "json":
        rendered = report.to_json(indent=2)
    elif args.stats_format == "prom":
        rendered = report.to_prometheus()
    else:
        rendered = report.render()
    if args.stats_output:
        with open(args.stats_output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
            if not rendered.endswith("\n"):
                handle.write("\n")
    else:
        print(rendered, file=sys.stderr)


def _make_observability(args: argparse.Namespace):
    """The run's optional recorder, registry, tracer, event log and
    sampler."""
    recorder = None
    if args.slowlog is not None:
        from repro.obs.recorder import FlightRecorder

        if args.slowlog < 1:
            raise ReproError(
                f"--slowlog needs a positive count, got {args.slowlog}"
            )
        recorder = FlightRecorder(top_n=max(args.slowlog, 16))
    metrics = None
    if args.telemetry_out is not None:
        from repro.obs.registry import MetricsRegistry

        metrics = MetricsRegistry()
    tracer = None
    if args.trace_out is not None:
        from repro.obs.tracing import Tracer

        tracer = Tracer()
    events = None
    if args.events_out is not None:
        from repro.obs.events import EventLog

        events = EventLog()
    sampler = None
    if args.telemetry_out is not None:
        from repro.obs.sampler import TelemetrySampler

        sampler = TelemetrySampler()
        sampler.watch_registry(metrics)
        sampler.start()
    return recorder, metrics, tracer, events, sampler


def _emit_slowlog_and_trace(args: argparse.Namespace, recorder,
                            tracer, events, sampler) -> None:
    """Print the slowlog, write trace/events/telemetry, as requested."""
    if recorder is not None:
        print(recorder.render(args.slowlog), file=sys.stderr)
    if tracer is not None:
        from repro.obs.traceexport import write_trace

        write_trace(args.trace_out, tracer)
        print(
            f"trace: {len(tracer)} spans written, {tracer.dropped} "
            f"dropped, to {args.trace_out} (open in chrome://tracing "
            "or ui.perfetto.dev)",
            file=sys.stderr,
        )
    if events is not None and args.events_out is not None:
        written = events.write(args.events_out)
        print(f"events: {written} lines written to {args.events_out}",
              file=sys.stderr)
    if sampler is not None and args.telemetry_out is not None:
        sampler.stop()
        sampler.dump(args.telemetry_out)
        print(
            f"telemetry: {sampler.samples_taken} sweeps over "
            f"{len(sampler.latest())} series written to "
            f"{args.telemetry_out} (render with "
            "`repro-search metrics`)",
            file=sys.stderr,
        )


def _write_result_lines(lines, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")
    else:
        for line in lines:
            print(line)


def _search_service(args: argparse.Namespace, dataset, queries,
                    want_stats: bool, recorder, metrics, events,
                    sampler) -> int:
    from repro.core.deadline import Deadline
    from repro.service import Service

    service = Service(dataset, shards=args.shards, metrics=metrics,
                      recorder=recorder, events=events)
    if sampler is not None:
        sampler.add_source("service.in_flight",
                           lambda: service.in_flight)
        sampler.add_source("service.capacity",
                           lambda: service.capacity)
    seconds = (args.deadline_ms / 1000.0
               if args.deadline_ms is not None else None)
    rows: list[tuple[str, list[str]]] = []
    status_counts: dict[str, int] = {}
    total_matches = 0
    for query in queries:
        deadline = Deadline(seconds) if seconds is not None else None
        try:
            result = service.submit(query, args.k, deadline=deadline)
        except ServiceOverloaded as error:
            hint = (f"; retry in ~{error.retry_after_ms:.0f}ms"
                    if error.retry_after_ms is not None
                    else "; back off and retry")
            print(
                f"{query}: rejected — service overloaded "
                f"({error.in_flight} of {error.capacity} slots in "
                f"flight){hint}",
                file=sys.stderr,
            )
            raise
        status_counts[result.status] = \
            status_counts.get(result.status, 0) + 1
        total_matches += len(result.matches)
        if result.status != "complete":
            print(
                f"{query}: {result.status} via "
                f"{result.plan or 'merged partials'} "
                f"({len(result.matches)} matches, "
                f"verified={result.verified})",
                file=sys.stderr,
            )
        rows.append((query, [m.string for m in result.matches]))
    summary = ", ".join(
        f"{count} {status}" for status, count in
        sorted(status_counts.items())
    )
    print(
        f"service: {len(queries)} queries over "
        f"{service.corpus.shard_count} shards ({summary}; "
        f"{total_matches} matches)",
        file=sys.stderr,
    )
    if want_stats:
        _emit_report(
            service.report(queries=len(queries), k=args.k,
                           matches=total_matches),
            args,
        )
    _write_result_lines(
        ("\t".join([query, *matched]) for query, matched in rows),
        args.output,
    )
    return 0


def _command_search(args: argparse.Namespace) -> int:
    dataset = read_strings(args.data_file)
    queries = read_queries(args.query_file)
    want_stats = (args.stats or args.stats_output is not None
                  or args.stats_format != "text")
    if args.service and (args.segment or args.save_segment):
        raise ReproError(
            "--segment/--save-segment apply to the engine path, "
            "not --service (the sharded corpus manages its own "
            "per-shard segments)"
        )
    if args.segment and args.backend not in ("auto", "compiled"):
        raise ReproError(
            f"--segment serves the compiled backend; it cannot be "
            f"combined with --backend {args.backend}"
        )
    recorder, metrics, tracer, events, sampler = _make_observability(args)
    with tracer.root("cli.search") if tracer is not None \
            else contextlib.nullcontext():
        if args.service:
            code = _search_service(args, dataset, queries, want_stats,
                                   recorder, metrics, events, sampler)
        else:
            code = _search_engine(args, dataset, queries, want_stats,
                                  recorder, metrics)
    _emit_slowlog_and_trace(args, recorder, tracer, events, sampler)
    return code


def _search_engine(args: argparse.Namespace, dataset, queries,
                   want_stats: bool, recorder, metrics) -> int:
    runner = _make_runner(args.runner)
    engine = SearchEngine(dataset, backend=args.backend, runner=runner,
                          observe=want_stats or metrics is not None,
                          metrics=metrics, recorder=recorder,
                          segment=args.segment)
    print(
        f"backend: {engine.default_plan.strategy} "
        f"({engine.default_plan.reason})",
        file=sys.stderr,
    )
    workload = Workload(tuple(queries), args.k, name=args.query_file)
    if args.explain:
        plan = engine.plan(
            tuple(queries) if len(queries) > 1 else queries[0],
            args.k, batch=bool(args.batch),
        )
        if args.stats_format == "json":
            import json

            _write_result_lines([json.dumps(plan.to_dict(), indent=2)],
                                args.output)
        else:
            _write_result_lines([plan.render()], args.output)
        return 0
    deadline = (Deadline(args.deadline_ms / 1000.0)
                if args.deadline_ms is not None else None)
    try:
        if args.batch:
            results, report = engine.search_many(
                workload.queries, workload.k, deadline=deadline,
                report=True)
        else:
            results, report = engine.run_workload(
                workload, deadline=deadline, report=True)
    except DeadlineExceeded as error:
        completed = dict(error.partial) if isinstance(error.partial,
                                                      dict) else {}
        print(
            f"deadline exceeded: {error.completed} of {error.total} "
            f"distinct queries completed within {args.deadline_ms}ms; "
            "writing partial results (completed queries only)",
            file=sys.stderr,
        )
        _write_result_lines(
            ("\t".join([query, *[m.string for m in completed[query]]])
             for query in queries if query in completed),
            args.output,
        )
        return 3
    print(
        f"{len(queries)} queries in {report.seconds:.3f}s "
        f"({results.total_matches} matches)",
        file=sys.stderr,
    )
    if args.batch and report.batch is not None:
        batch = report.batch
        print(
            f"batch: {batch.unique_queries} unique of "
            f"{batch.queries_seen} queries, {batch.cache_hits} cache "
            f"hits, {batch.scans_executed} scans executed",
            file=sys.stderr,
        )
    if want_stats:
        _emit_report(report, args)
    if args.save_segment:
        from repro.speed import save_segment

        corpus = getattr(engine.searcher, "corpus", None)
        if corpus is None:
            from repro.scan.corpus import CompiledCorpus

            corpus = CompiledCorpus(dataset)
        saved = save_segment(corpus, args.save_segment)
        print(f"segment: compiled corpus saved to {saved}",
              file=sys.stderr)
    lines = (
        "\t".join([query, *row])
        for query, row in (
            (query, list(results.strings_for(index)))
            for index, query in enumerate(results.queries)
        )
    )
    _write_result_lines(lines, args.output)
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    if args.kind == "cities":
        strings = generate_city_names(args.count, seed=args.seed)
    else:
        strings = generate_reads(args.count, seed=args.seed)
    written = write_strings(args.output, strings)
    print(f"wrote {written} strings to {args.output}", file=sys.stderr)
    return 0


def _command_suggest(args: argparse.Namespace) -> int:
    from repro.core.topk import search_topk

    dataset = read_strings(args.data_file)
    engine = SearchEngine(dataset, backend=args.backend)
    for match in search_topk(engine.searcher, args.query, args.count):
        print(f"{match.string}\t{match.distance}")
    return 0


def _command_complete(args: argparse.Namespace) -> int:
    from repro.index.autocomplete import autocomplete
    from repro.index.compressed import CompressedTrie

    dataset = read_strings(args.data_file)
    trie = CompressedTrie(dataset)
    completions = autocomplete(trie, args.prefix, args.k,
                               limit=args.count)
    for completion in completions:
        print(f"{completion.string}\t{completion.prefix_distance}")
    return 0


def _command_join(args: argparse.Namespace) -> int:
    from repro.core.join import similarity_join

    left = read_strings(args.left_file)
    right = read_strings(args.right_file) if args.right_file else None
    result = similarity_join(left, right, args.k, method=args.method)
    right_side = left if right is None else right
    print(
        f"{len(result)} pairs in {result.seconds:.3f}s "
        f"({result.candidates_examined} candidates examined)",
        file=sys.stderr,
    )
    lines = (
        f"{left[pair.left_index]}\t{right_side[pair.right_index]}\t"
        f"{pair.distance}"
        for pair in result.pairs
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")
    else:
        for line in lines:
            print(line)
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    dataset = read_strings(args.data_file)
    stats = describe(dataset)
    print(f"strings:        {stats.count:,}")
    print(f"alphabet size:  {stats.alphabet_size}")
    print(f"length:         min {stats.min_length}, "
          f"max {stats.max_length}, mean {stats.mean_length:.1f}, "
          f"median {stats.median_length:.1f}")
    print(f"total symbols:  {stats.total_symbols:,}")
    top = ", ".join(
        f"{symbol!r}x{count}" for symbol, count in
        stats.most_common_symbols[:5]
    )
    print(f"top symbols:    {top}")
    return 0


def _command_distance(args: argparse.Namespace) -> int:
    if args.matrix:
        matrix = DistanceMatrix(args.x, args.y)
        print(matrix.render())
        print(f"edit distance: {matrix.distance}")
    else:
        print(edit_distance(args.x, args.y))
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    if args.candidate is not None:
        from repro.core.explain import explain_pair

        print(explain_pair(args.query, args.candidate, args.k).render())
        return 0
    if args.data is None:
        raise ReproError(
            "explain needs either a candidate string (pairwise trace) "
            "or --data FILE (query-plan mode)"
        )
    import json

    engine = SearchEngine(read_strings(args.data))
    plan = engine.explain(args.query, args.k,
                          batch=True if args.batch else None)
    if args.stats_format == "json":
        print(json.dumps(plan.to_dict(), indent=2))
    else:
        print(plan.render())
    return 0


def _command_live(args: argparse.Namespace) -> int:
    import os

    from repro.live import (
        DEFAULT_FANOUT,
        DEFAULT_FLUSH_THRESHOLD,
        MANIFEST_NAME,
        Corpus,
    )

    seeds = read_strings(args.data) if args.data else []
    flush_threshold = (args.flush_threshold
                       if args.flush_threshold is not None
                       else DEFAULT_FLUSH_THRESHOLD)
    fanout = args.fanout if args.fanout is not None else DEFAULT_FANOUT
    if (args.segment_dir
            and os.path.exists(os.path.join(args.segment_dir,
                                            MANIFEST_NAME))):
        if args.data:
            raise ReproError(
                f"--data conflicts with reopening {args.segment_dir} "
                "(the manifest already defines the contents); drop one"
            )
        corpus = Corpus.open(args.segment_dir,
                             compaction=args.compaction)
    else:
        corpus = Corpus.live(seeds, flush_threshold=flush_threshold,
                             fanout=fanout, compaction=args.compaction,
                             segment_dir=args.segment_dir)
    inserts = deletes = searches = 0
    rows: list[str] = []
    with open(args.ops_file, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            op, payload = line[0], line[1:]
            if not payload:
                raise ReproError(
                    f"{args.ops_file}:{number}: operation {op!r} "
                    "needs a string after it"
                )
            if op == "+":
                corpus.insert(payload)
                inserts += 1
            elif op == "-":
                corpus.delete(payload)
                deletes += 1
            elif op == "?":
                matches = corpus.search(payload, args.k)
                rows.append("\t".join(
                    [payload, *[m.string for m in matches]]))
                searches += 1
            else:
                raise ReproError(
                    f"{args.ops_file}:{number}: unknown operation "
                    f"{op!r}; lines start with '+' (insert), "
                    "'-' (delete) or '?' (search)"
                )
    if args.compact:
        corpus.compact()
    if args.segment_dir:
        corpus.sync()
    live_corpus = corpus.live_corpus
    print(
        f"live: {inserts} inserts, {deletes} deletes, "
        f"{searches} searches; {len(corpus)} strings in "
        f"{live_corpus.segment_count} segments "
        f"(+{live_corpus.memtable_size} in memtable, "
        f"{live_corpus.tombstone_count} tombstones) at epoch "
        f"{corpus.epoch}",
        file=sys.stderr,
    )
    _write_result_lines(rows, args.output)
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs.sampler import series_from_document

    try:
        with open(args.dump_file, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise ReproError(
            f"cannot read telemetry dump {args.dump_file}: {error}"
        ) from None
    except json.JSONDecodeError as error:
        raise ReproError(
            f"{args.dump_file} is not JSON: {error}"
        ) from None
    series = series_from_document(document)
    if args.format == "dump":
        lines = [json.dumps(document, indent=2, sort_keys=True)]
    elif args.format == "prom":
        from repro.obs.export import telemetry_to_prometheus

        lines = [telemetry_to_prometheus(series).rstrip("\n")]
    else:
        if args.samples < 1:
            raise ReproError(
                f"--samples needs a positive count, got {args.samples}"
            )
        lines = []
        for name in sorted(series):
            samples = series[name]
            if not samples:
                continue
            lines.append(f"{name}  ({len(samples)} samples, latest "
                         f"{samples[-1][1]:g})")
            for timestamp, value in samples[-args.samples:]:
                lines.append(f"  {timestamp:.3f}  {value:g}")
    _write_result_lines(lines, args.output)
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    print(run_experiment(args.experiment))
    return 0


_COMMANDS = {
    "search": _command_search,
    "suggest": _command_suggest,
    "complete": _command_complete,
    "generate": _command_generate,
    "join": _command_join,
    "stats": _command_stats,
    "distance": _command_distance,
    "explain": _command_explain,
    "live": _command_live,
    "metrics": _command_metrics,
    "bench": _command_bench,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
