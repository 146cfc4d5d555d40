"""Per-layer measurements of the traced run, taken from outside.

Three sources, all driven by the benchmark: spans around the layers'
public functions (:func:`trace_points`), the always-on work counters
the layers already keep, and direct timings of single public calls.
"""

from __future__ import annotations

import os
import time

from common import Context, median

perf_counter = time.perf_counter

#: budget layer (span-name prefix) -> per-layer metric of its self time
BUDGET_METRICS = {
    "engine": ("engine.dispatch_us", 1e6),
    "planner": ("planner.plan_us", 1e6),
    "index": ("index.self_us", 1e6),
    "scan": ("scan.self_us", 1e6),
    "gateway": ("traffic.gateway.overhead_ms", 1e3),
    "cache": ("traffic.cache.self_us", 1e6),
    "shedding": ("traffic.shedding.self_us", 1e6),
    "service": ("service.ladder_overhead_ms", 1e3),
    "sharding": ("service.sharding.self_ms", 1e3),
    "live": ("live.self_ms", 1e3),
    "speed": ("speed.self_us", 1e6),
}


def trace_points() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every traced public call."""
    import repro.core.engine as engine_module
    import repro.core.planner as planner_module
    import repro.speed as speed_module
    from repro.core.indexed import IndexedSearcher
    from repro.core.planner import Planner
    from repro.index.batch import BatchIndexExecutor
    from repro.index.flat import FlatTrie
    from repro.live.corpus import LiveCorpus
    from repro.scan.corpus import CompiledCorpus
    from repro.scan.searcher import CompiledScanSearcher
    from repro.service.service import Service
    from repro.service.sharding import ShardedCorpus
    from repro.traffic.cache import ResultCache
    from repro.traffic.shedding import LoadShedder

    return [
        (engine_module, "collect_statistics", "planner.stats"),
        (planner_module, "collect_statistics", "planner.stats"),
        (Planner, "plan", "planner.plan"),
        (Planner, "plan_queries", "planner.plan"),
        (Planner, "observe_window", "planner.observe"),
        (IndexedSearcher, "__init__", "index.build"),
        (FlatTrie, "__init__", "index.build"),
        (IndexedSearcher, "search", "index.search"),
        (BatchIndexExecutor, "search_many", "index.search_many"),
        (CompiledCorpus, "__init__", "scan.compile"),
        (CompiledScanSearcher, "search", "scan.search"),
        (CompiledScanSearcher, "search_many", "scan.search_many"),
        (speed_module, "save_segment", "speed.save_segment"),
        (ResultCache, "get", "cache.get"),
        (ResultCache, "put", "cache.put"),
        (ResultCache, "invalidate", "cache.invalidate"),
        (LoadShedder, "decide", "shedding.decide"),
        (Service, "submit", "service.submit"),
        (ShardedCorpus, "refresh", "sharding.refresh"),
        (ShardedCorpus, "search", "sharding.search"),
        (LiveCorpus, "insert", "live.insert"),
        (LiveCorpus, "delete", "live.delete"),
        (LiveCorpus, "search", "live.search"),
        (LiveCorpus, "snapshot", "live.snapshot"),
    ]


def set_up_spans(layer: dict, recorder) -> None:
    """Constructor time seen while the workload set itself up."""
    layer["planner.stats_s"] = recorder.seconds_in("planner.stats")
    layer["index.build_s"] = recorder.seconds_in("index.build")
    layer["scan.compile_s"] = recorder.seconds_in("scan.compile")


def write_budget(outcome, recorder, workload: str, roots: tuple[str, ...],
                 operations: int, wall_seconds: float,
                 ctx: Context) -> None:
    """The traced pass's budget: per-layer metrics, trace and table files."""
    from spans import render_budget

    layer = outcome.per_layer
    budget = recorder.layer_budget(roots=roots)
    root_seconds = recorder.root_seconds(roots)
    for name, row in budget.items():
        metric, scale = BUDGET_METRICS[name]
        layer[metric] = row["self_s"] / operations * scale
    layer["budget.residual_share"] = \
        (wall_seconds - root_seconds) / wall_seconds
    os.makedirs(ctx.out_dir, exist_ok=True)
    recorder.write_chrome_trace(
        os.path.join(ctx.out_dir, f"trace_{workload}.json"))
    with open(os.path.join(ctx.out_dir, f"budget_{workload}.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(render_budget(workload, budget, root_seconds,
                                   wall_seconds, operations))
    traced = [span["op_id"] for span in recorder.spans if span["op_id"]]
    outcome.info["trace"] = {
        "operations": len(set(traced)),
        "spans": len(traced),
        "residual_share": layer["budget.residual_share"],
    }


def data_round_trip(layer: dict, corpus_file: str, target: str,
                    queries, rows) -> None:
    """``read_strings`` on the corpus file, ``write_result_file`` on
    the traced pass's answers."""
    from repro.data import read_strings, write_result_file

    started = perf_counter()
    read_strings(corpus_file)
    layer["data.read_s"] = perf_counter() - started
    started = perf_counter()
    write_result_file(target, queries,
                      [[match.string for match in row] for row in rows])
    layer["data.write_s"] = perf_counter() - started


def work_counters(layer: dict, counters: dict, scan_queries: int,
                  index_queries: int) -> None:
    """Exact work per query from the ``scan.*`` / ``trie.*`` counters."""
    get = counters.get
    kernel_calls = get("scan.kernel_calls", 0)
    rejects = (get("scan.length_rejects", 0) + get("scan.freq_rejects", 0)
               + get("scan.prefilter_rejects", 0))
    if scan_queries:
        layer["scan.candidates_per_query"] = \
            get("scan.candidates", 0) / scan_queries
        layer["scan.kernel_calls_per_query"] = kernel_calls / scan_queries
    if rejects + kernel_calls:
        layer["filters.reject_ratio"] = rejects / (rejects + kernel_calls)
    if kernel_calls:
        layer["distance.match_ratio"] = \
            get("scan.matches", 0) / kernel_calls
    if index_queries:
        layer["index.nodes_per_query"] = \
            get("trie.nodes_visited", 0) / index_queries


def distance_probes(layer: dict, strings, source, k: int,
                    ctx: Context) -> None:
    """The scalar kernel over seeded (query, candidate) pairs."""
    from repro.distance.dispatch import bounded_distance

    rng = ctx.rng("pairs")
    queries = source.batch(50, k)
    pairs = [(rng.choice(queries), strings[rng.randrange(len(strings))])
             for _ in range(ctx.count(20_000))]
    started = perf_counter()
    for query, candidate in pairs:
        bounded_distance(query, candidate, k)
    layer["distance.scalar_ns_per_pair"] = \
        (perf_counter() - started) / len(pairs) * 1e9


def segment_probes(layer: dict, strings, ctx: Context, *,
                   k: int = 2) -> None:
    """Packed compile → ``save_segment`` → ``load_segment``, plus the
    vectorized kernel over the packed corpus's largest length bucket."""
    from repro.distance.vectorized import bucket_distances, prepare_query
    from repro.scan.corpus import CompiledCorpus
    from repro.speed import load_segment, save_segment

    corpus = CompiledCorpus(strings, packed=True)
    path = os.path.join(ctx.out_dir, f"probe-{os.getpid()}.seg")
    os.makedirs(ctx.out_dir, exist_ok=True)
    try:
        started = perf_counter()
        save_segment(corpus, path)
        layer["speed.segment_save_s"] = perf_counter() - started
        started = perf_counter()
        load_segment(path)
        layer["speed.segment_load_s"] = perf_counter() - started
    finally:
        if os.path.exists(path):
            os.remove(path)
    bucket = max(corpus.buckets, key=len)
    samples = []
    for query in bucket.strings[:5]:
        started = perf_counter()
        vector_query = prepare_query(corpus.encode_query(query),
                                     corpus.alphabet.size)
        bucket_distances(vector_query, bucket.packed.codes, k)
        samples.append((perf_counter() - started) / len(bucket) * 1e9)
    layer["distance.vectorized_ns_per_pair"] = median(samples)


# -- serving-stack probes ----------------------------------------------


def traffic_probes(layer: dict, requests, ctx: Context) -> None:
    """Direct ``ResultCache.get``/``put`` and ``LoadShedder.decide``."""
    from repro import SearchRequest, ServiceResult
    from repro.traffic import LoadShedder, ResultCache, Watermarks

    cache = ResultCache(maxsize=4096)
    result = ServiceResult(query="", k=0, status="complete", matches=(),
                           verified=True, plan="flat", attempts=1)
    probes = [SearchRequest(query, k) for query, k in requests]
    started = perf_counter()
    for request in probes:
        cache.put(request, result)
    layer["traffic.cache.put_us"] = \
        (perf_counter() - started) / len(probes) * 1e6
    started = perf_counter()
    for request in probes:
        cache.get(request)
    layer["traffic.cache.get_us"] = \
        (perf_counter() - started) / len(probes) * 1e6
    shedder = LoadShedder(Watermarks(shed_depth=16, reject_depth=64))
    rounds = ctx.count(20_000)
    started = perf_counter()
    for depth in range(rounds):
        shedder.decide(depth & 7)
    layer["traffic.shedding.decide_us"] = \
        (perf_counter() - started) / rounds * 1e6


def pools_probe(layer: dict, strings, requests) -> None:
    """The per-shard thread crews on the same kind of cache misses."""
    from repro import SearchRequest
    from repro.traffic import ShardPools

    samples = []
    with ShardPools(strings, shards=2, kind="thread") as pools:
        for query, k in requests:
            started = perf_counter()
            pools.submit(SearchRequest(query, k)).result()
            samples.append((perf_counter() - started) * 1e3)
    # The first submits compile the shards; the median skips them.
    layer["traffic.pools.submit_ms"] = median(samples)


def sharding_probe(layer: dict, strings, requests) -> None:
    """Two shards searched in turn against one trie over everything."""
    from repro import IndexedSearcher
    from repro.service import ShardedCorpus

    sharded = ShardedCorpus(strings, 2)
    whole = IndexedSearcher(strings, index="flat")
    sharded_ms, whole_ms = [], []
    for query, k in requests:
        started = perf_counter()
        sharded.search(query, k)
        sharded_ms.append((perf_counter() - started) * 1e3)
        started = perf_counter()
        whole.search(query, k)
        whole_ms.append((perf_counter() - started) * 1e3)
    # Drop the first request of each: it builds the shard tries.
    layer["service.sharding.vs_unsharded_ratio"] = \
        median(sharded_ms[1:]) / median(whole_ms[1:])
