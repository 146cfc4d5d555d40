"""Every front door yields one span tree, and tracing changes no timer.

There is one span model (:mod:`repro.obs.tracing`): whichever entry
point a request comes through, its spans share one trace id, hang off a
single root, and bottom out in the layer that did the work. Timers are
a separate signal (:class:`repro.obs.MetricsRegistry`); opening a trace
must not add or remove a timer series.
"""

import asyncio
import contextlib
import os

import pytest

from repro.core.engine import SearchEngine
from repro.core.planner import PlannerPolicy
from repro.core.request import SearchRequest
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer, span_tree
from repro.parallel.executor import ProcessPoolRunner, ThreadPoolRunner
from repro.service.service import Service
from repro.traffic.gateway import AsyncService
from repro.traffic.pools import ShardPools

DATASET = ["Berlin", "Bern", "Bonn", "Ulm", "Hamburg", "Bremen",
           "Dresden", "Berlingen", "Bernburg", "Uelzen"] * 3
QUERIES = ["Berlino", "Bern", "Bremn", "Ulmm"]
FLAT = PlannerPolicy(strategy="indexed")


def engine_search(tracer):
    engine = SearchEngine(DATASET, backend="indexed", observe=True)
    with _root(tracer):
        engine.search("Berlino", 2)
    return set(engine.last_report.timers)


def engine_search_many(make_runner):
    def run(tracer):
        engine = SearchEngine(DATASET, backend="compiled", observe=True,
                              runner=make_runner())
        with _root(tracer):
            engine.search_many(QUERIES, 2)
        return set(engine.last_report.timers)

    return run


def service_submit(tracer):
    registry = MetricsRegistry()
    service = Service(DATASET, shards=2, metrics=registry, tracer=tracer)
    service.submit("Berlino", 2, plan=FLAT)
    return set(registry.timers())


def gateway_ladder(tracer):
    registry = MetricsRegistry()
    gateway = AsyncService(Service(DATASET, shards=2, metrics=registry),
                           tracer=tracer)
    asyncio.run(gateway.submit(SearchRequest("Berlino", 2, plan=FLAT)))
    return set(registry.timers())


def gateway_thread_pools(tracer):
    registry = MetricsRegistry()
    pools = ShardPools(DATASET, shards=2, kind="thread")
    gateway = AsyncService(Service(DATASET, shards=2, metrics=registry),
                           pools=pools, tracer=tracer)
    try:
        asyncio.run(gateway.submit("Berlino", 2))
    finally:
        pools.close()
    return set(registry.timers())


def _root(tracer):
    """``tracer.root("test")``, or nothing for the untraced run."""
    return (tracer.root("test") if tracer is not None
            else contextlib.nullcontext())


ENTRY_POINTS = [
    pytest.param(engine_search, "test", {"index.probe"}, 1,
                 id="engine.search"),
    pytest.param(engine_search_many(lambda: None), "test",
                 {"scan.query"}, 1, id="engine.search_many-serial"),
    pytest.param(engine_search_many(lambda: ThreadPoolRunner(3)), "test",
                 {"scan.query"}, 1, id="engine.search_many-threads"),
    pytest.param(engine_search_many(lambda: ProcessPoolRunner(2)), "test",
                 {"scan.query"}, 2, id="engine.search_many-processes"),
    pytest.param(service_submit, "service.submit", {"index.probe"}, 1,
                 id="Service.submit"),
    pytest.param(gateway_ladder, "gateway.submit", {"index.probe"}, 1,
                 id="AsyncService.submit-ladder"),
    pytest.param(gateway_thread_pools, "gateway.submit",
                 {"pool.shard[0]", "pool.shard[1]"}, 1,
                 id="AsyncService.submit-thread-pools"),
]


@pytest.mark.parametrize("run, root, leaves, min_pids", ENTRY_POINTS)
def test_one_tree_and_unchanged_timers(run, root, leaves, min_pids):
    tracer = Tracer()
    traced_timers = run(tracer)
    spans = tracer.spans()
    assert tracer.dropped == 0
    assert len({span.trace_id for span in spans}) == 1
    tree = span_tree(spans)  # raises on a second trace id
    assert [span.name for span in tree.roots] == [root]  # zero orphans
    assert {span.name for span in tree.spans
            if span.span_id not in tree.children} == leaves
    pids = {span.pid for span in spans}
    assert os.getpid() in pids and len(pids) >= min_pids
    assert traced_timers == run(None)
