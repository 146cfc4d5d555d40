"""Tests for request-scoped tracing: contexts, the tracer, propagation.

Covers the invariants the serving stack leans on: ids survive the
serialize/rebuild round trip, sampling is deterministic, spans record
even when blocks raise, the ambient helpers are no-ops outside a
trace, and the worker-boundary trio (ship_context / worker_span /
adopt_spans) rebuilds one coherent tree.
"""

import sys
import threading

import pytest

from repro.exceptions import ReproError
from repro.obs.tracing import (
    NULL_TRACER,
    TraceContext,
    Tracer,
    TraceSpan,
    adopt_spans,
    bound,
    current_context,
    current_trace,
    current_trace_id,
    emit_span,
    ship_context,
    span_tree,
    trace_span,
    use_trace,
    worker_span,
)


class TestTraceContext:
    def test_child_keeps_trace_id_and_links_parent(self):
        root = Tracer().mint()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_round_trip_preserves_identity_and_baggage(self):
        context = Tracer().mint(baggage={"shed": "admit"})
        rebuilt = TraceContext.from_dict(context.to_dict())
        assert rebuilt == context

    def test_with_baggage_keeps_span_ids(self):
        context = Tracer().mint()
        stamped = context.with_baggage(shed="degrade")
        assert stamped.span_id == context.span_id
        assert stamped.baggage_value("shed") == "degrade"

    def test_baggage_value_default(self):
        context = Tracer().mint()
        assert context.baggage_value("missing", "fallback") == "fallback"


class TestSampling:
    def test_rate_one_samples_every_mint(self):
        tracer = Tracer(sample_rate=1.0)
        assert all(tracer.mint().sampled for _ in range(5))

    def test_rate_zero_mints_ids_but_never_samples(self):
        tracer = Tracer(sample_rate=0.0)
        contexts = [tracer.mint() for _ in range(5)]
        assert all(not context.sampled for context in contexts)
        assert all(context.trace_id for context in contexts)

    def test_fractional_rate_is_deterministic_every_nth(self):
        tracer = Tracer(sample_rate=0.25)
        flags = [tracer.mint().sampled for _ in range(8)]
        assert flags == [False, False, False, True] * 2

    def test_bad_rate_raises(self):
        with pytest.raises(ReproError):
            Tracer(sample_rate=1.5)


class TestTracerCollection:
    def test_root_block_records_its_span(self):
        tracer = Tracer()
        with tracer.root("gateway.submit"):
            pass
        assert [span.name for span in tracer.spans()] \
            == ["gateway.submit"]

    def test_span_records_even_when_block_raises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.root("gateway.submit"):
                raise ValueError("boom")
        assert len(tracer.spans()) == 1

    def test_bounded_collection_counts_drops(self):
        tracer = Tracer(max_spans=2)
        for _ in range(4):
            with tracer.root("s"):
                pass
        assert len(tracer.spans()) == 2
        assert tracer.dropped == 2

    def test_unsampled_context_records_nothing(self):
        tracer = Tracer(sample_rate=0.0)
        context = tracer.mint()
        tracer.record_span("s", context, 0.0, 0.001)
        assert tracer.spans() == ()

    def test_null_tracer_discards(self):
        with NULL_TRACER.root("s"):
            pass
        assert len(NULL_TRACER.spans()) == 0


class TestAmbientHelpers:
    def test_outside_a_trace_everything_is_inert(self):
        assert current_trace() == (None, None)
        assert current_context() is None
        assert current_trace_id() == ""
        handle = trace_span("scan.query")
        with handle:
            pass
        emit_span("scan.query", 0.001)  # must not raise

    def test_trace_span_nests_under_ambient(self):
        tracer = Tracer()
        with tracer.root("outer") as root:
            with trace_span("inner"):
                pass
        spans = {span.name: span for span in tracer.spans()}
        assert spans["inner"].parent_id == root.span_id
        assert spans["inner"].trace_id == root.trace_id

    def test_trace_span_returns_shared_null_outside(self):
        assert trace_span("a") is trace_span("b")

    def test_unsampled_trace_span_is_the_shared_null(self):
        tracer = Tracer(sample_rate=0.0)
        with use_trace(tracer, tracer.mint()):
            assert trace_span("a") is trace_span("b")

    def test_emit_span_is_a_leaf_under_ambient(self):
        tracer = Tracer()
        with tracer.root("outer") as root:
            emit_span("leaf", 0.002, {"query": "q"})
        leaf = [s for s in tracer.spans() if s.name == "leaf"][0]
        assert leaf.parent_id == root.span_id
        assert leaf.seconds == 0.002
        assert ("query", "q") in leaf.tags

    def test_use_trace_restores_previous_pair(self):
        tracer = Tracer()
        context = tracer.mint()
        with use_trace(tracer, context):
            assert current_context() is context
        assert current_context() is None


class TestWorkerBoundary:
    def test_ship_context_is_none_outside_or_unsampled(self):
        assert ship_context() is None
        tracer = Tracer(sample_rate=0.0)
        with use_trace(tracer, tracer.mint()):
            assert ship_context() is None

    def test_worker_span_of_none_is_empty(self):
        assert worker_span("w", None, 0.0, 0.001) == ()

    def test_round_trip_parents_worker_under_shipping_site(self):
        tracer = Tracer()
        with tracer.root("parent") as root:
            shipped = ship_context()
            spans = worker_span("worker", shipped, 0.0, 0.003,
                                tags={"k": "2"})
            adopt_spans(spans)
        names = {span.name for span in tracer.spans()}
        assert names == {"parent", "worker"}
        tree = span_tree(tracer.spans_for(root.trace_id))
        depths = {span.name: depth for depth, span in tree.walk()}
        assert depths == {"parent": 0, "worker": 1}

    def test_adopt_spans_without_tracer_is_inert(self):
        adopt_spans(({"name": "w"},))  # no ambient tracer: no raise

    def test_bound_installs_the_pair_in_another_thread(self):
        tracer = Tracer()
        context = tracer.mint()
        seen = {}

        def probe():
            seen["context"] = current_context()

        thread = threading.Thread(
            target=bound(tracer, context, probe))
        thread.start()
        thread.join()
        assert seen["context"] is context


class TestConcurrentNesting:
    """One tracer shared by threads: parents never cross threads.

    The ambient pair is per thread and every span names its parent by
    id, so concurrent nesting cannot mis-attribute — the property every
    instrumented layer relies on now that this is the only span model.
    """

    THREADS = 4
    PAIRS = 300

    def test_inner_spans_parent_under_their_own_outer(self):
        tracer = Tracer(max_spans=4 * self.THREADS * self.PAIRS)
        roots: dict[int, str] = {}
        barrier = threading.Barrier(self.THREADS)

        def work(lane: int) -> None:
            barrier.wait(timeout=30)
            with tracer.root(f"root.{lane}") as context:
                roots[lane] = context.trace_id
                for pair in range(self.PAIRS):
                    with trace_span(f"outer.{lane}.{pair}"):
                        with trace_span(f"inner.{lane}.{pair}"):
                            pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(lane,))
                       for lane in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert tracer.dropped == 0
        for lane, trace_id in roots.items():
            tree = span_tree(tracer.spans(), trace_id=trace_id)
            assert [root.name for root in tree.roots] == [f"root.{lane}"]
            assert len(tree.spans) == 1 + 2 * self.PAIRS
            by_id = {span.span_id: span for span in tree.spans}
            for span in tree.spans:
                kind, _, rest = span.name.partition(".")
                if kind == "inner":
                    assert by_id[span.parent_id].name == f"outer.{rest}"
                elif kind == "outer":
                    assert by_id[span.parent_id].name == f"root.{lane}"


class TestSpanTree:
    def _span(self, name, trace_id="t1", span_id="s1", parent_id=None):
        return TraceSpan(name=name, trace_id=trace_id, span_id=span_id,
                         parent_id=parent_id, started=0.0,
                         seconds=0.001, pid=0, tid=0)

    def test_orphan_spans_become_extra_roots(self):
        tree = span_tree([
            self._span("root", span_id="a"),
            self._span("orphan", span_id="b", parent_id="missing"),
        ])
        assert {span.name for span in tree.roots} == {"root", "orphan"}

    def test_mixed_traces_raise_without_selector(self):
        with pytest.raises(ReproError):
            span_tree([
                self._span("a", trace_id="t1"),
                self._span("b", trace_id="t2", span_id="s2"),
            ])

    def test_selector_filters_to_one_trace(self):
        tree = span_tree([
            self._span("a", trace_id="t1"),
            self._span("b", trace_id="t2", span_id="s2"),
        ], trace_id="t2")
        assert [span.name for span in tree.spans] == ["b"]
