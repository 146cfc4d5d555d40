"""Tests for the Chrome/Perfetto trace-event export."""

import json

from repro.obs.traceexport import (
    trace_document,
    trace_span_to_event,
    tracer_events,
    write_trace,
)
from repro.obs.tracing import Tracer, TraceSpan, trace_span


def _span(name="scan.search", span_id="b", parent_id="a", started=10.001,
          seconds=0.002, pid=1, tid=1, thread="main", tags=()):
    return TraceSpan(name=name, trace_id="t", span_id=span_id,
                     parent_id=parent_id, started=started,
                     seconds=seconds, pid=pid, tid=tid, thread=thread,
                     tags=tags)


class TestSpanToEvent:
    def test_complete_event_in_microseconds(self):
        event = trace_span_to_event(_span(started=10.5, seconds=0.25),
                                    epoch=10.0)
        assert event["ph"] == "X"
        assert event["ts"] == 500000.0
        assert event["dur"] == 250000.0
        assert event["cat"] == "repro"

    def test_ids_and_tags_ride_in_args(self):
        event = trace_span_to_event(_span(tags=(("plan", "flat"),)))
        assert event["args"] == {"trace_id": "t", "span_id": "b",
                                 "parent_id": "a", "plan": "flat"}

    def test_a_root_has_an_empty_parent_id(self):
        event = trace_span_to_event(_span(parent_id=None))
        assert event["args"]["parent_id"] == ""


class TestTraceDocument:
    def test_lane_metadata_precedes_spans(self):
        events = tracer_events([_span()], process_name="unit")
        assert [event["ph"] for event in events] == ["M", "M", "X"]
        assert events[0]["args"]["name"] == "unit"
        assert events[1]["args"]["name"] == "main"

    def test_worker_processes_get_their_own_lanes(self):
        events = tracer_events([
            _span(pid=1, tid=1),
            _span(name="scan.query", span_id="c", parent_id="b",
                  pid=7, tid=9, thread="worker"),
        ], process_name="unit")
        names = {(event["pid"], event["args"]["name"])
                 for event in events if event["name"] == "process_name"}
        assert names == {(1, "unit"), (7, "unit/worker")}

    def test_accepts_a_tracer(self):
        tracer = Tracer()
        with tracer.root("outer"):
            with trace_span("inner"):
                pass
        document = trace_document(tracer)
        by_name = {event["name"]: event
                   for event in document["traceEvents"]
                   if event["ph"] == "X"}
        assert by_name["inner"]["args"]["parent_id"] \
            == by_name["outer"]["args"]["span_id"]
        assert document["displayTimeUnit"] == "ms"

    def test_no_spans_is_an_empty_document(self):
        assert trace_document(Tracer())["traceEvents"] == []


class TestWriteTrace:
    def test_file_is_valid_trace_event_json(self, tmp_path):
        tracer = Tracer()
        with tracer.root("engine.search"):
            pass
        path = write_trace(tmp_path / "trace.json", tracer)
        document = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(document["traceEvents"], list)
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 1
        event = spans[0]
        # every field a viewer needs, with sane units
        assert event["name"] == "engine.search"
        assert set(event) >= {"ph", "ts", "dur", "pid", "tid", "cat"}
        assert event["ts"] >= 0 and event["dur"] >= 0

    def test_plain_span_iterable_works_too(self, tmp_path):
        path = write_trace(tmp_path / "t.json",
                           [_span(), _span(name="other", span_id="c")])
        document = json.loads(path.read_text(encoding="utf-8"))
        # process + thread metadata, then the two spans
        assert len(document["traceEvents"]) == 4

    def test_engine_search_produces_spans(self, tmp_path, city_names):
        from repro.core.engine import SearchEngine

        tracer = Tracer()
        engine = SearchEngine(city_names, backend="sequential")
        with tracer.root("test"):
            engine.search(city_names[0], 1)
        path = write_trace(tmp_path / "engine.json", tracer)
        document = json.loads(path.read_text(encoding="utf-8"))
        names = {e["name"] for e in document["traceEvents"]
                 if e["ph"] == "X"}
        assert {"engine.search", "scan.search"} <= names
