"""Span export to the Chrome/Perfetto trace-event JSON format.

:class:`repro.obs.tracing.TraceSpan` records (collected by a
:class:`repro.obs.tracing.Tracer`) already carry everything a trace
viewer needs; this module only reshapes them into the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
that ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_
open directly:

* each span becomes one complete event (``"ph": "X"``) with
  microsecond ``ts``/``dur`` relative to the earliest span;
* each span carries its **own** ``pid``/``tid`` — recorded where the
  work ran, shipped back across the process-pool boundary — so Perfetto
  lays a request out across its real lanes: the asyncio thread, the
  pool worker threads, the pool *processes*, the background compaction
  thread;
* per-(pid, tid) metadata events name every lane, and the trace/span/
  parent ids ride in ``args`` so the tree survives flattening.

Wired into the CLI as ``repro-search search ... --trace-out FILE``
(one ``cli.search``-rooted tree per run). The emitted document is plain
JSON — asserted valid in tests, no browser required.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.obs.tracing import Tracer, TraceSpan

#: Trace-event category stamped on every exported span.
CATEGORY = "repro"


def trace_span_to_event(span: TraceSpan, *, epoch: float = 0.0) -> dict:
    """One span as a complete ("X") event, on its own lane.

    ``epoch`` is the wall-clock origin subtracted from every ``ts`` so
    the document starts near zero (viewers dislike 50-year offsets);
    callers pass the earliest span's start.
    """
    args: dict[str, Any] = {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id or "",
    }
    for key, value in span.tags:
        args[key] = value
    return {
        "name": span.name,
        "cat": CATEGORY,
        "ph": "X",
        "ts": round((span.started - epoch) * 1e6, 3),
        "dur": round(span.seconds * 1e6, 3),
        "pid": span.pid,
        "tid": span.tid,
        "args": args,
    }


def tracer_events(spans: Iterable[TraceSpan], *,
                  process_name: str = "repro") -> list[dict]:
    """Spans as events with per-lane metadata stitching.

    Every distinct ``pid`` gets a ``process_name`` metadata event
    (the main process keeps ``process_name``; pool workers are labeled
    ``{process_name}/worker``) and every distinct ``(pid, tid)`` gets a
    ``thread_name`` event carrying the recording thread's name — so
    Perfetto shows "gateway", "shard-0-worker-1", "live-corpus-
    compaction" as named lanes instead of bare ids.
    """
    spans = list(spans)
    if not spans:
        return []
    epoch = min(span.started for span in spans)
    own_pid = min(span.pid for span in spans)
    events: list[dict] = []
    seen_pids: set[int] = set()
    seen_lanes: set[tuple[int, int]] = set()
    for span in spans:
        if span.pid not in seen_pids:
            seen_pids.add(span.pid)
            label = process_name if span.pid == own_pid \
                else f"{process_name}/worker"
            events.append({
                "name": "process_name", "ph": "M",
                "pid": span.pid, "tid": 0,
                "args": {"name": label},
            })
        lane = (span.pid, span.tid)
        if lane not in seen_lanes:
            seen_lanes.add(lane)
            events.append({
                "name": "thread_name", "ph": "M",
                "pid": span.pid, "tid": span.tid,
                "args": {"name": span.thread or f"tid-{span.tid}"},
            })
    events.extend(trace_span_to_event(span, epoch=epoch)
                  for span in sorted(spans,
                                     key=lambda span: span.started))
    return events


def trace_document(source: Tracer | Iterable[TraceSpan], *,
                   process_name: str = "repro") -> dict[str, Any]:
    """The full JSON-object trace document viewers accept.

    ``source`` is a :class:`Tracer` (its collected spans are read) or
    any iterable of :class:`TraceSpan`. The object form
    (``{"traceEvents": [...]}``) is used rather than the bare array so
    metadata has a legal home.
    """
    spans = source.spans() if isinstance(source, Tracer) else source
    return {
        "traceEvents": tracer_events(spans, process_name=process_name),
        "displayTimeUnit": "ms",
    }


def write_trace(path: str | Path, source: Tracer | Iterable[TraceSpan],
                *, process_name: str = "repro") -> Path:
    """Write the trace document to ``path``; returns the path.

    The file loads directly in ``chrome://tracing`` ("Load") and
    https://ui.perfetto.dev ("Open trace file").
    """
    path = Path(path)
    document = trace_document(source, process_name=process_name)
    path.write_text(json.dumps(document, indent=1) + "\n",
                    encoding="utf-8")
    return path
