"""Unified observability: metrics, tracing, and the one-call report API.

The paper's whole method is evidential — keep an optimization only if
it verifies identically *and* measurably helps — so per-stage counters
(filter hits, pruned subtrees, dedup savings) are first-class outputs
of this library, not debug prints. This package is the single
instrumentation layer both engines share:

:mod:`repro.obs.registry`
    :class:`MetricsRegistry` — counters, gauges, monotonic timers,
    latency histograms — and the :data:`NULL` no-op registry the hot
    paths default to.
:mod:`repro.obs.hist`
    :class:`Histogram` — fixed-boundary log-bucket latency/size
    histograms whose state is bucketwise additive, so worker shipping,
    merging, and before/after windowing are exact.
:mod:`repro.obs.report`
    :class:`SearchReport`, the frozen per-call record every engine
    returns through ``SearchEngine.search(..., report=True)`` /
    ``SearchEngine.last_report``, with its documented schema and
    validator. Schema v2 adds per-call histogram quantile summaries.
:mod:`repro.obs.recorder`
    :class:`FlightRecorder` — the bounded slow-query flight recorder
    behind ``Service`` event exemplars and the CLI ``--slowlog``.
:mod:`repro.obs.tracing`
    The one span model: a :class:`TraceContext` minted per request
    (gateway submit, standalone ``Service.submit``, CLI run),
    propagated across the asyncio/thread/process boundaries, collected
    as :class:`TraceSpan` trees by a :class:`Tracer`
    (``trace_span``/``use_trace`` for ambient propagation,
    ``span_tree`` for assembly).
:mod:`repro.obs.events`
    :class:`EventLog` — the bounded, trace-stamped JSON-lines log of
    operational transitions (admission, shed, ladder rungs, cache
    traffic, flushes, compactions, epoch bumps).
:mod:`repro.obs.sampler`
    :class:`TelemetrySampler` — periodic gauge snapshots into bounded
    ring-buffer time series, behind the ``repro metrics`` CLI.
:mod:`repro.obs.traceexport`
    Span export to Chrome/Perfetto trace-event JSON
    (``--trace-out FILE``), with per-pid/tid lane stitching.
:mod:`repro.obs.export`
    Structured-dict, JSON-lines and Prometheus-text exporters for
    registries and reports.
:mod:`repro.obs.validate`
    ``python -m repro.obs.validate FILE...`` — the CI gate that checks
    emitted CLI reports and event logs against the schema.
:mod:`repro.obs.regress`
    ``python -m repro.obs.regress BASELINE CURRENT`` — diffs two result
    documents of the e2e benchmark against the ``BENCHMARK.json`` bounds.

See ``docs/OBSERVABILITY.md`` for the tour.
"""

from repro.obs.events import (
    EVENT_KINDS,
    NO_EVENTS,
    EventLog,
    NullEventLog,
    validate_event,
    validate_event_lines,
)
from repro.obs.export import (
    telemetry_to_prometheus,
    to_dict,
    to_json,
    to_json_lines,
    to_prometheus,
)
from repro.obs.hist import (
    Histogram,
    hists_delta,
    summarize,
)
from repro.obs.recorder import (
    FlightRecorder,
    QueryExemplar,
)
from repro.obs.sampler import (
    TelemetrySampler,
)
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    SpanTree,
    TraceContext,
    Tracer,
    TraceSpan,
    current_context,
    current_trace,
    current_trace_id,
    emit_span,
    span_tree,
    trace_span,
    use_trace,
)
from repro.obs.registry import (
    NULL,
    MetricsRegistry,
    NullRegistry,
    counter_delta,
)
from repro.obs.report import (
    HISTOGRAM_SUMMARY_KEYS,
    REPORT_SCHEMA,
    SCHEMA_VERSION,
    BatchCounters,
    SearchReport,
    build_report,
    report_from_dict,
    require_valid_report,
    validate_report,
)
from repro.obs.traceexport import (
    trace_document,
    write_trace,
)

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL",
    "counter_delta",
    "Histogram",
    "hists_delta",
    "summarize",
    "FlightRecorder",
    "QueryExemplar",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceContext",
    "TraceSpan",
    "SpanTree",
    "span_tree",
    "trace_span",
    "emit_span",
    "use_trace",
    "current_trace",
    "current_context",
    "current_trace_id",
    "EventLog",
    "NullEventLog",
    "NO_EVENTS",
    "EVENT_KINDS",
    "validate_event",
    "validate_event_lines",
    "TelemetrySampler",
    "trace_document",
    "write_trace",
    "SearchReport",
    "BatchCounters",
    "build_report",
    "report_from_dict",
    "validate_report",
    "require_valid_report",
    "REPORT_SCHEMA",
    "SCHEMA_VERSION",
    "HISTOGRAM_SUMMARY_KEYS",
    "to_dict",
    "to_json",
    "to_json_lines",
    "telemetry_to_prometheus",
    "to_prometheus",
]
