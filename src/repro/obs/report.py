"""The one report every engine returns: :class:`SearchReport`.

Before this layer, evidence about a run was scattered: the indexed
searcher mutated a ``last_stats`` attribute, the batch engines exposed
``BatchStats`` objects, and wall-clock numbers lived in whichever
benchmark script happened to time the call. :class:`SearchReport` is
the single structured answer to "what did that call actually do": which
backend served it (and why it was chosen), how long it took, the
backend's work counters, the batch layer's dedup/memo counters, and any
timer sections the observability registry recorded.

The report is **frozen** — a value, not a live view — and has one
documented schema (:data:`REPORT_SCHEMA`, enforced by
:func:`validate_report`) across all four execution paths: the
per-query sequential scan, the compiled batch scan, the (object or
flat) trie index, and the batch executor under either probe. CI validates a report
the CLI wrote (``--stats-output``) against the same schema, so the JSON
on disk can never drift from the API.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

from repro.exceptions import ReproError

#: Version stamped into every report; bump on breaking schema changes.
#: Version 2 added the required ``histograms`` section (per-series
#: quantile summaries from the fixed-boundary log-bucket histograms).
SCHEMA_VERSION = 2

#: Keys every non-empty ``histograms`` entry must carry (quantile
#: summaries produced by :meth:`repro.obs.hist.Histogram.summary`).
HISTOGRAM_SUMMARY_KEYS = ("count", "mean", "p50", "p90", "p99",
                          "p999", "max")

#: The documented shape of ``SearchReport.to_dict()``. ``counters`` is
#: an open namespace (``scan.*``, ``trie.*``, ``obs.*``) because each
#: backend reports the work profile it actually has; everything else is
#: closed and type-checked by :func:`validate_report`. ``gauges`` is an
#: *optional additive* section (same schema version): last-write-wins
#: observations such as ``service.queue_depth`` or
#: ``service.cache.size``, exported as Prometheus gauges. Reports
#: written before the section existed validate unchanged.
REPORT_SCHEMA: dict[str, Any] = {
    "schema_version": int,
    "backend": str,        # side that actually served the call
    "engine": str,         # serving searcher/executor name
    "mode": str,           # "search" | "batch" | "workload" | "service"
    "queries": int,
    "k": int,
    "matches": int,
    "seconds": float,
    "counters": dict,      # dotted-name -> number
    "timers": dict,        # name -> {"seconds": float, "calls": number}
    "histograms": dict,    # name -> quantile summary (p50/p90/p99/...)
    "batch": (dict, type(None)),  # dedup/memo counters, None off-batch
    "choice": dict,        # {"backend": str, "reason": str}
}

#: Optional top-level sections :func:`validate_report` type-checks only
#: when present (additive evolution without a schema-version bump).
#: ``plan`` is the serialized EXPLAIN plan of the call
#: (:meth:`repro.core.planner.QueryPlan.to_dict`), emitted by
#: planner-routed engines and deep-checked via
#: :func:`repro.core.planner.validate_plan`.
OPTIONAL_REPORT_SCHEMA: dict[str, Any] = {
    "gauges": dict,        # dotted-name -> number, last-write-wins
    "plan": dict,          # serialized QueryPlan (EXPLAIN section)
}

#: Required keys of a non-``None`` ``batch`` section.
BATCH_SCHEMA_KEYS = (
    "queries_seen", "unique_queries", "deduplicated",
    "cache_hits", "scans_executed",
)

#: Allowed ``mode`` values. ``"service"`` reports come from
#: :class:`repro.service.Service` (additive — same schema version).
REPORT_MODES = ("search", "batch", "workload", "service")


@dataclass(frozen=True)
class BatchCounters:
    """Frozen dedup/memo counters of one batch window.

    The immutable face of :class:`repro.core.batch.BatchStats`,
    usually holding the *delta* a single call contributed rather than
    the executor's cumulative totals.
    """

    queries_seen: int = 0
    unique_queries: int = 0
    cache_hits: int = 0
    scans_executed: int = 0

    @property
    def deduplicated(self) -> int:
        """Queries answered by batch-level deduplication."""
        return self.queries_seen - self.unique_queries

    @classmethod
    def from_stats(cls, stats: Any) -> "BatchCounters":
        """Freeze any ``BatchStats``-shaped object (duck-typed)."""
        return cls(
            queries_seen=stats.queries_seen,
            unique_queries=stats.unique_queries,
            cache_hits=stats.cache_hits,
            scans_executed=stats.scans_executed,
        )

    def to_dict(self) -> dict[str, int]:
        """The ``batch`` section of the report schema."""
        return {
            "queries_seen": self.queries_seen,
            "unique_queries": self.unique_queries,
            "deduplicated": self.deduplicated,
            "cache_hits": self.cache_hits,
            "scans_executed": self.scans_executed,
        }


def _frozen_mapping(mapping: Mapping | None) -> Mapping:
    return MappingProxyType(dict(mapping or {}))


@dataclass(frozen=True)
class SearchReport:
    """What one engine call did, as an immutable value.

    Built by :func:`build_report` (which freezes the mappings); engines
    hand it out via ``search(..., report=True)`` and ``last_report``.

    Examples
    --------
    >>> report = build_report(backend="sequential", engine="sequential[bitparallel]",
    ...                       mode="search", queries=1, k=2, matches=3,
    ...                       seconds=0.004, counters={"scan.candidates": 40})
    >>> report.counters["scan.candidates"]
    40
    >>> validate_report(report.to_dict())
    []
    """

    backend: str
    engine: str
    mode: str
    queries: int
    k: int
    matches: int
    seconds: float
    counters: Mapping[str, float] = field(default_factory=dict)
    timers: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    histograms: Mapping[str, Mapping[str, float]] = field(
        default_factory=dict)
    gauges: Mapping[str, float] = field(default_factory=dict)
    batch: BatchCounters | None = None
    choice_backend: str = ""
    choice_reason: str = ""
    plan: Mapping[str, Any] | None = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        """The documented structured form (see :data:`REPORT_SCHEMA`).

        The ``gauges`` and ``plan`` keys are emitted only when the
        report carries them — reports from paths without those
        sections keep their historical shape byte-for-byte.
        """
        mapping = {
            "schema_version": self.schema_version,
            "backend": self.backend,
            "engine": self.engine,
            "mode": self.mode,
            "queries": self.queries,
            "k": self.k,
            "matches": self.matches,
            "seconds": round(self.seconds, 6),
            "counters": dict(self.counters),
            "timers": {name: dict(cell)
                       for name, cell in self.timers.items()},
            "histograms": {name: dict(cell)
                           for name, cell in self.histograms.items()},
            "batch": self.batch.to_dict() if self.batch else None,
            "choice": {
                "backend": self.choice_backend or self.backend,
                "reason": self.choice_reason,
            },
        }
        if self.gauges:
            mapping["gauges"] = dict(self.gauges)
        if self.plan is not None:
            mapping["plan"] = dict(self.plan)
        return mapping

    def to_json(self, *, indent: int | None = None) -> str:
        """The report as JSON (one line when ``indent`` is ``None``)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self, *, prefix: str = "repro") -> str:
        """Prometheus text-exposition rendering (see exporters)."""
        from repro.obs.export import report_to_prometheus

        return report_to_prometheus(self, prefix=prefix)

    def render(self) -> str:
        """Short human-readable summary (the CLI's ``--stats`` text)."""
        lines = [
            f"report: backend={self.backend} engine={self.engine} "
            f"mode={self.mode}",
            f"  {self.queries} queries at k={self.k}: "
            f"{self.matches} matches in {self.seconds:.3f}s",
        ]
        if self.batch is not None:
            lines.append(
                f"  batch: {self.batch.unique_queries} unique of "
                f"{self.batch.queries_seen} seen, "
                f"{self.batch.deduplicated} deduplicated, "
                f"{self.batch.cache_hits} cache hits, "
                f"{self.batch.scans_executed} scans executed"
            )
        for name in sorted(self.counters):
            lines.append(f"  {name} = {self.counters[name]:g}")
        for name in sorted(self.gauges):
            lines.append(f"  {name} = {self.gauges[name]:g} (gauge)")
        if self.plan is not None:
            estimates = self.plan.get("estimates") or []
            ranked = ", ".join(
                f"{cell.get('strategy')}={cell.get('cost', 0.0):.2e}s"
                for cell in estimates if isinstance(cell, Mapping)
            )
            lines.append(
                f"  plan: {self.plan.get('strategy')} "
                f"({ranked})" if ranked else
                f"  plan: {self.plan.get('strategy')}"
            )
        for name in sorted(self.timers):
            cell = self.timers[name]
            lines.append(
                f"  {name}: {cell['seconds']:.4f}s over "
                f"{cell['calls']:g} calls"
            )
        for name in sorted(self.histograms):
            cell = self.histograms[name]
            lines.append(
                f"  {name}: n={cell['count']:g} p50={cell['p50']:g} "
                f"p90={cell['p90']:g} p99={cell['p99']:g} "
                f"max={cell['max']:g}"
            )
        return "\n".join(lines)


def build_report(*, backend: str, engine: str, mode: str, queries: int,
                 k: int, matches: int, seconds: float,
                 counters: Mapping[str, float] | None = None,
                 timers: Mapping[str, Mapping[str, float]] | None = None,
                 histograms: Mapping | None = None,
                 gauges: Mapping[str, float] | None = None,
                 batch: Any = None,
                 choice_backend: str = "",
                 choice_reason: str = "",
                 plan: Mapping[str, Any] | None = None) -> SearchReport:
    """Assemble a frozen :class:`SearchReport`.

    ``batch`` accepts ``None``, a :class:`BatchCounters`, or any
    ``BatchStats``-shaped object (frozen via duck typing); mappings are
    defensively copied and wrapped read-only. ``histograms`` accepts
    live :class:`repro.obs.hist.Histogram` objects (summarized here)
    or ready-made summary dicts. ``plan`` takes the serialized
    :class:`repro.core.planner.QueryPlan` of the call (the additive
    EXPLAIN section), when one routed it.
    """
    if mode not in REPORT_MODES:
        raise ReproError(
            f"unknown report mode {mode!r}; expected one of {REPORT_MODES}"
        )
    if batch is not None and not isinstance(batch, BatchCounters):
        batch = BatchCounters.from_stats(batch)
    if histograms:
        from repro.obs.hist import summarize

        histograms = summarize(histograms)
    return SearchReport(
        backend=backend,
        engine=engine,
        mode=mode,
        queries=queries,
        k=k,
        matches=matches,
        seconds=seconds,
        counters=_frozen_mapping(counters),
        timers=MappingProxyType({
            name: _frozen_mapping(cell)
            for name, cell in (timers or {}).items()
        }),
        histograms=MappingProxyType({
            name: _frozen_mapping(cell)
            for name, cell in (histograms or {}).items()
        }),
        gauges=_frozen_mapping(gauges),
        batch=batch,
        choice_backend=choice_backend,
        choice_reason=choice_reason,
        plan=MappingProxyType(dict(plan)) if plan is not None else None,
    )


def report_from_dict(mapping: Mapping[str, Any]) -> SearchReport:
    """Rebuild a frozen :class:`SearchReport` from its ``to_dict`` form.

    The inverse of :meth:`SearchReport.to_dict`: a report read back
    from a ``--stats-output`` JSON file renders and exports again.
    """
    batch = mapping.get("batch")
    choice = mapping.get("choice") or {}
    return build_report(
        backend=mapping["backend"],
        engine=mapping["engine"],
        mode=mapping["mode"],
        queries=mapping["queries"],
        k=mapping["k"],
        matches=mapping["matches"],
        seconds=mapping["seconds"],
        counters=mapping.get("counters"),
        timers=mapping.get("timers"),
        histograms=mapping.get("histograms"),
        gauges=mapping.get("gauges"),
        batch=BatchCounters(
            queries_seen=batch["queries_seen"],
            unique_queries=batch["unique_queries"],
            cache_hits=batch["cache_hits"],
            scans_executed=batch["scans_executed"],
        ) if batch else None,
        choice_backend=choice.get("backend", ""),
        choice_reason=choice.get("reason", ""),
        plan=mapping.get("plan"),
    )


def validate_report(mapping: Mapping[str, Any]) -> list[str]:
    """Check a dict against :data:`REPORT_SCHEMA`; return the problems.

    An empty list means the report conforms. Used by
    ``python -m repro.obs.validate`` (CI runs it on a CLI
    ``--stats-output`` file) and by the report tests; ``strict``
    callers can raise on a non-empty result.

    >>> validate_report({"backend": "sequential"})  # doctest: +ELLIPSIS
    ['missing key: schema_version', ...]
    """
    problems: list[str] = []
    if not isinstance(mapping, Mapping):
        return [f"report must be a mapping, got {type(mapping).__name__}"]
    for key, expected in REPORT_SCHEMA.items():
        if key not in mapping:
            problems.append(f"missing key: {key}")
            continue
        value = mapping[key]
        if expected is float:
            ok = isinstance(value, (int, float)) \
                and not isinstance(value, bool)
        elif expected is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, expected)
        if not ok:
            problems.append(
                f"key {key!r} has type {type(value).__name__}"
            )
    if problems:
        return problems
    if mapping["schema_version"] != SCHEMA_VERSION:
        problems.append(
            f"schema_version {mapping['schema_version']} != "
            f"{SCHEMA_VERSION}"
        )
    if mapping["mode"] not in REPORT_MODES:
        problems.append(f"mode {mapping['mode']!r} not in {REPORT_MODES}")
    for key, expected in OPTIONAL_REPORT_SCHEMA.items():
        if key in mapping and not isinstance(mapping[key], expected):
            problems.append(
                f"optional key {key!r} has type "
                f"{type(mapping[key]).__name__}"
            )
    if isinstance(mapping.get("gauges"), Mapping):
        for name, value in mapping["gauges"].items():
            if not isinstance(name, str) or isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                problems.append(f"gauge {name!r} is not numeric")
    if isinstance(mapping.get("plan"), Mapping):
        from repro.core.planner import validate_plan

        problems.extend(validate_plan(mapping["plan"]))
    for name, value in mapping["counters"].items():
        if not isinstance(name, str) or isinstance(value, bool) \
                or not isinstance(value, (int, float)):
            problems.append(f"counter {name!r} is not numeric")
    for name, cell in mapping["timers"].items():
        if not isinstance(cell, Mapping) or "seconds" not in cell \
                or "calls" not in cell:
            problems.append(
                f"timer {name!r} lacks seconds/calls"
            )
    for name, cell in mapping["histograms"].items():
        if not isinstance(cell, Mapping):
            problems.append(f"histogram {name!r} is not a mapping")
            continue
        for key in HISTOGRAM_SUMMARY_KEYS:
            if key not in cell:
                problems.append(f"histogram {name!r} missing key: {key}")
            elif isinstance(cell[key], bool) \
                    or not isinstance(cell[key], (int, float)):
                problems.append(
                    f"histogram {name!r} key {key!r} is not numeric"
                )
    batch = mapping["batch"]
    if batch is not None:
        for key in BATCH_SCHEMA_KEYS:
            if key not in batch:
                problems.append(f"batch section missing key: {key}")
    choice = mapping["choice"]
    for key in ("backend", "reason"):
        if key not in choice:
            problems.append(f"choice section missing key: {key}")
    return problems


def require_valid_report(mapping: Mapping[str, Any]) -> None:
    """Raise :class:`ReproError` when a report dict breaks the schema."""
    problems = validate_report(mapping)
    if problems:
        raise ReproError(
            "invalid SearchReport: " + "; ".join(problems)
        )
