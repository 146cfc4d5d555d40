"""The structured event log: JSON-lines operational events, trace-stamped.

Counters say *how often*, histograms say *how slow*, spans say *where
inside one request* — none of them say **what happened, in order**.
The event log does: every operationally interesting transition in the
serving stack emits one flat JSON object (an *event line*) into a
bounded in-memory ring, optionally teeing to a JSON-lines sink. The
kinds mirror the decisions a slow-request investigation walks through:

========================  ==============================================
kind                      emitted when
========================  ==============================================
``admission``             the gateway admits a request to the full ladder
``shed``                  the shedder degrades or rejects a request
``cache_hit``             the result cache answers a submit
``cache_miss``            the cache had no complete answer
``cache_invalidation``    a corpus mutation dropped cache entries
``ladder_rung``           the service finishes one degradation rung
``corpus_analyze``        a submit re-ran the planner's ANALYZE on a live corpus
``flush``                 the live corpus seals its memtable
``compaction_start``      a compaction group is picked
``compaction_swap``       the merged segment replaces its inputs
``epoch``                 the live corpus bumps its mutation epoch
========================  ==============================================

Every event carries ``ts`` (wall-clock seconds), ``kind``, and —
when emitted inside a trace — the ambient ``trace_id``
(:func:`repro.obs.tracing.current_trace_id`), which is what joins the
log back to the span tree: grep the log for a slow request's trace_id
and the decision sequence falls out. Other fields are free-form JSON
scalars per kind (``queue_depth``, ``rung``, ``segments``, ...).

The schema is deliberately open (new kinds must not break old
tooling); :func:`validate_event` pins only the envelope, and
``python -m repro.obs.validate --events FILE`` applies it to a
JSON-lines file in CI.
"""

from __future__ import annotations

import io
import json
import threading
import time
from collections import deque
from typing import Callable, Iterable, Mapping

from repro.obs.tracing import current_trace_id

#: The event kinds the serving stack emits today. The validator treats
#: unknown kinds as valid (the schema is open) — this tuple documents
#: the current vocabulary and anchors the emitting call sites.
EVENT_KINDS = (
    "admission",
    "shed",
    "cache_hit",
    "cache_miss",
    "cache_invalidation",
    "ladder_rung",
    "corpus_analyze",
    "flush",
    "compaction_start",
    "compaction_swap",
    "epoch",
)

#: Default ring capacity — enough for a soak's interesting tail without
#: ever growing unbounded.
DEFAULT_CAPACITY = 4096

#: JSON scalar types allowed as event field values (events stay flat).
_SCALARS = (str, int, float, bool, type(None))


class EventLog:
    """A bounded ring of event lines, with an optional JSON-lines sink.

    Parameters
    ----------
    capacity:
        Events kept in memory; older lines fall off the ring (the sink,
        when set, still saw them).
    sink:
        A text file-like object each event is written to as one JSON
        line, as it happens (``search --events-out`` wires a file
        here). Write failures are swallowed after the first — the log
        must never fail a request.
    clock:
        Injectable wall clock, for deterministic tests.

    Examples
    --------
    >>> log = EventLog(clock=lambda: 12.0)
    >>> log.emit("shed", action="degrade", queue_depth=40)
    >>> log.events()[0]["kind"]
    'shed'
    >>> log.events()[0]["ts"]
    12.0
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *,
                 sink: io.TextIOBase | None = None,
                 clock: Callable[[], float] = time.time) -> None:
        from repro.exceptions import ReproError

        if capacity < 1:
            raise ReproError(
                f"event-log capacity must be positive, got {capacity}"
            )
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._sink = sink
        self._sink_broken = False
        self._clock = clock
        self._emitted = 0
        self._lock = threading.Lock()

    @property
    def emitted(self) -> int:
        """Total events emitted (including ones the ring dropped)."""
        return self._emitted

    def __len__(self) -> int:
        return len(self._ring)

    def emit(self, kind: str, *, trace_id: str | None = None,
             **fields) -> None:
        """Append one event line (and tee it to the sink, if any).

        ``trace_id`` defaults to the ambient one — call sites inside a
        traced request need no extra plumbing; outside a trace the
        field is simply omitted.
        """
        event: dict = {"ts": self._clock(), "kind": kind}
        identity = trace_id if trace_id is not None \
            else current_trace_id()
        if identity:
            event["trace_id"] = identity
        for name, value in fields.items():
            event[name] = value if isinstance(value, _SCALARS) \
                else str(value)
        with self._lock:
            self._ring.append(event)
            self._emitted += 1
            if self._sink is not None and not self._sink_broken:
                try:
                    self._sink.write(
                        json.dumps(event, sort_keys=True) + "\n")
                except (OSError, ValueError):
                    self._sink_broken = True

    # -- snapshots -----------------------------------------------------

    def events(self) -> tuple[dict, ...]:
        """Every retained event, oldest first (copies)."""
        with self._lock:
            return tuple(dict(event) for event in self._ring)

    def tail(self, n: int = 10) -> tuple[dict, ...]:
        """The newest ``n`` retained events, oldest of them first."""
        with self._lock:
            window = list(self._ring)[-max(0, n):]
        return tuple(dict(event) for event in window)

    def for_trace(self, trace_id: str) -> tuple[dict, ...]:
        """The retained events of one trace, oldest first."""
        return tuple(event for event in self.events()
                     if event.get("trace_id") == trace_id)

    def to_jsonl(self) -> str:
        """The retained events as JSON-lines text."""
        return "".join(json.dumps(event, sort_keys=True) + "\n"
                       for event in self.events())

    def write(self, path: str) -> int:
        """Write the retained events to ``path``; returns line count."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return len(events)


class NullEventLog(EventLog):
    """An event log that discards everything — the off switch."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def emit(self, kind: str, *, trace_id: str | None = None,
             **fields) -> None:
        pass


#: Shared no-op event log for unconditional hook calls.
NO_EVENTS = NullEventLog()


# ----------------------------------------------------------------------
# validation (the CI ``--events`` gate)

def validate_event(event: object, *, where: str = "event") -> list[str]:
    """Problems with one event line (empty list = valid).

    The envelope is pinned — a JSON object with a numeric ``ts`` and a
    non-empty string ``kind``; ``trace_id``, when present, must be a
    non-empty string; every other field must be a JSON scalar (events
    are flat lines, not documents). Unknown kinds are allowed.
    """
    problems: list[str] = []
    if not isinstance(event, dict):
        return [f"{where}: not a JSON object "
                f"(got {type(event).__name__})"]
    ts = event.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool):
        problems.append(f"{where}: 'ts' must be a number, got {ts!r}")
    kind = event.get("kind")
    if not isinstance(kind, str) or not kind:
        problems.append(
            f"{where}: 'kind' must be a non-empty string, got {kind!r}"
        )
    trace_id = event.get("trace_id", "unset")
    if trace_id != "unset" and (
            not isinstance(trace_id, str) or not trace_id):
        problems.append(
            f"{where}: 'trace_id' must be a non-empty string when "
            f"present, got {trace_id!r}"
        )
    for name, value in event.items():
        if name in ("ts", "kind", "trace_id"):
            continue
        if not isinstance(value, _SCALARS):
            problems.append(
                f"{where}: field {name!r} must be a JSON scalar, got "
                f"{type(value).__name__}"
            )
    return problems


def validate_event_lines(lines: Iterable[str], *,
                         where: str = "events") -> tuple[int, list[str]]:
    """Validate JSON-lines text: ``(events_seen, problems)``.

    Blank lines are skipped; a line that fails to parse is a problem,
    not a crash — the validator reports every broken line at once.
    """
    problems: list[str] = []
    seen = 0
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        label = f"{where}:{number}"
        try:
            event = json.loads(text)
        except json.JSONDecodeError as error:
            problems.append(f"{label}: not valid JSON ({error})")
            continue
        seen += 1
        problems.extend(validate_event(event, where=label))
    return seen, problems


def events_from_mapping(payload: Mapping) -> list[dict]:
    """The event list embedded in a report-style document, if any.

    Benchmarks that embed their event tail under an ``"events"`` key
    (a list of event objects) get them validated alongside the reports.
    """
    events = payload.get("events")
    return list(events) if isinstance(events, list) else []
