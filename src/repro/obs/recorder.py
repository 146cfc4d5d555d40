"""The slow-query flight recorder: bounded, always-on-capable.

Quantiles say *how slow* the tail is; the flight recorder says *which
queries* are in it. :class:`FlightRecorder` keeps two bounded views of
a stream of :class:`QueryExemplar` records:

* a **ring buffer** (``capacity`` entries, oldest evicted first) of
  every exemplar that cleared the ``threshold`` — plus every *event*
  exemplar (degrades, expiries, overloads) the service force-records
  regardless of latency;
* a **top-N heap** of the slowest queries ever seen, so the worst
  offenders survive even after the ring has wrapped.

Recording is designed for hot paths: searchers hold an optional
recorder (a ``None`` check when absent), ask :meth:`interested` with
just the measured seconds — one float comparison — and only build the
exemplar when the recorder wants it. Both structures are bounded, so a
recorder left attached in production cannot grow without limit.

Wired through every layer: ``SearchEngine(recorder=...)`` forwards to
whichever backend serves each call, ``Service(recorder=...)`` records
an exemplar for every degradation-ladder event, and the CLI's
``--slowlog N`` prints the top-N slowest queries with their per-stage
timings after the run.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.exceptions import ReproError

#: Default ring-buffer capacity (recent exemplars kept).
DEFAULT_CAPACITY = 128

#: Default top-N size (slowest-ever exemplars kept).
DEFAULT_TOP_N = 16

#: Default latency threshold, in seconds. 0.0 records everything —
#: with a bounded ring that is a legal always-on configuration.
DEFAULT_THRESHOLD = 0.0


@dataclass(frozen=True)
class QueryExemplar:
    """One recorded slow query (or service event), self-describing.

    Attributes
    ----------
    query:
        The query string.
    k:
        The edit-distance threshold.
    backend:
        The serving engine's name (``sequential[bitparallel]``,
        ``compiled-scan``, ``flat-index``, ``service[ladder]``...).
    seconds:
        Measured wall-clock for this query.
    matches:
        Matches returned (-1 when the query did not complete).
    kind:
        ``"slow"`` for threshold/top-N captures; service events use
        their ladder label (``"degraded"``, ``"candidates"``,
        ``"overload"``, ``"deadline"``, ``"partial"``).
    stages:
        Per-stage timings, ``{stage_name: seconds}`` — the span-level
        decomposition available at the recording site.
    counters:
        The query's own work-counter delta (``scan.*`` / ``trie.*``).
    note:
        Free-form context (the ladder's plan name and rung...).
    trace_id:
        The request trace this query belonged to (empty outside a
        trace). The join key into the event log and the exported span
        tree: a slowlog line with a trace_id leads straight to the
        request's full timeline.
    """

    query: str
    k: int
    backend: str
    seconds: float
    matches: int = -1
    kind: str = "slow"
    stages: Mapping[str, float] = field(default_factory=dict)
    counters: Mapping[str, float] = field(default_factory=dict)
    note: str = ""
    trace_id: str = ""

    def render(self) -> str:
        """One human-readable block (the CLI slowlog format)."""
        header = (f"{self.seconds * 1000:.3f}ms  {self.query!r} "
                  f"k={self.k} backend={self.backend} kind={self.kind}")
        if self.matches >= 0:
            header += f" matches={self.matches}"
        if self.trace_id:
            header += f" trace={self.trace_id}"
        if self.note:
            header += f" ({self.note})"
        lines = [header]
        for name in sorted(self.stages):
            lines.append(
                f"    stage {name}: {self.stages[name] * 1000:.3f}ms"
            )
        for name in sorted(self.counters):
            lines.append(f"    {name} = {self.counters[name]:g}")
        return "\n".join(lines)


class FlightRecorder:
    """Bounded ring + top-N of :class:`QueryExemplar` records.

    Parameters
    ----------
    capacity:
        Ring-buffer size (most recent exemplars above threshold).
    top_n:
        How many slowest-ever exemplars to retain alongside the ring.
    threshold:
        Minimum seconds for a query to enter the ring. Queries below
        it can still enter the top-N while it has free slots or their
        latency beats the current minimum.

    Examples
    --------
    >>> recorder = FlightRecorder(capacity=4, top_n=2, threshold=0.01)
    >>> recorder.record(QueryExemplar("Berlin", 2, "sequential", 0.5))
    True
    >>> recorder.record(QueryExemplar("Ulm", 2, "sequential", 0.002))
    True
    >>> [e.query for e in recorder.slowest(5)]
    ['Berlin', 'Ulm']
    >>> len(recorder.records())  # the ring holds only the slow one
    1
    """

    def __init__(self, *, capacity: int = DEFAULT_CAPACITY,
                 top_n: int = DEFAULT_TOP_N,
                 threshold: float = DEFAULT_THRESHOLD) -> None:
        if capacity < 1:
            raise ReproError(
                f"capacity must be positive, got {capacity}"
            )
        if top_n < 0:
            raise ReproError(f"top_n must be >= 0, got {top_n}")
        if threshold < 0:
            raise ReproError(
                f"threshold must be >= 0 seconds, got {threshold}"
            )
        self._ring: deque[QueryExemplar] = deque(maxlen=capacity)
        self._top_n = top_n
        self._threshold = threshold
        # Min-heap of (seconds, tiebreak, exemplar): the root is the
        # fastest of the retained slowest, evicted first.
        self._heap: list[tuple[float, int, QueryExemplar]] = []
        self._tiebreak = itertools.count()
        self._lock = threading.Lock()
        self._recorded = 0
        self._seen = 0

    @property
    def threshold(self) -> float:
        """The ring's admission threshold, in seconds."""
        return self._threshold

    @property
    def seen(self) -> int:
        """How many exemplars were offered (recorded or not)."""
        return self._seen

    @property
    def recorded(self) -> int:
        """How many exemplars entered the ring or the top-N."""
        return self._recorded

    def interested(self, seconds: float) -> bool:
        """Cheap pre-check: would an exemplar this slow be kept?

        Hot paths call this with just the measured latency before
        building the (comparatively expensive) exemplar; a ``False``
        costs two comparisons.
        """
        if seconds >= self._threshold:
            return True
        if self._top_n and (len(self._heap) < self._top_n
                            or seconds > self._heap[0][0]):
            return True
        return False

    def record(self, exemplar: QueryExemplar, *,
               force: bool = False) -> bool:
        """Offer an exemplar; returns whether it was kept anywhere.

        ``force=True`` (service events) bypasses the threshold: event
        exemplars always enter the ring — it is bounded, so forcing is
        safe — and still compete for the top-N on latency.
        """
        with self._lock:
            self._seen += 1
            kept = False
            if force or exemplar.seconds >= self._threshold:
                self._ring.append(exemplar)
                kept = True
            if self._top_n:
                entry = (exemplar.seconds, next(self._tiebreak), exemplar)
                if len(self._heap) < self._top_n:
                    heapq.heappush(self._heap, entry)
                    kept = True
                elif exemplar.seconds > self._heap[0][0]:
                    heapq.heapreplace(self._heap, entry)
                    kept = True
            if kept:
                self._recorded += 1
            return kept

    def records(self) -> tuple[QueryExemplar, ...]:
        """The ring's contents, oldest first."""
        with self._lock:
            return tuple(self._ring)

    def slowest(self, n: int | None = None) -> tuple[QueryExemplar, ...]:
        """The slowest retained exemplars, slowest first.

        Draws from both structures (top-N heap and ring), deduplicated
        by identity, so it answers "what were the worst queries" even
        when the ring has wrapped past them.
        """
        with self._lock:
            pool: dict[int, QueryExemplar] = {}
            for _, _, exemplar in self._heap:
                pool[id(exemplar)] = exemplar
            for exemplar in self._ring:
                pool[id(exemplar)] = exemplar
        ranked = sorted(pool.values(), key=lambda e: e.seconds,
                        reverse=True)
        return tuple(ranked if n is None else ranked[:n])

    def clear(self) -> None:
        """Drop every retained exemplar (counters keep counting)."""
        with self._lock:
            self._ring.clear()
            self._heap.clear()

    def __iter__(self) -> Iterator[QueryExemplar]:
        return iter(self.records())

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def render(self, n: int = 10) -> str:
        """The top-``n`` slowest queries as the CLI slowlog text."""
        slowest = self.slowest(n)
        if not slowest:
            return "slowlog: no queries recorded"
        lines = [f"slowlog: top {len(slowest)} of {self.seen} queries "
                 f"(threshold {self._threshold * 1000:g}ms)"]
        for rank, exemplar in enumerate(slowest, start=1):
            body = exemplar.render().replace("\n", "\n   ")
            lines.append(f"{rank:>3}. {body}")
        return "\n".join(lines)
