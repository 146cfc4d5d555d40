"""Spans: request-scoped tracing with cross-boundary propagation.

The library's one span model. It answers **where did this one
request's time go** — from the CLI, a standalone service or the asyncio
gateway down to the searcher that did the work, across a thread pool, a
process pool and a background compaction thread. (Per-section totals
are a metric, kept by :class:`repro.obs.registry.MetricsRegistry`
timers; an instrumented section feeds one and opens the same-named span
here.) The pieces:

* :class:`TraceContext` — the propagated identity of one request:
  ``trace_id`` (shared by every span of one submit), ``span_id`` (the
  current node), ``parent_id`` (the edge to the enclosing node) and
  ``baggage`` (small string key/values that ride along, e.g. the
  gateway's shed decision). Contexts are immutable; :meth:`TraceContext.child`
  mints the next hop. They serialize to plain dicts
  (:meth:`TraceContext.to_dict`) so they cross process boundaries next
  to the existing counter handoff.
* :class:`TraceSpan` — one completed, attributed section: name, the
  three ids, wall-clock start (``time.time()`` — comparable across
  processes on one host, unlike ``perf_counter``), duration, ``pid``
  and ``tid`` for Perfetto lane stitching, and string tags.
* :class:`Tracer` — the bounded, thread-safe collector. One tracer per
  serving stack; every layer appends to it either directly or by
  shipping serialized spans back from workers (:meth:`Tracer.adopt`).

**Propagation model.** Within one thread the active context is ambient
(a thread-local installed with :func:`use_trace`), so deep layers emit
spans with :func:`trace_span` without threading arguments through every
signature. Across boundaries the handoff is explicit:

* asyncio → thread: the gateway wraps the executor callable with
  :func:`bound` so the worker thread re-installs the tracer + context;
* thread → process: the task ships ``context.child().to_dict()``, the
  worker records spans locally (its own ``pid``/``tid``) and returns
  them alongside the counter 4-tuple; the parent rejoins them with
  :meth:`Tracer.adopt`;
* foreground → background compaction: the mutating call captures its
  ambient pair and the compaction thread re-installs it, so the
  compaction span parents under the insert that triggered it.

**Sampling.** A context is minted for *every* request (events and
slowlog exemplars want the trace_id even when spans are off), but span
recording is gated on ``context.sampled``: an unsampled context makes
:func:`trace_span` return a shared no-op, so tracing can stay enabled
in production at near-zero cost (the <5% overhead guard in
``tests/traffic/test_trace_propagation.py`` pins this down).

Examples
--------
>>> tracer = Tracer()
>>> with tracer.root("gateway.submit") as ctx:
...     with trace_span("service.submit"):
...         with trace_span("shard[0]"):
...             pass
>>> tree = span_tree(tracer.spans())
>>> [child.name for child in tree.children[tree.roots[0].span_id]]
['service.submit']
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

#: Spans kept per tracer before new ones are dropped (and counted by
#: :attr:`Tracer.dropped`) — request tracing must never grow unbounded.
DEFAULT_MAX_SPANS = 4096


def new_id() -> str:
    """A fresh 16-hex-digit span/trace id (random, collision-safe)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one request at one point in the tree.

    Attributes
    ----------
    trace_id:
        Shared by every span of one submit — the tree's identity.
    span_id:
        The current node's id; spans recorded under this context use it.
    parent_id:
        The enclosing node's span_id (``None`` at the root).
    baggage:
        Small string key/value pairs that propagate to every child
        (e.g. ``shed=admit``); kept as a sorted tuple so the context
        stays hashable and order-stable.
    sampled:
        Whether spans under this context are recorded. Ids and baggage
        propagate regardless, so events and exemplars can always carry
        the trace_id.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None
    baggage: tuple[tuple[str, str], ...] = ()
    sampled: bool = True

    def child(self) -> "TraceContext":
        """The context of a new span one level below this one."""
        return TraceContext(
            trace_id=self.trace_id, span_id=new_id(),
            parent_id=self.span_id, baggage=self.baggage,
            sampled=self.sampled,
        )

    def with_baggage(self, **items: str) -> "TraceContext":
        """This context with extra baggage entries (same span ids)."""
        merged = dict(self.baggage)
        for key, value in items.items():
            merged[key] = str(value)
        return TraceContext(
            trace_id=self.trace_id, span_id=self.span_id,
            parent_id=self.parent_id,
            baggage=tuple(sorted(merged.items())), sampled=self.sampled,
        )

    def baggage_value(self, key: str, default: str = "") -> str:
        """One baggage value (``default`` when absent)."""
        for name, value in self.baggage:
            if name == key:
                return value
        return default

    def to_dict(self) -> dict:
        """A JSON/pickle-friendly form for crossing process boundaries."""
        return {
            "trace_id": self.trace_id, "span_id": self.span_id,
            "parent_id": self.parent_id,
            "baggage": [list(pair) for pair in self.baggage],
            "sampled": self.sampled,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TraceContext":
        """Rebuild a shipped context (inverse of :meth:`to_dict`)."""
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=payload.get("parent_id"),
            baggage=tuple(
                (str(key), str(value))
                for key, value in payload.get("baggage", ())
            ),
            sampled=bool(payload.get("sampled", True)),
        )


@dataclass(frozen=True)
class TraceSpan:
    """One completed, request-attributed section.

    ``started`` is wall-clock (``time.time()``) so spans from different
    processes on one host line up on a shared axis; ``pid``/``tid``
    place the span on its Perfetto lane.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    started: float
    seconds: float
    pid: int
    tid: int
    thread: str = ""
    tags: tuple[tuple[str, str], ...] = ()

    def to_dict(self) -> dict:
        """A JSON-friendly form (what workers ship back)."""
        return {
            "name": self.name, "trace_id": self.trace_id,
            "span_id": self.span_id, "parent_id": self.parent_id,
            "started": self.started, "seconds": self.seconds,
            "pid": self.pid, "tid": self.tid, "thread": self.thread,
            "tags": [list(pair) for pair in self.tags],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TraceSpan":
        """Rebuild a shipped span (inverse of :meth:`to_dict`)."""
        return cls(
            name=str(payload["name"]),
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=payload.get("parent_id"),
            started=float(payload["started"]),
            seconds=float(payload["seconds"]),
            pid=int(payload.get("pid", 0)),
            tid=int(payload.get("tid", 0)),
            thread=str(payload.get("thread", "")),
            tags=tuple(
                (str(key), str(value))
                for key, value in payload.get("tags", ())
            ),
        )


class Tracer:
    """The bounded, thread-safe collector of one stack's trace spans.

    Parameters
    ----------
    max_spans:
        Spans kept before new ones are dropped (counted, never raised —
        tracing must not fail a request).
    sample_rate:
        Fraction of minted root contexts that record spans. ``1.0``
        records everything; ``0.0`` is "enabled but unsampled": every
        request still gets a trace_id (for events and exemplars) but
        no spans, at near-zero cost. Sampling is deterministic
        (every ``round(1/rate)``-th mint) so tests are stable.

    Examples
    --------
    >>> tracer = Tracer()
    >>> with tracer.root("gateway.submit") as ctx:
    ...     len(ctx.trace_id)
    16
    >>> tracer.spans()[0].name
    'gateway.submit'
    """

    enabled = True

    def __init__(self, *, max_spans: int = DEFAULT_MAX_SPANS,
                 sample_rate: float = 1.0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            from repro.exceptions import ReproError

            raise ReproError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        self._max_spans = max_spans
        self._sample_rate = sample_rate
        self._sample_period = (
            0 if sample_rate <= 0.0 else max(1, round(1.0 / sample_rate))
        )
        self._minted = 0
        self._dropped = 0
        self._spans: list[TraceSpan] = []
        self._lock = threading.Lock()

    @property
    def sample_rate(self) -> float:
        """The configured sampling fraction."""
        return self._sample_rate

    @property
    def dropped(self) -> int:
        """Spans discarded because the collector was full."""
        return self._dropped

    def __len__(self) -> int:
        return len(self._spans)

    # -- minting and recording -----------------------------------------

    def mint(self, *, baggage: Mapping[str, str] | None = None
             ) -> TraceContext:
        """A fresh root context (no parent), sampling decided here."""
        with self._lock:
            self._minted += 1
            sampled = (self._sample_period > 0
                       and self._minted % self._sample_period == 0)
        packed = tuple(sorted(
            (str(key), str(value))
            for key, value in (baggage or {}).items()
        ))
        identity = new_id()
        return TraceContext(trace_id=identity, span_id=new_id(),
                            baggage=packed, sampled=sampled)

    def record(self, span: TraceSpan) -> None:
        """Append one completed span (bounded; drops count, not raise)."""
        with self._lock:
            if len(self._spans) < self._max_spans:
                self._spans.append(span)
            else:
                self._dropped += 1

    def record_span(self, name: str, context: TraceContext,
                    started: float, seconds: float,
                    tags: Mapping[str, str] | None = None) -> None:
        """Record an already-measured section under ``context``.

        The explicit-timing twin of :meth:`span` for callers that
        measured the section anyway (the gateway, the batch executors)
        — one call, no context-manager overhead on the hot path.
        """
        if not context.sampled:
            return
        current = threading.current_thread()
        self.record(TraceSpan(
            name=name, trace_id=context.trace_id,
            span_id=context.span_id, parent_id=context.parent_id,
            started=started, seconds=seconds,
            pid=os.getpid(), tid=current.ident or 0,
            thread=current.name,
            tags=tuple(sorted(
                (str(key), str(value))
                for key, value in (tags or {}).items()
            )),
        ))

    @contextmanager
    def root(self, name: str, *,
             baggage: Mapping[str, str] | None = None
             ) -> Iterator[TraceContext]:
        """Mint a root context, make it ambient, record its span.

        The entry point for stacks without a gateway (``Service`` used
        standalone, the CLI, tests): one block opens the tree.
        """
        context = self.mint(baggage=baggage)
        started = time.time()
        clock = time.perf_counter()
        try:
            with use_trace(self, context):
                yield context
        finally:
            # Record even when the block raised — a failed attempt's
            # span is exactly what the trace is for.
            self.record_span(name, context, started,
                             time.perf_counter() - clock)

    @contextmanager
    def span(self, name: str, *, context: TraceContext,
             tags: Mapping[str, str] | None = None
             ) -> Iterator[TraceContext]:
        """Open a child span of ``context``, ambient for the block."""
        child = context.child()
        started = time.time()
        clock = time.perf_counter()
        try:
            with use_trace(self, child):
                yield child
        finally:
            self.record_span(name, child, started,
                             time.perf_counter() - clock, tags=tags)

    # -- cross-boundary rejoin -----------------------------------------

    def adopt(self, spans: Iterable) -> int:
        """Fold worker-shipped spans in; returns how many were added.

        Accepts :class:`TraceSpan` objects or their ``to_dict`` forms.
        The shipped spans keep their own ``pid``/``tid`` — that is the
        point: the export stitches them onto the worker's lane.
        """
        added = 0
        for span in spans:
            if not isinstance(span, TraceSpan):
                span = TraceSpan.from_dict(span)
            self.record(span)
            added += 1
        return added

    # -- snapshots ------------------------------------------------------

    def spans(self) -> tuple[TraceSpan, ...]:
        """Every collected span, in arrival order."""
        with self._lock:
            return tuple(self._spans)

    def spans_for(self, trace_id: str) -> tuple[TraceSpan, ...]:
        """The spans of one trace, in arrival order."""
        return tuple(span for span in self.spans()
                     if span.trace_id == trace_id)

    def export(self) -> list[dict]:
        """Every span as a plain dict (what workers return)."""
        return [span.to_dict() for span in self.spans()]

    def reset(self) -> None:
        """Drop every collected span (the mint counter survives)."""
        with self._lock:
            self._spans.clear()
            self._dropped = 0


class NullTracer(Tracer):
    """A tracer that discards everything — the off switch.

    Mints unsampled contexts (so code paths that *require* a context
    still get ids) and records nothing.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(max_spans=0, sample_rate=0.0)

    def record(self, span: TraceSpan) -> None:
        pass

    def adopt(self, spans: Iterable) -> int:
        return 0


#: Shared no-op tracer for unconditional hook calls.
NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# ambient propagation

class _Ambient(threading.local):
    """Per-thread (tracer, context); class defaults make a thread that
    never entered a trace read ``None`` at plain-attribute cost."""

    tracer: Tracer | None = None
    context: TraceContext | None = None


_ambient = _Ambient()


def current_trace() -> tuple[Tracer | None, TraceContext | None]:
    """The calling thread's ambient (tracer, context) pair."""
    return _ambient.tracer, _ambient.context


def current_context() -> TraceContext | None:
    """The calling thread's ambient context (``None`` outside a trace)."""
    return _ambient.context


def current_trace_id() -> str:
    """The ambient trace_id, or ``""`` outside a trace.

    The one-liner event logs and exemplars use to stamp themselves.
    """
    context = _ambient.context
    return context.trace_id if context is not None else ""


@contextmanager
def use_trace(tracer: Tracer | None,
              context: TraceContext | None) -> Iterator[None]:
    """Install a (tracer, context) pair as this thread's ambient pair."""
    previous = (_ambient.tracer, _ambient.context)
    _ambient.tracer = tracer
    _ambient.context = context
    try:
        yield
    finally:
        _ambient.tracer, _ambient.context = previous


#: The shared do-nothing span every inert :func:`trace_span` returns.
_NULL_SPAN = nullcontext()


class _SpanHandle:
    """An open ambient child span (internal; built by :func:`trace_span`)."""

    __slots__ = ("_tracer", "_context", "_name", "_tags",
                 "_wall", "_clock", "_previous")

    def __init__(self, tracer: Tracer, context: TraceContext,
                 name: str, tags: Mapping[str, str] | None) -> None:
        self._tracer = tracer
        self._context = context
        self._name = name
        self._tags = tags

    def __enter__(self) -> TraceContext:
        self._previous = _ambient.context
        _ambient.context = self._context
        self._wall = time.time()
        self._clock = time.perf_counter()
        return self._context

    def __exit__(self, *exc: object) -> bool:
        seconds = time.perf_counter() - self._clock
        _ambient.context = self._previous
        self._tracer.record_span(self._name, self._context,
                                 self._wall, seconds, tags=self._tags)
        return False


def trace_span(name: str, tags: Mapping[str, str] | None = None):
    """Open a child span of the ambient context, as a context manager.

    The workhorse of deep-layer instrumentation: sharding, the live
    corpus and the executors call it unconditionally. Outside a trace —
    or under an unsampled context — it returns a shared no-op object,
    so the cost is two thread-local reads and a branch.
    """
    tracer = _ambient.tracer
    context = _ambient.context
    if tracer is None or context is None or not context.sampled:
        return _NULL_SPAN
    return _SpanHandle(tracer, context.child(), name, tags)


def emit_span(name: str, seconds: float,
              tags: Mapping[str, str] | None = None,
              wall_end: float | None = None) -> None:
    """Record an already-measured child span under the ambient context.

    For hot paths that already timed the section (the batch executors'
    per-scan timing exists for counter shipping anyway): no context
    manager, no extra clock reads beyond one ``time.time()``. The span
    is a *leaf* — it does not become ambient for anything.
    """
    tracer = _ambient.tracer
    context = _ambient.context
    if tracer is None or context is None or not context.sampled:
        return
    end = wall_end if wall_end is not None else time.time()
    tracer.record_span(name, context.child(), end - seconds, seconds,
                       tags=tags)


def ship_context() -> dict | None:
    """The ambient context serialized for a worker boundary.

    ``None`` outside a trace or under an unsampled context — tasks then
    skip span collection entirely, keeping the unsampled path free.
    :func:`worker_span` mints the fresh span id on the worker side, so
    worker spans become children of the shipping call site's span. A
    caller that wants an intermediate node (one per ticket, say) mints
    ``context.child()`` itself and records that child as a span too —
    shipping an unrecorded child would orphan the worker spans.
    """
    tracer = _ambient.tracer
    context = _ambient.context
    if tracer is None or context is None or not context.sampled:
        return None
    return context.to_dict()


def worker_span(name: str, shipped: Mapping | None, started: float,
                seconds: float,
                tags: Mapping[str, str] | None = None) -> tuple:
    """One span dict measured inside a worker, ready to ship back.

    ``shipped`` is the task's :func:`ship_context` payload (``None``
    returns ``()`` so callers can pass it through unconditionally);
    ``started`` is wall-clock (``time.time()``). The span keeps the
    worker's own pid/tid — that is what lane stitching needs.
    """
    if shipped is None:
        return ()
    context = TraceContext.from_dict(shipped)
    current = threading.current_thread()
    return (TraceSpan(
        name=name, trace_id=context.trace_id,
        span_id=new_id(), parent_id=context.span_id,
        started=started, seconds=seconds,
        pid=os.getpid(), tid=current.ident or 0, thread=current.name,
        tags=tuple(sorted(
            (str(key), str(value))
            for key, value in (tags or {}).items()
        )),
    ).to_dict(),)


def adopt_spans(spans: Iterable) -> None:
    """Fold worker-shipped span dicts into the ambient tracer, if any."""
    if not spans:
        return
    tracer = _ambient.tracer
    if tracer is not None:
        tracer.adopt(spans)


def bound(tracer: Tracer | None, context: TraceContext | None,
          fn: Callable, *args, **kwargs) -> Callable[[], object]:
    """A zero-arg callable running ``fn`` under (tracer, context).

    The asyncio→thread handoff: the gateway builds the executor
    callable with ``bound(tracer, ctx, service.submit, request)`` so
    the pool thread re-installs the ambient pair before descending.
    """
    def call() -> object:
        with use_trace(tracer, context):
            return fn(*args, **kwargs)

    return call


# ----------------------------------------------------------------------
# tree assembly (tests, the CI smoke, the exporter)

@dataclass(frozen=True)
class SpanTree:
    """One assembled trace: roots, children edges, and every span."""

    trace_id: str
    spans: tuple[TraceSpan, ...]
    roots: tuple[TraceSpan, ...]
    children: Mapping[str, tuple[TraceSpan, ...]] = field(
        default_factory=dict)

    def walk(self) -> Iterator[tuple[int, TraceSpan]]:
        """Depth-first (depth, span) pairs, children by start time."""
        def descend(span: TraceSpan, depth: int
                    ) -> Iterator[tuple[int, TraceSpan]]:
            yield depth, span
            for child in self.children.get(span.span_id, ()):
                yield from descend(child, depth + 1)

        for root in self.roots:
            yield from descend(root, 0)

    def render(self) -> str:
        """An indented text rendering (debugging aid)."""
        lines = [f"trace {self.trace_id} ({len(self.spans)} spans)"]
        for depth, span in self.walk():
            lines.append(
                f"{'  ' * (depth + 1)}{span.name}  "
                f"{span.seconds * 1e3:.3f}ms  pid={span.pid}"
            )
        return "\n".join(lines)


def span_tree(spans: Iterable[TraceSpan],
              trace_id: str | None = None) -> SpanTree:
    """Assemble one trace's spans into a :class:`SpanTree`.

    With ``trace_id`` unset, the spans must all belong to one trace
    (the single-submit invariant the CI smoke asserts); a mix raises
    :class:`repro.exceptions.ReproError`. A span whose parent never
    arrived (dropped, or a worker that died before shipping) is kept
    as an extra root rather than lost.
    """
    from repro.exceptions import ReproError

    chosen = [span for span in spans
              if trace_id is None or span.trace_id == trace_id]
    if not chosen:
        raise ReproError(
            "no spans to assemble"
            + (f" for trace {trace_id}" if trace_id else "")
        )
    identities = {span.trace_id for span in chosen}
    if len(identities) > 1:
        raise ReproError(
            f"spans from {len(identities)} traces "
            f"({sorted(identities)}); pass trace_id= to pick one"
        )
    by_id = {span.span_id: span for span in chosen}
    children: dict[str, list[TraceSpan]] = {}
    roots: list[TraceSpan] = []
    for span in chosen:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    return SpanTree(
        trace_id=chosen[0].trace_id,
        spans=tuple(chosen),
        roots=tuple(sorted(roots, key=lambda span: span.started)),
        children={
            parent: tuple(sorted(kids, key=lambda span: span.started))
            for parent, kids in children.items()
        },
    )
