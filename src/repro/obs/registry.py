"""The metrics registry: counters, gauges, timers and histograms.

One instrumentation substrate for both engines. A
:class:`MetricsRegistry` accumulates

* **counters** — monotonically increasing integers under dotted names
  (``scan.candidates``, ``trie.nodes_visited``);
* **gauges** — last-write-wins numeric observations (``corpus.buckets``);
* **timers** — total seconds and call counts per name, fed either by
  :meth:`MetricsRegistry.observe` or by the :meth:`MetricsRegistry.timer`
  context manager;
* **histograms** — fixed-boundary log-bucket distributions
  (:class:`repro.obs.hist.Histogram`), fed by
  :meth:`MetricsRegistry.hist`, mergeable across processes like
  counters.

Spans are not a metric: "where did this request's time go" is answered
by :mod:`repro.obs.tracing`. An instrumented section feeds a timer here
and opens the same-named request span there.

Hot paths are instrumented behind **no-op hooks**: every engine accepts
an optional registry and, when none is attached, pays only a ``None``
check per call (never per candidate). :data:`NULL` is a shared
:class:`NullRegistry` whose every method discards its input, for code
that wants to call hooks unconditionally.

Registries are cheap (plain dicts) and mergeable
(:meth:`MetricsRegistry.merge_counts` / :func:`counter_delta`), which
is how per-chunk counters from process-pool workers aggregate back into
one workload-level view.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Iterator, Mapping

from repro.obs.hist import Histogram


class MetricsRegistry:
    """Accumulates counters, gauges, timers and histograms.

    Not a singleton: engines own private registries, benchmarks build
    one per measured stage, and tests build throwaways. Counter updates
    are GIL-atomic enough for the flush-once-per-search discipline the
    engines follow; cross-process aggregation goes through explicit
    counter dicts returned by worker tasks, never shared state.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> registry.inc("scan.candidates", 40)
    >>> with registry.timer("scan.kernel"):
    ...     registry.inc("scan.early_aborts")
    >>> registry.counters()["scan.candidates"]
    40
    >>> registry.timers()["scan.kernel"]["calls"]
    1
    """

    #: ``False`` only on :class:`NullRegistry`; hot paths may branch on
    #: it instead of ``is not None`` when a registry is always present.
    enabled: bool = True

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, list[float]] = {}  # name -> [seconds, calls]
        self._hists: dict[str, Histogram] = {}

    # -- counters ------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def merge_counts(self, counts: Mapping[str, int]) -> None:
        """Fold a counter mapping in (worker chunks report this way)."""
        counters = self._counters
        for name, value in counts.items():
            counters[name] = counters.get(name, 0) + value

    def counters(self) -> dict[str, int]:
        """A copy of the current counter values."""
        return dict(self._counters)

    # -- gauges --------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        """Record a last-write-wins observation."""
        self._gauges[name] = value

    def gauges(self) -> dict[str, float]:
        """A copy of the current gauge values."""
        return dict(self._gauges)

    # -- timers --------------------------------------------------------

    def observe(self, name: str, seconds: float, count: int = 1) -> None:
        """Add an elapsed-seconds observation to timer ``name``."""
        cell = self._timers.get(name)
        if cell is None:
            self._timers[name] = [seconds, count]
        else:
            cell[0] += seconds
            cell[1] += count

    def merge_timers(self, timers: Mapping) -> None:
        """Fold a timer mapping in (worker chunks ship timers this way).

        Accepts either the ``timers()`` shape (``{name: {"seconds":
        ..., "calls": ...}}``) or the compact ``[seconds, calls]``
        pairs worker tasks return.
        """
        for name, cell in timers.items():
            if isinstance(cell, Mapping):
                self.observe(name, cell["seconds"], int(cell["calls"]))
            else:
                self.observe(name, cell[0], int(cell[1]))

    def timers(self) -> dict[str, dict[str, float]]:
        """Timer totals: ``{name: {"seconds": ..., "calls": ...}}``."""
        return {
            name: {"seconds": cell[0], "calls": cell[1]}
            for name, cell in self._timers.items()
        }

    # -- histograms ----------------------------------------------------

    def hist(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = Histogram()
        hist.record(value)

    def merge_hists(self, hists: Mapping) -> None:
        """Fold a histogram mapping in (``Histogram`` or dict forms)."""
        for name, other in hists.items():
            hist = self._hists.get(name)
            if hist is None:
                hist = self._hists[name] = Histogram()
            hist.merge(other)

    def histograms(self) -> dict[str, Histogram]:
        """Independent snapshots of every histogram series."""
        return {name: hist.copy() for name, hist in self._hists.items()}

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's counters, gauges, timers and
        histograms in — the one-call form of worker shipping.

        Gauges are last-write-wins (the merged registry's value
        replaces this one's); everything else is additive.
        """
        self.merge_counts(other._counters)
        self._gauges.update(other._gauges)
        for name, cell in other._timers.items():
            self.observe(name, cell[0], int(cell[1]))
        self.merge_hists(other._hists)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a block into timer ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - started)

    # -- snapshots -----------------------------------------------------

    def timers_flat(self) -> dict[str, float]:
        """Timers flattened to ``name.seconds`` / ``name.calls`` keys.

        The flat form subtracts cleanly (see :func:`counter_delta`),
        which is how per-call report windows are carved out of a
        cumulative registry.
        """
        flat: dict[str, float] = {}
        for name, cell in self._timers.items():
            flat[f"{name}.seconds"] = cell[0]
            flat[f"{name}.calls"] = cell[1]
        return flat

    def snapshot(self) -> dict:
        """Everything, as one plain structure (for exporters)."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "timers": self.timers(),
            "histograms": {name: hist.to_dict()
                           for name, hist in self._hists.items()},
        }

    def reset(self) -> None:
        """Zero every series."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()
        self._hists.clear()


#: One reusable do-nothing context manager for every disabled timer.
_NULL_CONTEXT = nullcontext()


class NullRegistry(MetricsRegistry):
    """A registry that discards everything — the off switch.

    Every method is a no-op, and the context managers are a shared
    pre-built object, so instrumented code can call hooks
    unconditionally at (near) zero cost.
    """

    enabled = False

    def inc(self, name: str, value: int = 1) -> None:
        pass

    def merge_counts(self, counts: Mapping[str, int]) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, seconds: float, count: int = 1) -> None:
        pass

    def merge_timers(self, timers: Mapping) -> None:
        pass

    def hist(self, name: str, value: float) -> None:
        pass

    def merge_hists(self, hists: Mapping) -> None:
        pass

    def merge(self, other: MetricsRegistry) -> None:
        pass

    def timer(self, name: str) -> nullcontext:  # type: ignore[override]
        return _NULL_CONTEXT


#: Shared no-op registry for unconditional hook calls.
NULL = NullRegistry()


def counter_delta(before: Mapping[str, float],
                  after: Mapping[str, float]) -> dict[str, float]:
    """Per-key ``after - before``, keeping only keys that moved.

    Used to carve one call's counters out of cumulative series: snapshot
    before, snapshot after, subtract.

    >>> counter_delta({"a": 1}, {"a": 3, "b": 2})
    {'a': 2, 'b': 2}
    """
    delta: dict[str, float] = {}
    for name, value in after.items():
        moved = value - before.get(name, 0)
        if moved:
            delta[name] = moved
    return delta
