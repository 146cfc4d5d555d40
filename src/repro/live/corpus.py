"""The LSM write path: a memtable in front of immutable compiled segments.

The compiled engines (:class:`repro.scan.CompiledCorpus`,
:class:`repro.index.flat.FlatTrie`) are freeze-once by design — every
data-side cost is paid at compile time, which is exactly why they are
fast and exactly why they cannot absorb a write. :class:`LiveCorpus`
keeps them that way and adds mutability *around* them, the way
log-structured merge trees do:

* a small mutable **memtable** (a plain multiset) absorbs
  :meth:`~LiveCorpus.insert`; once it holds ``flush_threshold``
  distinct strings it is compiled into a fresh immutable segment;
* **deletes** cancel a pending memtable copy when one exists and
  otherwise land in a **tombstone multiset** — the segment files are
  never touched;
* **compaction** merges the ``fanout`` smallest same-level segments
  into one exponentially larger segment, dropping dead strings
  (tombstone purging) during the single O(n) pass. It can run inline
  (deterministic, for tests) or on a background thread that only takes
  the corpus lock for the final segment-list swap, so searches are
  never blocked for the duration of a merge;
* **search** takes one :meth:`~LiveCorpus.view` under the lock — the
  segment tuple, the memtable strings and the tombstoned strings no
  longer visible — and runs it through
  :func:`repro.service.sharding.fan_out`, the loop
  :class:`repro.service.ShardedCorpus` runs over the same segments:
  one shared deadline, one merge, visibility applied once, one corpus
  state per answer;
* every mutation bumps an **epoch** and notifies subscribers, which is
  how the traffic cache (:meth:`repro.traffic.cache.ResultCache.invalidate`)
  and the planner's statistics stay honest as the corpus drifts.

With a ``segment_dir``, flushed and compacted segments are persisted
through :mod:`repro.speed` (the RSEG flat-binary format, mmap-loaded on
reopen) plus a small JSON manifest, so :meth:`LiveCorpus.open` restores
the corpus near-instantly.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from repro.core.deadline import Budget, Deadline
from repro.core.result import Match
from repro.core.searcher import Searcher
from repro.distance.banded import check_threshold
from repro.exceptions import DeadlineExceeded, ReproError, SegmentError
from repro.obs.events import EventLog
from repro.obs.registry import NULL, MetricsRegistry
from repro.obs.tracing import current_trace, trace_span, use_trace
from repro.scan.corpus import CompiledCorpus
from repro.service.sharding import cached_searcher, fan_out

#: Cumulative counters the live corpus maintains once observability is
#: attached (``live.*`` namespace; see :meth:`LiveCorpus.attach_observability`).
LIVE_COUNTERS = (
    "live.inserts",
    "live.deletes",
    "live.flushes",
    "live.compactions",
    "live.tombstones_purged",
    "live.searches",
    "live.segments_visited",
)

#: Distinct memtable strings that trigger an automatic flush.
DEFAULT_FLUSH_THRESHOLD = 256

#: Same-level segments that trigger a compaction (the size-tier ratio:
#: each level's segments are ~``fanout`` times larger than the last).
DEFAULT_FANOUT = 4

#: Compaction execution modes.
COMPACTION_MODES = ("inline", "background")

#: Manifest file name inside a live segment directory.
MANIFEST_NAME = "MANIFEST.json"

#: Manifest format version (bumped on incompatible layout changes).
MANIFEST_FORMAT = 1


@dataclass(frozen=True)
class CorpusEvent:
    """One mutation notification delivered to subscribers.

    Attributes
    ----------
    kind:
        ``"insert"``, ``"delete"``, ``"flush"`` or ``"compact"``.
    string:
        The mutated string for insert/delete events; ``None`` for
        flush/compact (they change layout, not logical contents).
    epoch:
        The corpus epoch after the mutation.
    """

    kind: str
    string: str | None
    epoch: int


@dataclass(frozen=True)
class LiveSegment:
    """One immutable compiled segment of a :class:`LiveCorpus`.

    ``strings`` are the stored strings as Python objects (a corpus
    mmap-loaded from a segment file decodes each on access), and
    ``members`` gives O(1) membership for tombstone reconciliation;
    ``level`` is the size tier (``size`` in units of the flush
    threshold, log base ``fanout``). ``searchers`` caches the searcher
    each ladder rung built over the segment (see :meth:`searcher`);
    the builders get the segment itself, which iterates ``strings``.
    """

    compiled_corpus: CompiledCorpus
    strings: tuple[str, ...]
    members: frozenset
    size: int
    level: int
    sequence: int
    path: str | None = None
    searchers: dict = field(default_factory=dict, compare=False,
                            repr=False)

    def searcher(self, plan: str) -> Searcher:
        """The segment's searcher for one ladder rung, built once
        through :data:`repro.core.searcher.BACKENDS`; the compiled
        rung's shares :attr:`compiled_corpus`."""
        return cached_searcher(self.searchers, plan, self)

    def __iter__(self):
        return iter(self.strings)


class LiveView(NamedTuple):
    """One immutable picture of a :class:`LiveCorpus`, taken under its
    lock (see :meth:`LiveCorpus.view`).

    ``segments`` are the compiled segments, ``memtable`` the distinct
    unflushed strings, ``removed`` the tombstoned strings whose visible
    count is 0: a segment still stores them, no answer may hold them.
    """

    segments: tuple[LiveSegment, ...]
    memtable: tuple[str, ...]
    removed: frozenset[str]

    @property
    def strings(self) -> tuple[str, ...]:
        """The distinct visible strings, oldest segment first."""
        removed = self.removed
        visible = dict.fromkeys(
            string for segment in self.segments
            for string in segment.strings if string not in removed)
        visible.update(dict.fromkeys(self.memtable))
        return tuple(visible)


class LiveCorpus:
    """A mutable corpus: memtable + tombstones + compiled segments.

    Parameters
    ----------
    dataset:
        Initial contents (duplicates accumulate). Compiled into the
        first segment immediately.
    flush_threshold:
        Distinct memtable strings before an automatic flush.
    fanout:
        Same-level segments before a compaction merges them; also the
        size ratio between levels.
    compaction:
        ``"inline"`` runs merges synchronously inside the mutating
        call (deterministic; the default), ``"background"`` runs them
        on a daemon thread that only locks for the final swap.
    segment_dir:
        Optional directory; segments are persisted there in the
        :mod:`repro.speed` format plus a JSON manifest, and
        :meth:`open` restores the corpus from it.

    Examples
    --------
    >>> corpus = LiveCorpus(["Bern", "Ulm"], flush_threshold=4)
    >>> corpus.insert("Berlin")
    >>> corpus.delete("Ulm")
    >>> [m.string for m in corpus.search("Bern", 2)]
    ['Berlin', 'Bern']
    >>> corpus.epoch
    2
    """

    def __init__(self, dataset: Iterable[str] = (), *,
                 flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
                 fanout: int = DEFAULT_FANOUT,
                 compaction: str = "inline",
                 segment_dir: str | None = None) -> None:
        if flush_threshold < 1:
            raise ReproError(
                f"flush_threshold must be positive, got {flush_threshold}"
            )
        if fanout < 2:
            raise ReproError(
                f"fanout must be >= 2, got {fanout}"
            )
        if compaction not in COMPACTION_MODES:
            raise ReproError(
                f"unknown compaction mode {compaction!r}; expected one "
                f"of {COMPACTION_MODES}"
            )
        self._flush_threshold = flush_threshold
        self._fanout = fanout
        self._compaction_mode = compaction
        self._segment_dir = segment_dir
        self._lock = threading.RLock()
        self._contents: Counter[str] = Counter()
        self._memtable: Counter[str] = Counter()
        self._tombstones: Counter[str] = Counter()
        self._segments: tuple[LiveSegment, ...] = ()
        self._epoch = 0
        self._seq = 0
        self._listeners: list[Callable[[CorpusEvent], None]] = []
        self._compacting = False
        self._compaction_thread: threading.Thread | None = None
        self._metrics: MetricsRegistry = NULL
        self._events: EventLog | None = None
        self._gauged_levels: set[int] = set()
        self.flushes = 0
        self.compactions = 0
        self.tombstones_purged = 0
        if segment_dir is not None:
            os.makedirs(segment_dir, exist_ok=True)
        seeds = []
        for string in dataset:
            if not string:
                raise ReproError("cannot index an empty string")
            self._contents[string] += 1
            seeds.append(string)
        if seeds:
            segment = self._build_segment(tuple(dict.fromkeys(seeds)))
            self._segments = (segment,)
        if segment_dir is not None:
            self._save_manifest()

    # ------------------------------------------------------------------
    # introspection

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter (bumped by insert/delete only)."""
        return self._epoch

    @property
    def flush_threshold(self) -> int:
        """Distinct memtable strings before an automatic flush."""
        return self._flush_threshold

    @property
    def fanout(self) -> int:
        """Same-level segments before a compaction."""
        return self._fanout

    @property
    def compaction_mode(self) -> str:
        """``"inline"`` or ``"background"``."""
        return self._compaction_mode

    @property
    def segment_dir(self) -> str | None:
        """The persistence directory, if configured."""
        return self._segment_dir

    @property
    def segment_count(self) -> int:
        """Number of immutable compiled segments."""
        return len(self._segments)

    @property
    def memtable_size(self) -> int:
        """Distinct strings waiting in the memtable."""
        return len(self._memtable)

    @property
    def tombstone_count(self) -> int:
        """Pending deletes not yet reconciled by a compaction."""
        return sum(self._tombstones.values())

    @property
    def compactions_in_flight(self) -> int:
        """Whether a compaction merge is running right now (0 or 1)."""
        return 1 if self._compacting else 0

    def __len__(self) -> int:
        return sum(self._contents.values())

    @property
    def distinct(self) -> int:
        """Distinct strings currently visible."""
        return len(self._contents)

    def __contains__(self, string: str) -> bool:
        return self._contents.get(string, 0) > 0

    def count(self, string: str) -> int:
        """Multiplicity of ``string`` in the current contents."""
        return self._contents.get(string, 0)

    def snapshot(self) -> tuple[str, ...]:
        """The distinct visible strings, in stable insertion order."""
        with self._lock:
            return tuple(self._contents)

    def view(self) -> LiveView:
        """The segments, memtable and hidden strings as of now, read
        under the lock: one corpus state, whatever writes follow."""
        with self._lock:
            contents = self._contents
            return LiveView(
                self._segments, tuple(self._memtable),
                frozenset(string for string in self._tombstones
                          if not contents.get(string)))

    def segment_sizes(self) -> tuple[int, ...]:
        """Per-segment distinct-string counts (newest last)."""
        return tuple(segment.size for segment in self._segments)

    def describe(self) -> dict:
        """A JSON-friendly structural summary."""
        with self._lock:
            return {
                "kind": "live",
                "strings": len(self),
                "distinct": self.distinct,
                "epoch": self._epoch,
                "memtable": self.memtable_size,
                "tombstones": self.tombstone_count,
                "segments": list(self.segment_sizes()),
                "levels": [segment.level for segment in self._segments],
                "flushes": self.flushes,
                "compactions": self.compactions,
                "tombstones_purged": self.tombstones_purged,
                "flush_threshold": self._flush_threshold,
                "fanout": self._fanout,
                "compaction": self._compaction_mode,
                "segment_dir": self._segment_dir,
            }

    # ------------------------------------------------------------------
    # observability

    def attach_observability(self, *,
                             metrics: MetricsRegistry | None = None,
                             events: EventLog | None = None) -> None:
        """Wire the write path into the obs substrate.

        ``metrics`` receives the ``live.*`` counters
        (:data:`LIVE_COUNTERS`), gauges (memtable size, segment counts
        per tier, tombstone ratio, compactions in flight) and
        histograms (flush/compaction duration, mutation stall time,
        per-search segments visited); ``events`` receives the
        ``flush`` / ``compaction_start`` / ``compaction_swap`` /
        ``epoch`` event lines, each stamped with the ambient trace_id.
        Both are optional and independent; passing ``None`` leaves the
        corresponding attachment unchanged. Request *spans* need no
        attachment — they ride the ambient trace context of the calling
        thread (:func:`repro.obs.tracing.trace_span`).
        """
        if metrics is not None:
            self._metrics = metrics
        if events is not None:
            self._events = events
        with self._lock:
            self._update_gauges_locked()

    @property
    def metrics(self) -> MetricsRegistry:
        """The attached registry (:data:`repro.obs.registry.NULL` when
        none)."""
        return self._metrics

    def _update_gauges_locked(self) -> None:
        """Refresh every ``live.*`` gauge (call with the lock held)."""
        metrics = self._metrics
        if not metrics.enabled:
            return
        metrics.gauge("live.memtable_size", len(self._memtable))
        metrics.gauge("live.segments", len(self._segments))
        metrics.gauge("live.tombstones",
                      sum(self._tombstones.values()))
        visible = len(self._contents)
        metrics.gauge(
            "live.tombstone_ratio",
            (sum(self._tombstones.values()) / visible) if visible
            else 0.0)
        metrics.gauge("live.compactions_in_flight",
                      1 if self._compacting else 0)
        # Per-tier segment counts: levels that emptied are written as 0
        # once (last-write-wins gauges never expire on their own).
        levels: Counter[int] = Counter(
            segment.level for segment in self._segments)
        for level in self._gauged_levels - set(levels):
            metrics.gauge(f"live.segments.l{level}", 0)
        for level, count in levels.items():
            metrics.gauge(f"live.segments.l{level}", count)
        self._gauged_levels = set(levels)

    def _emit_event(self, kind: str, **fields) -> None:
        """One event line (no-op until an event log is attached)."""
        if self._events is not None:
            self._events.emit(kind, **fields)

    # ------------------------------------------------------------------
    # subscriptions

    def subscribe(self, callback: Callable[[CorpusEvent], None]) -> None:
        """Register a mutation listener (called on the mutating thread)."""
        with self._lock:
            if callback not in self._listeners:
                self._listeners.append(callback)

    def unsubscribe(self, callback: Callable[[CorpusEvent], None]) -> None:
        """Remove a previously registered listener (idempotent)."""
        with self._lock:
            if callback in self._listeners:
                self._listeners.remove(callback)

    def _notify(self, kind: str, string: str | None) -> None:
        """Fire one event outside the lock (listeners may re-enter)."""
        listeners = tuple(self._listeners)
        if not listeners:
            return
        event = CorpusEvent(kind=kind, string=string, epoch=self._epoch)
        for listener in listeners:
            listener(event)

    def _fire(self, events: list[tuple[str, str | None]]) -> None:
        """Deliver events queued during a locked section, in order.

        Mutating calls collect ``(kind, string)`` pairs while holding
        the corpus lock and fire them here after releasing it, so the
        stream subscribers see is ordered cause-before-effect (insert,
        then the flush it triggered, then the compaction) and listeners
        that synchronize with threads needing the corpus lock cannot
        deadlock.
        """
        for kind, string in events:
            self._notify(kind, string)

    # ------------------------------------------------------------------
    # mutations

    def insert(self, string: str) -> None:
        """Add one string (duplicates accumulate).

        An insert first cancels a pending tombstone for the same string
        — the physical copy still in a segment then serves it again —
        and otherwise lands in the memtable. Crossing the flush
        threshold compiles the memtable into a new segment and may
        trigger a compaction.
        """
        if not string:
            raise ReproError("cannot index an empty string")
        events: list[tuple[str, str | None]] = [("insert", string)]
        stalled = 0.0
        with self._lock:
            self._contents[string] += 1
            if self._tombstones.get(string, 0) > 0:
                self._tombstones[string] -= 1
                if self._tombstones[string] == 0:
                    del self._tombstones[string]
            else:
                self._memtable[string] += 1
            self._epoch += 1
            epoch = self._epoch
            if len(self._memtable) >= self._flush_threshold:
                # Everything past the memtable append is stall: the
                # writer is paying for a flush (and, inline, for the
                # compaction it triggered) instead of returning.
                started = time.perf_counter()
                self._flush_locked(events=events)
                stalled = time.perf_counter() - started
            self._metrics.inc("live.inserts")
            self._update_gauges_locked()
        if stalled:
            self._metrics.hist("live.stall_seconds", stalled)
        self._emit_event("epoch", epoch=epoch, cause="insert")
        self._fire(events)

    def delete(self, string: str) -> None:
        """Remove one occurrence of ``string``.

        A delete prefers cancelling a pending memtable copy; otherwise
        it tombstones the copy living in a segment (purged at the next
        compaction that touches it).

        Raises
        ------
        ReproError
            If the string is not currently in the corpus.
        """
        with self._lock:
            if self._contents.get(string, 0) <= 0:
                raise ReproError(f"{string!r} is not in the corpus")
            self._contents[string] -= 1
            if self._contents[string] == 0:
                del self._contents[string]
            if self._memtable.get(string, 0) > 0:
                self._memtable[string] -= 1
                if self._memtable[string] == 0:
                    del self._memtable[string]
            else:
                self._tombstones[string] += 1
            self._epoch += 1
            epoch = self._epoch
            self._metrics.inc("live.deletes")
            self._update_gauges_locked()
        self._emit_event("epoch", epoch=epoch, cause="delete")
        self._notify("delete", string)

    def flush(self) -> bool:
        """Compile the memtable into a new segment now.

        Returns whether anything was flushed. Automatic on crossing
        ``flush_threshold``; explicit callers use it before snapshots
        or shutdown.
        """
        events: list[tuple[str, str | None]] = []
        with self._lock:
            flushed = self._flush_locked(events=events)
        self._fire(events)
        return flushed

    def _flush_locked(self, *, trigger_compaction: bool = True,
                      events: list[tuple[str, str | None]] | None = None
                      ) -> bool:
        if not self._memtable:
            return False
        flushed_strings = len(self._memtable)
        started = time.perf_counter()
        with trace_span("live.flush",
                        {"strings": str(flushed_strings)}):
            segment = self._build_segment(tuple(self._memtable))
            self._memtable.clear()
            self._segments = self._segments + (segment,)
        seconds = time.perf_counter() - started
        self.flushes += 1
        self._metrics.inc("live.flushes")
        self._metrics.hist("live.flush_seconds", seconds)
        self._emit_event("flush", strings=flushed_strings,
                         segment_level=segment.level,
                         segments=len(self._segments),
                         seconds=round(seconds, 6))
        if events is not None:
            events.append(("flush", None))
        if self._segment_dir is not None:
            self._save_manifest()
        if trigger_compaction:
            self._maybe_compact(events=events)
        self._update_gauges_locked()
        return True

    # ------------------------------------------------------------------
    # segments & compaction

    def _level_for(self, size: int) -> int:
        level = 0
        cap = max(1, self._flush_threshold)
        while size >= cap * self._fanout:
            cap *= self._fanout
            level += 1
        return level

    def _build_segment(self, strings: tuple[str, ...]) -> LiveSegment:
        """Compile one immutable segment (and persist it if configured)."""
        with self._lock:
            self._seq += 1
            sequence = self._seq
        path = None
        corpus = CompiledCorpus(strings)
        if self._segment_dir is not None:
            from repro.speed import save_segment, segment_cache

            path = os.path.join(self._segment_dir,
                                f"seg-{sequence:06d}.seg")
            save_segment(corpus, path)
            corpus = segment_cache.get(path)
        return self._segment(corpus, strings, sequence, path)

    def _segment(self, corpus: CompiledCorpus, strings: tuple[str, ...],
                 sequence: int, path: str | None) -> LiveSegment:
        """Wrap one compiled corpus as a segment of this corpus."""
        return LiveSegment(
            compiled_corpus=corpus,
            strings=strings,
            members=frozenset(strings),
            size=len(strings),
            level=self._level_for(len(strings)),
            sequence=sequence,
            path=path,
        )

    def _compaction_candidates(self) -> tuple[LiveSegment, ...]:
        """The lowest size tier holding >= ``fanout`` segments, if any."""
        levels: dict[int, list[LiveSegment]] = {}
        for segment in self._segments:
            levels.setdefault(segment.level, []).append(segment)
        for level in sorted(levels):
            group = levels[level]
            if len(group) >= self._fanout:
                return tuple(group)
        return ()

    def _maybe_compact(
            self,
            events: list[tuple[str, str | None]] | None = None) -> None:
        group = self._compaction_candidates()
        if not group:
            return
        self._emit_event("compaction_start",
                         level=group[0].level, group=len(group),
                         mode=self._compaction_mode)
        if self._compaction_mode == "background":
            if self._compacting:
                return
            self._compacting = True
            self._update_gauges_locked()
            # Capture the triggering mutation's ambient trace so the
            # compaction span (and its event lines) parent under the
            # insert that crossed the threshold, not float as a
            # separate tree.
            trace = current_trace()
            thread = threading.Thread(
                target=self._run_background_compaction,
                args=(group, trace),
                name="live-corpus-compaction", daemon=True,
            )
            self._compaction_thread = thread
            thread.start()
        else:
            self._merge_group(group, events=events)

    def _run_background_compaction(
            self, group: tuple[LiveSegment, ...],
            trace=(None, None)) -> None:
        tracer, context = trace
        try:
            with use_trace(tracer, context):
                self._merge_group(group)
        finally:
            with self._lock:
                self._compacting = False
                self._update_gauges_locked()

    def _merge_group(self, group: tuple[LiveSegment, ...],
                     events: list[tuple[str, str | None]] | None = None
                     ) -> None:
        """Merge ``group`` into one segment, purging dead strings.

        The merged corpus is built *outside* the lock (segments are
        immutable). The lock is held only for the segment-list swap and
        tombstone reconciliation, so a concurrent search observes
        either the old or the new layout, never a half-merged one.

        The contents filter used to collect survivors may be stale by
        swap time, and staleness is *not* symmetric: a string deleted
        after collection merely rides along dead (the merged segment
        holds it, so its tombstone survives the swap and every view
        keeps it in ``removed``), but a tombstoned string
        **re-inserted** while the
        merge ran was dropped from the merged segment even though
        insert() cancelled its tombstone expecting the physical segment
        copy to survive. The swap therefore re-validates: any group
        string that is visible yet no longer physically present
        anywhere is re-added to the memtable.
        """
        compaction_started = time.perf_counter()
        span = trace_span("live.compaction", {
            "level": str(group[0].level), "group": str(len(group)),
            "mode": self._compaction_mode,
        })
        with span:
            self._merge_group_traced(group, events)
        self._metrics.hist("live.compaction_seconds",
                           time.perf_counter() - compaction_started)

    def _merge_group_traced(
            self, group: tuple[LiveSegment, ...],
            events: list[tuple[str, str | None]] | None) -> None:
        group_members: set[str] = set()
        survivors: list[str] = []
        seen: set[str] = set()
        contents = self._contents
        for segment in group:
            for string in segment.strings:
                group_members.add(string)
                if string not in seen and contents.get(string, 0) > 0:
                    seen.add(string)
                    survivors.append(string)
        merged = (self._build_segment(tuple(survivors))
                  if survivors else None)
        doomed_paths: list[str] = []
        with self._lock:
            identities = {id(segment) for segment in group}
            kept = [segment for segment in self._segments
                    if id(segment) not in identities]
            if merged is not None:
                kept.append(merged)
            self._segments = tuple(kept)
            for string in group_members:
                if (self._contents.get(string, 0) > 0
                        and self._memtable.get(string, 0) == 0
                        and not any(string in segment.members
                                    for segment in kept)):
                    self._memtable[string] = 1
            purged = 0
            for string in list(self._tombstones):
                if string in group_members and not any(
                        string in segment.members for segment in kept):
                    purged += self._tombstones.pop(string)
            self.tombstones_purged += purged
            self.compactions += 1
            self._metrics.inc("live.compactions")
            if purged:
                self._metrics.inc("live.tombstones_purged", purged)
            segments_after = len(kept)
            doomed_paths = [segment.path for segment in group
                            if segment.path is not None]
            if self._segment_dir is not None:
                self._save_manifest()
            self._update_gauges_locked()
        self._emit_event("compaction_swap",
                         level=group[0].level, merged=len(group),
                         segments=segments_after, purged=purged,
                         survivors=len(survivors))
        for path in doomed_paths:
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - cleanup is advisory
                pass
        if events is not None:
            events.append(("compact", None))
        else:
            # Background path: the merge thread holds no corpus lock
            # here, so direct delivery is safe.
            self._notify("compact", None)

    def compact(self) -> None:
        """Force a full merge: flush, then fold every segment into one.

        Afterwards the corpus holds at most one segment, the memtable
        is empty and the tombstone ledger is fully purged — exactly the
        layout a from-scratch rebuild would produce. Joins any
        in-flight background compaction first.
        """
        self.drain_compaction()
        events: list[tuple[str, str | None]] = []
        with self._lock:
            self._flush_locked(trigger_compaction=False, events=events)
            group = self._segments
            if group and (len(group) > 1 or self._tombstones):
                self._merge_group(group, events=events)
        self._fire(events)

    def drain_compaction(self, timeout: float | None = None) -> None:
        """Wait for an in-flight background compaction to finish."""
        thread = self._compaction_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    @property
    def compacting(self) -> bool:
        """Whether a background compaction is currently in flight."""
        thread = self._compaction_thread
        return thread is not None and thread.is_alive()

    # ------------------------------------------------------------------
    # search

    def search(self, query: str, k: int, *,
               deadline: Deadline | Budget | None = None
               ) -> tuple[Match, ...]:
        """All visible strings within distance ``k``, merged and sorted.

        One :meth:`view`, run through
        :func:`repro.service.sharding.fan_out` on the ``compiled`` rung:
        the memtable, then every segment, all against the *shared*
        ``deadline``. On expiry the raised :class:`DeadlineExceeded`
        carries the merged matches of every completed part, minus the
        view's hidden strings — still a subset of the exact answer —
        with ``scope="segments"`` and ``completed``/``total`` counting
        parts (the memtable is part 0).
        """
        check_threshold(k)
        view = self.view()
        self._metrics.inc("live.searches")
        visited = len(view.segments)
        try:
            with trace_span("live.search",
                            {"segments": str(len(view.segments)),
                             "memtable": str(len(view.memtable))}):
                return fan_out(query, k, view.segments, plan="compiled",
                               deadline=deadline, scope="segments",
                               memtable=view.memtable,
                               removed=view.removed)
        except DeadlineExceeded as error:
            visited = max(0, error.completed - 1)
            raise
        finally:
            self._metrics.inc("live.segments_visited", visited)
            self._metrics.hist("live.search_segments_visited", visited)

    # ------------------------------------------------------------------
    # persistence

    def sync(self) -> None:
        """Write the manifest now (including the unflushed memtable).

        Without a ``segment_dir`` this is a no-op. Flush/compaction
        write the manifest automatically; ``sync`` additionally
        persists memtable contents that have not been flushed yet, so
        a reopen loses nothing.
        """
        if self._segment_dir is None:
            return
        with self._lock:
            self._save_manifest()

    def _save_manifest(self) -> None:
        assert self._segment_dir is not None
        manifest = {
            "format": MANIFEST_FORMAT,
            "sequence": self._seq,
            "epoch": self._epoch,
            "flush_threshold": self._flush_threshold,
            "fanout": self._fanout,
            "segments": [
                {"file": os.path.basename(segment.path),
                 "size": segment.size, "sequence": segment.sequence}
                for segment in self._segments
                if segment.path is not None
            ],
            "memtable": dict(self._memtable),
            "tombstones": dict(self._tombstones),
            "contents": dict(self._contents),
        }
        path = os.path.join(self._segment_dir, MANIFEST_NAME)
        temp = path + ".tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        os.replace(temp, path)

    @classmethod
    def open(cls, segment_dir: str, *,
             compaction: str = "inline") -> "LiveCorpus":
        """Restore a live corpus persisted under ``segment_dir``.

        Segments are mmap-loaded through the process-global
        :data:`repro.speed.segment_cache`; the manifest restores the
        memtable, tombstone ledger and contents multiset exactly as
        :meth:`sync` (or the last flush/compaction) left them.
        """
        from repro.speed import segment_cache

        manifest_path = os.path.join(segment_dir, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise SegmentError(
                "not a live corpus directory (no manifest)",
                path=manifest_path,
            )
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format") != MANIFEST_FORMAT:
            raise SegmentError(
                f"unsupported live manifest format "
                f"{manifest.get('format')!r} (expected "
                f"{MANIFEST_FORMAT})",
                path=manifest_path,
            )
        # Construct without segment_dir: __init__ would otherwise save
        # an *empty* manifest over the one just read, destroying the
        # persisted state if the process stopped before the next sync.
        corpus = cls(
            flush_threshold=manifest["flush_threshold"],
            fanout=manifest["fanout"],
            compaction=compaction,
        )
        corpus._segment_dir = segment_dir
        segments = []
        for entry in manifest["segments"]:
            path = os.path.join(segment_dir, entry["file"])
            compiled = segment_cache.get(path)
            if not isinstance(compiled, CompiledCorpus):
                raise SegmentError(
                    "live segment is not a corpus segment", path=path,
                )
            segments.append(corpus._segment(
                compiled, tuple(compiled.strings), entry["sequence"],
                path))
        corpus._segments = tuple(segments)
        corpus._seq = manifest["sequence"]
        corpus._epoch = manifest["epoch"]
        corpus._memtable = Counter(manifest["memtable"])
        corpus._tombstones = Counter(manifest["tombstones"])
        corpus._contents = Counter(manifest["contents"])
        return corpus

    def __repr__(self) -> str:
        return (
            f"LiveCorpus(strings={len(self)}, "
            f"segments={self.segment_count}, "
            f"memtable={self.memtable_size}, "
            f"tombstones={self.tombstone_count}, epoch={self._epoch})"
        )
