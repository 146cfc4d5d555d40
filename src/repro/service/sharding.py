"""Corpus sharding: the dataset split into independently searchable parts.

A deadline that expires mid-scan over one monolithic corpus loses
everything past the abort point. Sharding changes the failure mode:
the corpus is partitioned into ``shards`` independently searchable
pieces, each shard answers in full or not at all, and an expiry only
costs the shards that had not finished — every completed shard's
matches are exact and keepable. Strings are dealt round-robin, so
each shard is a statistically representative sample of the corpus, and
even a heavily truncated answer covers the whole key space rather than
one contiguous slice of it.

Shards execute *serially* here: the abort point is then well-defined
(shard ``i`` died, shards ``0..i-1`` completed) and partial results are
deterministic — the property the service tests pin down with
work-unit :class:`repro.core.deadline.Budget` deadlines. Wall-clock
parallelism across shards belongs to the runner layer, not this one.

Over a mutable :class:`repro.live.Corpus` the shards are the live
corpus's own immutable segments. Every search takes one
:meth:`repro.live.LiveCorpus.view` — the segment tuple, the memtable
strings and the strings tombstones hide — and :func:`fan_out`, the
one loop both kinds of data run through, scans the memtable, runs each
segment through the searcher that segment caches for the rung, merges
and drops the hidden strings. A write builds no searcher; a flush or a
compaction adds one segment, whose searchers the next read builds.
"""

from __future__ import annotations

import os
import threading
from typing import Iterable, Sequence

from repro.core.deadline import Budget, Deadline
from repro.core.result import Match
from repro.core.searcher import BACKENDS, Searcher
from repro.distance.banded import edit_distance_bounded
from repro.exceptions import DeadlineExceeded, ReproError
from repro.obs.tracing import trace_span
from repro.parallel.partition import round_robin_chunks

#: Plan kinds a shard can serve (see :meth:`ShardedCorpus.searcher_for`):
#: the rungs of :data:`repro.core.searcher.BACKENDS`.
SHARD_PLAN_KINDS = tuple(backend.rung for backend in BACKENDS.values())

#: The shard plan kind serving each planner strategy
#: (:data:`repro.core.planner.STRATEGIES`): the rung a verdict promotes.
STRATEGY_PLAN_KIND = {strategy: backend.rung
                      for strategy, backend in BACKENDS.items()}


def _check_plan(plan: str) -> None:
    if plan not in SHARD_PLAN_KINDS:
        raise ReproError(
            f"unknown shard plan {plan!r}; expected one of "
            f"{SHARD_PLAN_KINDS}"
        )


def cached_searcher(cache: dict, plan: str, dataset: Iterable[str], *,
                    segment: str | None = None) -> Searcher:
    """``cache[plan]``, built through :data:`BACKENDS` on first use.

    Frozen shards and live segments each keep such a cache, so a
    searcher lives exactly as long as the strings it was built over.
    Two threads racing on a miss may both build; ``setdefault`` keeps
    the first, so every caller gets the same object.
    """
    searcher = cache.get(plan)
    if searcher is None:
        backend = next(backend for backend in BACKENDS.values()
                       if backend.rung == plan)
        searcher = cache.setdefault(
            plan, backend.build(dataset, segment=segment))
    return searcher


class _Shard:
    """One partition of frozen data and the searchers built over it.

    ``path`` is the shard's segment file when the corpus was given a
    ``segment_dir`` (the compiled rung mmap-loads or writes it).
    """

    __slots__ = ("strings", "path", "searchers")

    def __init__(self, strings: tuple[str, ...],
                 path: str | None) -> None:
        self.strings = strings
        self.path = path
        self.searchers: dict[str, Searcher] = {}

    def searcher(self, plan: str) -> Searcher | None:
        """``None`` for an empty shard: there is nothing to search and
        some structures cannot be built over zero strings."""
        if not self.strings:
            return None
        return cached_searcher(self.searchers, plan, self.strings,
                               segment=self.path)


class ShardedCorpus:
    """The dataset partitioned into independently searchable shards.

    Parameters
    ----------
    dataset:
        The strings to search (duplicates allowed; every occurrence
        lands in exactly one shard), or a :class:`repro.live.Corpus`.
        Over a live corpus the shards are its segments (see the module
        docstring) and every search reads the corpus as it stands.
    shards:
        Number of partitions of frozen data (``>= 1``); strings are
        dealt round-robin. A live corpus is partitioned by its own
        flushes and compactions instead.
    segment_dir:
        Optional directory of per-shard segment files (see
        :mod:`repro.speed`) for frozen data. With it set, the
        ``"compiled"`` plan mmap-loads ``shard-NNNN.seg`` when present
        and compiles + saves it when not — so every cold start after
        the first is near-instant and shards share page-cache memory
        across processes.

    Shard searchers are built lazily, per ``(plan, shard)`` pair, and
    cached — a service that only ever runs the flat plan never pays for
    compiled-scan construction.

    Examples
    --------
    >>> corpus = ShardedCorpus(["Berlin", "Bern", "Ulm"], shards=2)
    >>> corpus.shard_count
    2
    >>> [m.string for m in corpus.search("Berlino", 2)]
    ['Berlin']
    """

    def __init__(self, dataset: Iterable[str], shards: int = 4, *,
                 segment_dir: str | None = None) -> None:
        from repro.live.facade import Corpus

        if shards < 1:
            raise ReproError(
                f"shards must be positive, got {shards}"
            )
        self._source = dataset if isinstance(dataset, Corpus) else None
        self._live = getattr(self._source, "live_corpus", None)
        self._source_epoch = (self._live.epoch if self._live is not None
                              else 0)
        self._refresh_lock = threading.Lock()
        self._strings: tuple[str, ...] = ()
        self._shards: tuple[_Shard, ...] = ()
        if self._live is None:
            self._strings = tuple(dataset)
            self._shards = tuple(
                _Shard(tuple(part), None if segment_dir is None else
                       os.path.join(segment_dir, f"shard-{index:04d}.seg"))
                for index, part in enumerate(
                    round_robin_chunks(self._strings, shards)))

    @property
    def strings(self) -> tuple[str, ...]:
        """The full dataset: in input order for frozen data, the
        visible strings of the current view over a live corpus."""
        if self._live is None:
            return self._strings
        return self._live.view().strings

    @property
    def source(self):
        """The :class:`repro.live.Corpus` behind the shards, if any."""
        return self._source

    def refresh(self) -> bool:
        """Whether the live source's epoch moved since the last call.

        Nothing is rebuilt here: every search reads the source's
        current view, whose segments keep their searchers across
        writes. :class:`repro.service.Service` polls this at the top of
        every submit to count reads that follow a write. Of several
        concurrent callers, one sees a given move.
        """
        if self._live is None:
            return False
        epoch = self._live.epoch
        if epoch == self._source_epoch:
            return False
        with self._refresh_lock:
            if epoch <= self._source_epoch:
                return False
            self._source_epoch = epoch
        return True

    def _current_shards(self) -> Sequence:
        if self._live is None:
            return self._shards
        return self._live.view().segments

    @property
    def shard_count(self) -> int:
        """Number of shards: the partitions, or the live segments."""
        return len(self._current_shards())

    def shard(self, index: int) -> tuple[str, ...]:
        """The strings stored in one shard.

        A live segment holds strings deleted since it was written until
        a compaction drops them; :attr:`strings` is always current.
        """
        return self._current_shards()[index].strings

    def searcher_for(self, plan: str, index: int) -> Searcher | None:
        """The (cached) searcher serving ``plan`` on shard ``index``.

        ``None`` for an empty frozen shard. A live segment's searchers
        are the same objects for as long as the segment exists, writes
        or not.
        """
        _check_plan(plan)
        return self._current_shards()[index].searcher(plan)

    def search(self, query: str, k: int, *, plan: str = "flat",
               deadline: Deadline | Budget | None = None
               ) -> tuple[Match, ...]:
        """All dataset strings within distance ``k``, merged over shards.

        One :func:`fan_out` over the partitions, or over one view of a
        live source — captured at entry, so a write landing mid-search
        cannot mix two corpus states in one answer. Deadline expiry
        raises with ``scope="shards"`` (see :func:`fan_out`).
        """
        if self._live is None:
            return fan_out(query, k, self._shards, plan=plan,
                           deadline=deadline)
        view = self._live.view()
        return fan_out(query, k, view.segments, plan=plan,
                       deadline=deadline, memtable=view.memtable,
                       removed=view.removed)


def fan_out(query: str, k: int, shards: Sequence, *, plan: str,
            deadline: Deadline | Budget | None = None,
            scope: str = "shards",
            memtable: tuple[str, ...] | None = None,
            removed: frozenset[str] = frozenset()) -> tuple[Match, ...]:
    """The one search loop over shards: frozen partitions or live segments.

    ``shards`` are objects whose ``searcher(plan)`` returns the cached
    searcher for that rung (or ``None`` when there is nothing to
    search). A live view's unflushed ``memtable`` strings — at most a
    flush threshold of them — are scanned first, as part 0, whole, with
    the bounded reference kernel, and charged one work unit each; then
    every shard runs, serially, against the *shared* ``deadline``. Rows
    are merged and ``removed`` — the strings a live view's tombstones
    hide — dropped.

    On expiry the raised :class:`DeadlineExceeded` carries, as
    ``partial``, the merged rows of every completed part plus whatever
    the lagging shard had verified, minus ``removed`` — still a subset
    of the exact answer — with ``completed``/``total`` counting parts
    under ``scope``.
    """
    _check_plan(plan)
    offset = 0 if memtable is None else 1
    total = len(shards) + offset
    rows: list[tuple[Match, ...]] = []
    for part in range(total):
        # Pre-check between parts: a part small enough never to hit an
        # amortized poll must not run on a dead deadline.
        if deadline is not None and deadline.spend(0):
            raise DeadlineExceeded(
                f"{plan} search for {query!r} (k={k}) found its "
                f"deadline expired before part {part} of {total}",
                partial=_visible(rows, removed), scope=scope,
                completed=part, total=total,
            )
        if part < offset:
            with trace_span("live.memtable",
                            {"strings": str(len(memtable))}):
                scored = ((string, edit_distance_bounded(query, string, k))
                          for string in memtable)
                rows.append(tuple(Match(string, distance)
                                  for string, distance in scored
                                  if distance is not None))
            if deadline is not None:
                deadline.spend(len(memtable))
            continue
        searcher = shards[part - offset].searcher(plan)
        if searcher is None:
            continue
        tags = {"plan": plan}
        with trace_span(f"shard[{part - offset}]", tags):
            try:
                rows.append(tuple(searcher.search(query, k,
                                                  deadline=deadline)))
            except DeadlineExceeded as error:
                # The span reads its tags as it closes.
                tags["outcome"] = "deadline"
                partial = _visible(rows + [tuple(error.partial)], removed)
                raise DeadlineExceeded(
                    f"{plan} search for {query!r} (k={k}) exceeded its "
                    f"deadline on part {part} of {total} "
                    f"({len(partial)} verified matches kept)",
                    partial=partial, scope=scope,
                    completed=part, total=total,
                ) from error
    return _visible(rows, removed)


def _visible(rows: Iterable[Iterable[Match]],
             removed: frozenset[str]) -> tuple[Match, ...]:
    """Merge per-part rows, minus the ``removed`` strings."""
    matches = merge_matches(rows)
    if removed:
        matches = tuple(match for match in matches
                        if match.string not in removed)
    return matches


def merge_matches(rows: Iterable[Iterable[Match]]) -> tuple[Match, ...]:
    """Merge per-shard match rows into one deduplicated, sorted row.

    A string duplicated in the dataset may land in several shards and
    match in each; the merge keeps one entry per string. Distances to
    the same string are equal by definition, but the minimum is kept
    anyway so a mixed-verification merge stays conservative.
    """
    best: dict[str, int] = {}
    for row in rows:
        for match in row:
            prior = best.get(match.string)
            if prior is None or match.distance < prior:
                best[match.string] = match.distance
    return tuple(sorted(
        Match(string, distance) for string, distance in best.items()
    ))
