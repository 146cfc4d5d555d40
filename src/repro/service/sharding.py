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

Over a mutable :class:`repro.live.Corpus` the partitioning is a *base*
that outlives writes: drift since the base was cut rides along as a
small overlay (added strings as one more shard, removed strings
filtered from results) and is folded into a fresh base only under the
square-root rule of :meth:`ShardedCorpus.refresh` — the same idea the
live corpus applies one layer down with its memtable and tombstones
over immutable segments.
"""

from __future__ import annotations

import os
import threading
from typing import Iterable

from repro.core.deadline import Budget, Deadline
from repro.core.result import Match
from repro.core.searcher import BACKENDS, Searcher
from repro.exceptions import DeadlineExceeded, ReproError
from repro.obs.tracing import trace_span
from repro.parallel.partition import round_robin_chunks

#: Plan kind (ladder rung) -> the backend a shard builds for it; a
#: view of :data:`repro.core.searcher.BACKENDS`.
_RUNG_BACKENDS = {backend.rung: backend for backend in BACKENDS.values()}

#: Plan kinds a shard can serve (see :meth:`ShardedCorpus.searcher_for`).
SHARD_PLAN_KINDS = tuple(_RUNG_BACKENDS)

#: The shard plan kind serving each planner strategy
#: (:data:`repro.core.planner.STRATEGIES`): the rung a verdict promotes.
STRATEGY_PLAN_KIND = {strategy: backend.rung
                      for strategy, backend in BACKENDS.items()}


class _Base:
    """One full partitioning of one snapshot, with its shards' searchers.

    Built at construction and at every rebase, then shared unchanged by
    every :class:`_ShardView` cut until the next rebase — which is what
    keeps the base shards' searchers alive across writes. ``members``
    is the snapshot as a ``frozenset`` (what :meth:`ShardedCorpus.refresh`
    diffs the next snapshot against); it is only built over a mutable
    source. ``generation`` counts rebases, ``folded`` how many drifted
    strings the rebase that built this base folded in.
    """

    __slots__ = ("parts", "members", "size", "generation", "folded",
                 "searchers")

    def __init__(self, parts: list[tuple[str, ...]],
                 members: frozenset[str] | None, size: int,
                 generation: int, folded: int) -> None:
        self.parts = parts
        self.members = members
        self.size = size
        self.generation = generation
        self.folded = folded
        self.searchers: dict[tuple[str, int], Searcher | None] = {}


class _ShardView:
    """One consistent picture of the corpus: a base plus its drift.

    :class:`ShardedCorpus` swaps a whole view atomically on refresh
    instead of mutating anything in place, so a search that captured a
    view at entry keeps a coherent old-or-new picture even while a
    concurrent submit refreshes. ``strings`` is the snapshot the view
    was cut from; ``added`` (visible strings the base does not hold)
    is searched as one more shard after the base's, ``removed`` (base
    strings no longer visible) is filtered out of every merged row.
    The searcher caches — the base's, shared, and this view's own for
    the ``added`` shard — are dicts, safe under CPython's atomic dict
    ops; two threads racing to build the same shard searcher at worst
    build it twice, which is idempotent.
    """

    __slots__ = ("strings", "base", "added", "removed", "searchers")

    def __init__(self, strings: tuple[str, ...], base: _Base,
                 added: tuple[str, ...] = (),
                 removed: frozenset[str] = frozenset()) -> None:
        self.strings = strings
        self.base = base
        self.added = added
        self.removed = removed
        self.searchers: dict[tuple[str, int], Searcher | None] = {}


class ShardedCorpus:
    """The dataset partitioned into independently searchable shards.

    Parameters
    ----------
    dataset:
        The strings to search (duplicates allowed; every occurrence
        lands in exactly one shard), or a :class:`repro.live.Corpus`.
        A mutable corpus is tracked by epoch: its drift rides on the
        shards as a small overlay and is folded into a fresh
        partitioning only once it has grown (see :meth:`refresh`).
    shards:
        Number of partitions (``>= 1``); strings are dealt round-robin.
    segment_dir:
        Optional directory of per-shard segment files (see
        :mod:`repro.speed`). With it set, the ``"compiled"`` plan
        mmap-loads ``shard-NNNN.seg`` when present and compiles + saves
        it when not — so every cold start after the first is
        near-instant and shards share page-cache memory across
        processes.

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
        if isinstance(dataset, Corpus):
            self._source: Corpus | None = dataset
            self._source_epoch = dataset.epoch
            strings = dataset.snapshot()
        else:
            self._source = None
            self._source_epoch = 0
            strings = tuple(dataset)
        self._live = self._source is not None and self._source.mutable
        self._shards = shards
        self._segment_dir = segment_dir
        self._refresh_lock = threading.Lock()
        self._view = self._rebased(strings, generation=0, folded=0)

    def _rebased(self, strings: tuple[str, ...], *, generation: int,
                 folded: int) -> _ShardView:
        """A view of ``strings`` freshly partitioned, with no overlay.

        The one place a partitioning is made: construction and every
        rebase go through here.
        """
        parts = [tuple(part)
                 for part in round_robin_chunks(strings, self._shards)]
        members = frozenset(strings) if self._live else None
        return _ShardView(strings, _Base(parts, members, len(strings),
                                         generation, folded))

    @property
    def strings(self) -> tuple[str, ...]:
        """The full dataset, in input order."""
        return self._view.strings

    @property
    def source(self):
        """The :class:`repro.live.Corpus` behind the shards, if any."""
        return self._source

    def refresh(self) -> bool:
        """Catch up with a live source corpus that drifted.

        Polled at the top of every :meth:`search` (and usable directly
        by owners such as :class:`repro.service.Service`): when the
        source's epoch moved since the last snapshot, the strings are
        re-snapshotted and diffed against the base partitioning, and a
        fresh :class:`_ShardView` is swapped in atomically. Returns
        whether a view was swapped.

        Ordinarily the new view keeps the base — its parts and its
        cached searchers — and carries the difference as an overlay:
        the ``added`` strings become one more small shard, the
        ``removed`` ones are filtered out of results. A write then
        costs one hash diff of the snapshot plus a searcher over the
        overlay, not a rebuild of every shard. The overlay is folded
        into a new base — a **rebase**, the same full re-partition
        construction does — once ``(added + removed) ** 2 > 2 * base``:
        the square-root rule under which the per-write overlay
        rebuilds (each proportional to the overlay) and the rebases
        (each proportional to the corpus) cost about the same in
        total, so the index-building work a write causes is
        O(sqrt(corpus)) amortised. :meth:`describe` says which of the
        two the last swap was.

        Safe under concurrent submits: a lock serializes competing
        refreshes (with a double-check so the losers return cheaply),
        and readers only ever see a complete old or new view — never
        an overlay from one snapshot over the base of another. The
        epoch is captured *before* the snapshot, so a mutation racing
        the snapshot at worst triggers one redundant refresh later,
        never a missed one.
        """
        if not self._live:
            return False
        if self._source.epoch == self._source_epoch:
            return False
        with self._refresh_lock:
            epoch = self._source.epoch
            if epoch == self._source_epoch:
                return False
            strings = self._source.snapshot()
            base = self._view.base
            members = base.members
            added = tuple(string for string in strings
                          if string not in members)
            removed = members.difference(strings)
            drift = len(added) + len(removed)
            if drift * drift > 2 * base.size:
                self._view = self._rebased(
                    strings, generation=base.generation + 1, folded=drift)
            else:
                self._view = _ShardView(strings, base, added, removed)
            self._source_epoch = epoch
        return True

    def describe(self) -> dict:
        """A JSON-friendly summary of the current view, read atomically.

        ``strings`` is the visible corpus; ``base`` the strings in the
        base partitioning, ``added``/``removed`` the overlay on it;
        ``rebases`` counts the full re-partitions since construction
        and ``folded`` the overlay size the last one folded in.
        """
        view = self._view
        base = view.base
        return {
            "shards": len(base.parts),
            "strings": len(view.strings),
            "base": base.size,
            "added": len(view.added),
            "removed": len(view.removed),
            "rebases": base.generation,
            "folded": base.folded,
        }

    @property
    def shard_count(self) -> int:
        """Number of partitions of the base (the overlay is not one)."""
        return len(self._view.base.parts)

    def shard(self, index: int) -> tuple[str, ...]:
        """The strings of one shard of the *base* partitioning.

        Over a live source the base lags the corpus by the overlay
        (see :meth:`refresh`); :attr:`strings` is always current.
        """
        return self._view.base.parts[index]

    def searcher_for(self, plan: str, index: int) -> Searcher | None:
        """The (cached) searcher serving ``plan`` on base shard ``index``.

        ``None`` for an empty shard — there is nothing to search and
        some structures cannot be built over zero strings. The same
        object is returned until the next rebase, writes or not.
        """
        return self._view_searcher(self._view, plan, index)

    def _view_searcher(self, view: _ShardView, plan: str,
                       index: int) -> Searcher | None:
        """Build (or fetch) ``view``'s searcher for one (plan, shard).

        Indexes past the base's shards name the overlay shard, whose
        searchers live (and die) with the view.
        """
        if plan not in SHARD_PLAN_KINDS:
            raise ReproError(
                f"unknown shard plan {plan!r}; expected one of "
                f"{SHARD_PLAN_KINDS}"
            )
        base = view.base
        if index < len(base.parts):
            cache, part = base.searchers, base.parts[index]
        else:
            cache, part = view.searchers, view.added
        key = (plan, index)
        if key in cache:
            return cache[key]
        searcher = self._build_searcher(plan, index, part) if part \
            else None
        cache[key] = searcher
        return searcher

    def _build_searcher(self, plan: str, index: int,
                        part: tuple[str, ...]) -> Searcher:
        """Construct the ``plan`` searcher over one non-empty shard."""
        # A live source re-partitions on rebase; stale per-shard
        # segment files would then serve deleted strings, so the
        # segment path only applies to immutable sources.
        segment = None
        if self._segment_dir is not None and not self._live:
            segment = os.path.join(self._segment_dir,
                                   f"shard-{index:04d}.seg")
        return _RUNG_BACKENDS[plan].build(part, segment=segment)

    def search(self, query: str, k: int, *, plan: str = "flat",
               deadline: Deadline | Budget | None = None
               ) -> tuple[Match, ...]:
        """All dataset strings within distance ``k``, merged over shards.

        Shards run serially — the base's, then the overlay of added
        strings when there is one — all against the *shared*
        ``deadline``. On expiry the raised :class:`DeadlineExceeded`
        carries, as ``partial``, the merged matches of every
        *completed* shard plus whatever the lagging shard had verified
        — still a strict subset of the exact answer, removed strings
        filtered out like anywhere else — with ``scope="shards"`` and
        ``completed``/``total`` counting shards.
        """
        self.refresh()
        # One view captured at entry: a concurrent refresh swapping
        # self._view mid-loop cannot mix snapshots in this search.
        view = self._view
        merged: list[tuple[Match, ...]] = []
        total = len(view.base.parts) + (1 if view.added else 0)
        for index in range(total):
            # Pre-check between shards: a shard small enough never to
            # hit an amortized poll must not run on a dead deadline.
            if deadline is not None and deadline.spend(0):
                raise DeadlineExceeded(
                    f"sharded {plan} search for {query!r} (k={k}) "
                    f"found its deadline expired before shard {index} "
                    f"of {total}",
                    partial=_visible(view, merged), scope="shards",
                    completed=index, total=total,
                )
            searcher = self._view_searcher(view, plan, index)
            if searcher is None:
                continue
            tags = {"plan": plan}
            with trace_span(f"shard[{index}]", tags):
                try:
                    row = searcher.search(query, k, deadline=deadline)
                except DeadlineExceeded as error:
                    # The span reads its tags as it closes.
                    tags["outcome"] = "deadline"
                    partial = _visible(view,
                                       merged + [tuple(error.partial)])
                    raise DeadlineExceeded(
                        f"sharded {plan} search for {query!r} (k={k}) "
                        f"exceeded its deadline on shard {index} of "
                        f"{total} ({len(partial)} verified matches kept)",
                        partial=partial, scope="shards",
                        completed=index, total=total,
                    ) from error
            merged.append(tuple(row))
        return _visible(view, merged)


def _visible(view: _ShardView,
             rows: Iterable[Iterable[Match]]) -> tuple[Match, ...]:
    """Merge one view's per-shard rows, minus its removed strings."""
    matches = merge_matches(rows)
    if view.removed:
        matches = tuple(match for match in matches
                        if match.string not in view.removed)
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
