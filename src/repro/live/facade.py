"""The unified corpus facade: one handle for frozen and live data.

Before this module, every layer acquired data its own way — engines
took raw string iterables, services took iterables or a prebuilt
:class:`~repro.service.sharding.ShardedCorpus`, the speed layer took
segment paths, and nothing compiled was mutable. :class:`Corpus` is
the API-redesign answer: **one** handle with three constructors,

* :meth:`Corpus.frozen` — compile once, never mutate (the paper's
  regime; wraps :class:`repro.scan.CompiledCorpus`);
* :meth:`Corpus.live` — the LSM write path
  (:class:`repro.live.corpus.LiveCorpus`): ``insert``/``delete``,
  memtable, tombstones, compacted segments;
* :meth:`Corpus.open` — restore from disk: a single ``.seg`` file
  reopens frozen (mmap, near-instant), a live segment directory
  reopens mutable.

and one uniform surface the rest of the stack consumes:
``search(query, k, deadline=...)``, ``snapshot()``, ``epoch``,
``mutable``, ``subscribe()``. :class:`repro.core.engine.SearchEngine`,
:class:`repro.service.ShardedCorpus`, :class:`repro.service.Service`
and :class:`repro.traffic.AsyncService` all accept a :class:`Corpus`
directly; mutations bump :attr:`epoch`, which those layers poll to
re-snapshot, refresh planner statistics and invalidate cached results.

The handle is also a plain iterable of its visible strings, so any
code written against "an iterable of strings" keeps working unchanged.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator

from repro.core.deadline import Budget, Deadline
from repro.core.result import Match
from repro.exceptions import FrozenCorpusError, ReproError, SegmentError
from repro.live.corpus import (
    DEFAULT_FANOUT,
    DEFAULT_FLUSH_THRESHOLD,
    CorpusEvent,
    LiveCorpus,
)
from repro.scan.corpus import CompiledCorpus
from repro.scan.searcher import CompiledScanSearcher


class Corpus:
    """One handle over frozen or live corpus data.

    Built through :meth:`frozen`, :meth:`live` or :meth:`open`, never
    directly. Every data-consuming layer accepts it; mutating methods
    raise :class:`repro.exceptions.FrozenCorpusError` on a frozen
    handle.

    Examples
    --------
    >>> corpus = Corpus.frozen(["Berlin", "Bern", "Ulm"])
    >>> corpus.mutable
    False
    >>> [m.string for m in corpus.search("Berlino", 2)]
    ['Berlin']
    >>> live = Corpus.live(["Berlin", "Bern"])
    >>> live.insert("Bonn")
    >>> live.epoch
    1
    """

    def __init__(self, *, _live: LiveCorpus | None = None,
                 _compiled: CompiledCorpus | None = None) -> None:
        if (_live is None) == (_compiled is None):
            raise ReproError(
                "Corpus is not constructed directly; use "
                "Corpus.frozen(dataset), Corpus.live(dataset) or "
                "Corpus.open(path)"
            )
        self._live = _live
        self._compiled = _compiled
        self._searcher: CompiledScanSearcher | None = None
        self._members: frozenset[str] | None = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def frozen(cls, dataset: Iterable[str] | CompiledCorpus, *,
               alphabet=None, segment: str | None = None) -> "Corpus":
        """An immutable corpus, compiled once.

        ``segment`` names a :mod:`repro.speed` segment file: it is
        mmap-loaded when present and compiled + saved when not, like
        :func:`repro.speed.load_or_build_corpus_segment`. A prebuilt
        :class:`CompiledCorpus` is wrapped as-is.
        """
        if segment is not None:
            from repro.speed import load_or_build_corpus_segment

            compiled = load_or_build_corpus_segment(
                dataset, segment, alphabet=alphabet)
        elif isinstance(dataset, CompiledCorpus):
            compiled = dataset
        else:
            compiled = CompiledCorpus(dataset, alphabet=alphabet)
        return cls(_compiled=compiled)

    @classmethod
    def live(cls, dataset: Iterable[str] = (), *,
             flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
             fanout: int = DEFAULT_FANOUT,
             compaction: str = "inline",
             segment_dir: str | None = None) -> "Corpus":
        """A mutable LSM corpus (see :class:`LiveCorpus`)."""
        return cls(_live=LiveCorpus(
            dataset, flush_threshold=flush_threshold, fanout=fanout,
            compaction=compaction, segment_dir=segment_dir,
        ))

    @classmethod
    def open(cls, path: str, *, compaction: str = "inline") -> "Corpus":
        """Reopen a persisted corpus.

        A directory (holding a live manifest) reopens as a mutable
        corpus; a single segment file reopens as a frozen one, mmap-
        loaded through the process-global segment cache.
        """
        if os.path.isdir(path):
            return cls(_live=LiveCorpus.open(path, compaction=compaction))
        from repro.speed import segment_cache

        artifact = segment_cache.get(path)
        if not isinstance(artifact, CompiledCorpus):
            raise SegmentError(
                f"segment holds a {type(artifact).__name__}, not a "
                "corpus; Corpus.open expects a corpus segment or a "
                "live corpus directory", path=path,
            )
        return cls(_compiled=artifact)

    # ------------------------------------------------------------------
    # the uniform surface

    @property
    def mutable(self) -> bool:
        """Whether :meth:`insert`/:meth:`delete` are available."""
        return self._live is not None

    @property
    def kind(self) -> str:
        """``"live"`` or ``"frozen"``."""
        return "live" if self._live is not None else "frozen"

    @property
    def epoch(self) -> int:
        """Mutation counter; a frozen corpus stays at 0 forever.

        Consumers snapshot the epoch next to the data they derived
        from it and re-derive when the two drift apart.
        """
        return self._live.epoch if self._live is not None else 0

    @property
    def live_corpus(self) -> LiveCorpus | None:
        """The backing :class:`LiveCorpus` (``None`` when frozen)."""
        return self._live

    @property
    def compiled_corpus(self) -> CompiledCorpus | None:
        """The backing :class:`CompiledCorpus` (``None`` when live)."""
        return self._compiled

    def snapshot(self) -> tuple[str, ...]:
        """The distinct visible strings, in stable order.

        This is what engines/shards compile from; for a live corpus
        pair it with :attr:`epoch` to detect drift.
        """
        if self._live is not None:
            return self._live.snapshot()
        return tuple(self._compiled.strings)

    def __iter__(self) -> Iterator[str]:
        return iter(self.snapshot())

    def __len__(self) -> int:
        if self._live is not None:
            return self._live.distinct
        return self._compiled.size

    def __contains__(self, string: str) -> bool:
        if self._live is not None:
            return string in self._live
        # Frozen strings never change; build the member set once,
        # lazily, mirroring the lazily built _searcher.
        if self._members is None:
            self._members = frozenset(self._compiled.strings)
        return string in self._members

    def search(self, query: str, k: int, *,
               deadline: Deadline | Budget | None = None
               ) -> tuple[Match, ...]:
        """All visible strings within distance ``k``, sorted.

        Frozen handles answer through a (lazily built) compiled-scan
        searcher; live handles fan out over memtable + segments. Both
        honor ``deadline`` with verified partial results.
        """
        if self._live is not None:
            return self._live.search(query, k, deadline=deadline)
        if self._searcher is None:
            self._searcher = CompiledScanSearcher(self._compiled)
        return tuple(self._searcher.search(query, k, deadline=deadline))

    # ------------------------------------------------------------------
    # mutations (live only)

    def _require_live(self, operation: str) -> LiveCorpus:
        if self._live is None:
            raise FrozenCorpusError(
                f"cannot {operation} on a frozen corpus; build a "
                "mutable one with Corpus.live(...) (or reopen a live "
                "segment directory with Corpus.open(...))"
            )
        return self._live

    def insert(self, string: str) -> None:
        """Add one string (live corpora only)."""
        self._require_live("insert").insert(string)

    def delete(self, string: str) -> None:
        """Remove one occurrence of ``string`` (live corpora only)."""
        self._require_live("delete").delete(string)

    def flush(self) -> bool:
        """Flush the memtable into a segment (live corpora only)."""
        return self._require_live("flush").flush()

    def compact(self) -> None:
        """Force a full merge with tombstone purge (live corpora only)."""
        self._require_live("compact").compact()

    def sync(self) -> None:
        """Persist the manifest now (live corpora only)."""
        self._require_live("sync").sync()

    # ------------------------------------------------------------------
    # observability

    def attach_observability(self, *, metrics=None,
                             events=None) -> None:
        """Wire the live write path into the obs substrate.

        Forwards to :meth:`LiveCorpus.attach_observability`; a no-op on
        frozen corpora (they have no write path to observe), so callers
        like the gateway can attach unconditionally.
        """
        if self._live is not None:
            self._live.attach_observability(metrics=metrics,
                                            events=events)

    # ------------------------------------------------------------------
    # subscriptions

    def subscribe(self, callback: Callable[[CorpusEvent], None]) -> None:
        """Register a mutation listener; a no-op on frozen corpora.

        Frozen corpora never mutate, so accepting (and ignoring) the
        registration lets callers subscribe unconditionally.
        """
        if self._live is not None:
            self._live.subscribe(callback)

    def unsubscribe(self, callback: Callable[[CorpusEvent], None]) -> None:
        """Remove a listener; a no-op on frozen corpora."""
        if self._live is not None:
            self._live.unsubscribe(callback)

    # ------------------------------------------------------------------

    def describe(self) -> dict:
        """A JSON-friendly structural summary of either kind."""
        if self._live is not None:
            return self._live.describe()
        summary = dict(self._compiled.describe())
        summary["kind"] = "frozen"
        return summary

    def __repr__(self) -> str:
        if self._live is not None:
            return f"Corpus.live({self._live!r})"
        return f"Corpus.frozen(size={self._compiled.size})"
