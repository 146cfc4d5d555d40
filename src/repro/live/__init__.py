"""The live-corpus layer: LSM write path + the unified Corpus facade.

* :class:`Corpus` — the one way to acquire data: ``Corpus.frozen(...)``
  (compile once), ``Corpus.live(...)`` (mutable, LSM-backed) or
  ``Corpus.open(path)`` (restore from disk). Engines, services, shards
  and the CLI all accept it.
* :class:`LiveCorpus` — the write path itself: memtable, tombstone
  multiset, immutable compiled segments, size-tiered compaction
  (inline or background), epoch + mutation events, and
  :meth:`LiveCorpus.view`, the one picture every search reads.

See ``docs/LIVE.md`` for the architecture, compaction policy and the
API migration table.
"""

from __future__ import annotations

from repro.live.corpus import (
    COMPACTION_MODES,
    DEFAULT_FANOUT,
    DEFAULT_FLUSH_THRESHOLD,
    MANIFEST_NAME,
    CorpusEvent,
    LiveCorpus,
    LiveSegment,
    LiveView,
)
from repro.live.facade import Corpus

__all__ = [
    "COMPACTION_MODES",
    "DEFAULT_FANOUT",
    "DEFAULT_FLUSH_THRESHOLD",
    "MANIFEST_NAME",
    "Corpus",
    "CorpusEvent",
    "LiveCorpus",
    "LiveSegment",
    "LiveView",
]
