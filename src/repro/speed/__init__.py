"""The raw-speed layer: packed storage, vector kernels, mmap segments.

The paper's method is "optimize the hot loop stage by stage, gate each
stage with a benchmark"; this package holds the stages that trade
Python-object flexibility for machine-level speed:

* **The compiled layout** — every ``CompiledCorpus`` stores its length
  buckets as contiguous ``numpy`` arrays
  (:class:`repro.distance.packed.PackedBucket`), the paper's section-6
  dictionary compression in bulk (~2.6x for 3-bit DNA).
* **Vectorized kernels** — :mod:`repro.distance.vectorized` runs the
  Myers recurrence over a whole bucket per step; the scan picks it for
  buckets with enough prefilter survivors.
* **Segments** (this package) — compiled artifacts serialized to
  versioned flat binaries and loaded back as zero-copy ``mmap`` views:
  near-instant cold start, and ~1× resident memory across process-pool
  workers via :class:`SegmentRef`.

See ``docs/SPEED.md`` for the operator-facing guide and the segment
format specification.
"""

from __future__ import annotations

import os

from repro.speed.segment import (
    SEGMENT_ALIGN,
    SEGMENT_KINDS,
    SEGMENT_MAGIC,
    SEGMENT_VERSION,
    IndexedStrings,
    LazyStrings,
    SegmentCache,
    SegmentRef,
    load_segment,
    save_segment,
    segment_cache,
)

__all__ = [
    "SEGMENT_ALIGN",
    "SEGMENT_KINDS",
    "SEGMENT_MAGIC",
    "SEGMENT_VERSION",
    "IndexedStrings",
    "LazyStrings",
    "SegmentCache",
    "SegmentRef",
    "load_segment",
    "save_segment",
    "segment_cache",
    "load_or_build_corpus_segment",
]


def load_or_build_corpus_segment(dataset, path, *, alphabet=None):
    """A segment-backed compiled corpus for ``dataset`` at ``path``.

    If ``path`` already holds a segment, it is mmap-loaded through the
    process-global :data:`segment_cache` (near-instant). Otherwise the
    corpus is compiled, saved to ``path``, and the
    mmap-backed load is returned — so callers always get an artifact
    whose ``segment_path`` is set and whose arrays live in the page
    cache, whichever branch ran. :class:`repro.service.ShardedCorpus`
    uses this per shard for warm cold-starts.
    """
    from repro.scan.corpus import CompiledCorpus

    if not os.path.exists(path):
        parent = os.path.dirname(os.path.abspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        corpus = CompiledCorpus(dataset, alphabet=alphabet)
        save_segment(corpus, path)
    return segment_cache.get(path)
