"""The data side of a scan, preprocessed once and shared by every query.

A scan touches the dataset far more often than the dataset changes: the
competition runs 100–1,000 queries against one immutable string set
(paper section 5.2). :class:`CompiledCorpus` therefore pays every
data-side cost exactly once, at compile time:

* **Interning and deduplication** — result sets list distinct strings,
  so duplicates are collapsed up front and each survivor is interned.
* **Length bucketing with sorted offsets** — strings sharing a length
  live in one :class:`LengthBucket`; buckets are sorted by length, so
  the equation-5 length filter is two binary searches yielding a
  contiguous bucket range instead of a branch per candidate.
* **Dense symbol encoding** — each bucket is one ``(count, length)``
  ``numpy`` matrix of integer codes over a
  :class:`repro.data.alphabet.Alphabet` (provided or inferred), plus
  its bit-packed words (:class:`repro.distance.packed.PackedBucket`,
  the paper's section-6 dictionary compression), so the hot loop
  compares small ints instead of characters.
* **Symbol-group counts** — the alphabet is split into at most
  :data:`MAX_SYMBOL_GROUPS` groups of balanced corpus frequency (one
  group per symbol for small alphabets such as DNA), and one
  group-major ``(groups, size)`` count matrix, in bucket order and the
  narrowest unsigned dtype that holds the longest string, feeds a
  bag-distance lower bound over the whole alphabet — the paper's
  section-6 frequency vectors, with every symbol tracked.

Every matrix is built per bucket with array operations (the paper's
section 3.4 "simple data types" taken to this language), never string
by string. The compiled value is immutable; a
:class:`repro.parallel.executor.ProcessPoolRunner` ships it to workers
once per chunk (or a :class:`repro.speed.SegmentRef` to its segment
file) and scans never re-encode anything.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

import numpy as np

from repro.data.alphabet import Alphabet
from repro.distance.packed import PackedBucket, code_dtype, pack_bucket
from repro.exceptions import ReproError

#: Most symbol groups a corpus counts. Alphabets of at most this many
#: symbols get one group per symbol (DNA keeps its exact per-symbol
#: bound); larger ones are folded into this many balanced groups.
MAX_SYMBOL_GROUPS = 16


@dataclass(frozen=True)
class LengthBucket:
    """All corpus strings of one exact length, encoded and profiled.

    Attributes
    ----------
    length:
        The shared string length (also the bucket's min and max — exact
        bucketing makes the window lookup precise).
    strings:
        The distinct strings, in first-occurrence corpus order.
    frequencies:
        ``(groups, count)`` view into the corpus's
        :attr:`CompiledCorpus.group_counts`: each string's symbol count
        per group, columns parallel to ``strings``.
    packed:
        The symbol codes: ``packed.codes`` is the ``(count, length)``
        code matrix, rows parallel to ``strings``.
    """

    length: int
    strings: tuple[str, ...]
    frequencies: np.ndarray
    packed: PackedBucket

    def __len__(self) -> int:
        return len(self.strings)


def count_dtype(longest: int) -> np.dtype:
    """The narrowest unsigned dtype holding a count up to ``longest``."""
    for dtype in (np.uint8, np.uint16):
        if longest <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.uint32)


def symbol_groups(symbol_counts) -> np.ndarray:
    """Each alphabet code's group: a frequency-balanced partition.

    At most :data:`MAX_SYMBOL_GROUPS` symbols keep one group each (the
    group is the code). Above that, symbols are taken in descending
    corpus count, ties by code, and each joins the group with the
    smallest total so far (the lowest group on a tie) — a pure function
    of the counts, so no hash or set order reaches the grouping.
    """
    counts = list(symbol_counts)
    if len(counts) <= MAX_SYMBOL_GROUPS:
        return np.arange(len(counts), dtype=np.intp)
    groups = [0] * len(counts)
    totals = [(0, group) for group in range(MAX_SYMBOL_GROUPS)]
    # A stable sort keeps equal counts in code order, also reversed.
    for code in sorted(range(len(counts)), key=counts.__getitem__,
                       reverse=True):
        total, group = totals[0]
        groups[code] = group
        heapq.heapreplace(totals, (total + counts[code], group))
    return np.array(groups, dtype=np.intp)


class CompiledCorpus:
    """An immutable dataset compiled for repeated scanning.

    Parameters
    ----------
    dataset:
        The strings to compile. Duplicates are collapsed; empty strings
        are rejected (as in :class:`repro.core.sequential.SequentialScanSearcher`).
    alphabet:
        Optional :class:`Alphabet` the data must conform to. When
        omitted, a minimal alphabet is inferred from the data itself.
    packed:
        Accepted only as ``True``, the one layout; kept for callers
        that still pass it. ``False`` raises :class:`ReproError`.

    Examples
    --------
    >>> corpus = CompiledCorpus(["Bern", "Ulm", "Bonn", "Bern"])
    >>> corpus.size            # duplicates collapsed
    3
    >>> corpus.lengths         # distinct lengths, sorted
    (3, 4)
    >>> [b.length for b in corpus.buckets_in_window(4, 1)]
    [3, 4]
    """

    def __init__(self, dataset: Iterable[str], *,
                 alphabet: Alphabet | None = None,
                 packed: bool = True) -> None:
        if packed is not True:
            raise ReproError(
                f"CompiledCorpus(packed={packed!r}) is gone: every "
                "compiled corpus now stores its buckets as numpy "
                "matrices (the tuple layout was removed), so omit the "
                "keyword"
            )
        raw = tuple(dataset)
        for index, string in enumerate(raw):
            if not string:
                raise ReproError(
                    f"dataset string at index {index} is empty"
                )
        # Collapse duplicates (result rows are distinct-string sets) and
        # intern the survivors so worker processes share object identity
        # with the literal pool where possible.
        unique = tuple(sys.intern(s) for s in dict.fromkeys(raw))

        if alphabet is None and unique:
            symbols = sorted(set("".join(unique)))
            alphabet = Alphabet("inferred", "".join(symbols))

        by_length: dict[int, list[str]] = {}
        for string in unique:
            by_length.setdefault(len(string), []).append(string)
        members = [tuple(by_length[length]) for length in sorted(by_length)]
        packed = [pack_bucket(strings, alphabet) for strings in members]

        size = alphabet.size if alphabet is not None else 0
        symbol_counts = np.zeros(size, dtype=np.int64)
        for bulk in packed:
            symbol_counts += np.bincount(bulk.codes.reshape(-1),
                                         minlength=size)
        group_of = symbol_groups(symbol_counts.tolist())
        groups = min(size, MAX_SYMBOL_GROUPS)
        counts = np.empty((groups, len(unique)),
                          dtype=count_dtype(max(by_length, default=0)))
        offset = 0
        for bulk in packed:
            # One bincount per bucket: cell ``group * rows + row``.
            rows = len(bulk)
            cells = group_of[bulk.codes]
            cells *= rows
            cells += np.arange(rows)[:, None]
            counts[:, offset:offset + rows] = np.bincount(
                cells.reshape(-1), minlength=groups * rows
            ).reshape(groups, rows)
            offset += rows
        self._assemble(alphabet, unique, len(raw), members, packed,
                       group_of, counts)

    def _assemble(self, alphabet: Alphabet | None, strings, total: int,
                  members, packed, group_of: np.ndarray,
                  counts: np.ndarray, segment_path: str | None = None
                  ) -> None:
        """Set every field from the compiled parts; the one place the
        in-memory compile and :func:`repro.speed.load_segment` share.

        ``members[i]`` / ``packed[i]`` are bucket ``i``'s strings and
        codes (buckets sorted by length), and ``counts`` is the
        group-major count matrix whose columns follow that bucket order.
        """
        self._alphabet = alphabet
        self._strings = strings
        self._total_strings = total
        self._segment_path = segment_path
        self._group_of = tuple(group_of.tolist())
        self._group_counts = counts
        offsets = [0]
        buckets = []
        for bucket_strings, bulk in zip(members, packed):
            start = offsets[-1]
            offsets.append(start + len(bulk))
            buckets.append(LengthBucket(
                length=bulk.length,
                strings=bucket_strings,
                frequencies=counts[:, start:offsets[-1]],
                packed=bulk,
            ))
        self._buckets = tuple(buckets)
        self._lengths = tuple(bucket.length for bucket in buckets)
        self._offsets = np.array(offsets, dtype=np.int64)
        self._row_lengths = np.repeat(
            np.array(self._lengths, dtype=counts.dtype),
            np.diff(self._offsets))

    # ------------------------------------------------------------------
    # Introspection

    @property
    def strings(self) -> tuple[str, ...]:
        """The distinct strings, in first-occurrence order."""
        return self._strings

    @property
    def size(self) -> int:
        """Number of distinct strings."""
        return len(self._strings)

    @property
    def total_strings(self) -> int:
        """Number of strings supplied (duplicates included)."""
        return self._total_strings

    @property
    def alphabet(self) -> Alphabet | None:
        """The alphabet strings are encoded over (``None`` iff empty)."""
        return self._alphabet

    @property
    def group_of(self) -> tuple[int, ...]:
        """Each alphabet code's symbol group (see :func:`symbol_groups`)."""
        return self._group_of

    @property
    def group_counts(self) -> np.ndarray:
        """The ``(groups, size)`` symbol-group counts, one column per
        distinct string in bucket order (bucket ``i`` owns columns
        ``offsets[i]:offsets[i + 1]``)."""
        return self._group_counts

    @property
    def offsets(self) -> np.ndarray:
        """``int64`` column offset of every bucket, plus the total."""
        return self._offsets

    @property
    def row_lengths(self) -> np.ndarray:
        """Each column's string length, in :attr:`group_counts`' dtype."""
        return self._row_lengths

    @property
    def segment_path(self) -> str | None:
        """The segment file backing this corpus, if it was mmap-loaded.

        Set by :func:`repro.speed.load_segment`; the batch executors
        use it to ship a :class:`repro.speed.SegmentRef` to pool
        workers instead of pickling the corpus.
        """
        return self._segment_path

    @property
    def buckets(self) -> tuple[LengthBucket, ...]:
        """The length buckets, sorted by length."""
        return self._buckets

    @property
    def lengths(self) -> tuple[int, ...]:
        """Distinct string lengths, sorted ascending."""
        return self._lengths

    @property
    def min_length(self) -> int:
        """Shortest string length (0 for an empty corpus)."""
        return self._lengths[0] if self._lengths else 0

    @property
    def max_length(self) -> int:
        """Longest string length (0 for an empty corpus)."""
        return self._lengths[-1] if self._lengths else 0

    def __len__(self) -> int:
        return len(self._strings)

    def __iter__(self) -> Iterator[str]:
        return iter(self._strings)

    # ------------------------------------------------------------------
    # Query-side helpers

    def window(self, query_length: int, k: int) -> tuple[int, int]:
        """Bucket index range covering lengths within ``k`` of a query.

        The compiled analog of the paper's equation-5 length filter:
        instead of testing ``|len(c) - len(q)| <= k`` per candidate, two
        binary searches over the sorted bucket lengths select the
        contiguous bucket slice ``buckets[lo:hi]`` that can possibly
        match.
        """
        lo = bisect_left(self._lengths, query_length - k)
        hi = bisect_right(self._lengths, query_length + k)
        return lo, hi

    def buckets_in_window(self, query_length: int,
                          k: int) -> tuple[LengthBucket, ...]:
        """The bucket slice :meth:`window` selects."""
        lo, hi = self.window(query_length, k)
        return self._buckets[lo:hi]

    def candidates_in_window(self, query_length: int, k: int) -> int:
        """How many strings the window admits (the scan's workload)."""
        return sum(
            len(bucket) for bucket in self.buckets_in_window(query_length, k)
        )

    def encode_query(self, query: str) -> tuple[int, ...]:
        """Encode a query over the corpus alphabet, tolerating strangers.

        Query symbols outside the alphabet map to ``-1``: no corpus
        string contains that code, so such positions can never match —
        exactly the raw-string semantics — and the Myers ``peq`` entry
        they produce is simply never looked up.
        """
        if self._alphabet is None:
            return tuple(-1 for _ in query)
        codes = self._alphabet._codes
        return tuple(codes.get(symbol, -1) for symbol in query)

    def storage_profile(self) -> dict:
        """Byte accounting of the symbol payload.

        ``byte_code_bytes`` is what the code matrices cost (one byte
        per symbol, two for alphabets wider than 256 symbols, four
        above 65,536); ``packed_bytes`` is the bit-packed payload
        (``bits_per_symbol`` bits each, rows padded to whole bytes).
        ``packed_reduction`` is their ratio — ~2.6x for 3-bit DNA, the
        paper's section-6 dictionary-compression estimate.
        """
        symbols = sum(bucket.length * len(bucket) for bucket in self._buckets)
        itemsize = code_dtype(self._alphabet).itemsize \
            if self._alphabet is not None else 1
        byte_code_bytes = symbols * itemsize
        packed_bytes = sum(bucket.packed.packed_nbytes
                           for bucket in self._buckets)
        return {
            "strings": self.size,
            "symbols": symbols,
            "byte_code_bytes": byte_code_bytes,
            "packed_bytes": packed_bytes,
            "packed_reduction": (byte_code_bytes / packed_bytes
                                 if packed_bytes else 0.0),
        }

    def describe(self) -> dict:
        """Compile-time facts, for benchmarks and reports."""
        return {
            "strings": self.size,
            "duplicates_collapsed": self._total_strings - self.size,
            "alphabet_size": self._alphabet.size if self._alphabet else 0,
            "buckets": len(self._buckets),
            "min_length": self.min_length,
            "max_length": self.max_length,
            "symbol_groups": len(self._group_counts),
        }

    def __repr__(self) -> str:
        return (
            f"CompiledCorpus(strings={self.size}, "
            f"buckets={len(self._buckets)}, "
            f"lengths={self.min_length}..{self.max_length})"
        )
