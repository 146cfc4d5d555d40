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
* **Trigram-group counts** — on alphabets of at most
  :data:`MAX_SYMBOL_GROUPS` symbols, where a bag of symbols says little,
  each string's trigrams are also counted, folded into at most
  :data:`MAX_QGRAM_GROUPS` groups by the same balancing rule, in one
  row-major ``(size, groups)`` matrix: the q-gram count filter (the
  paper's section 2.3) as a second bound in the same select. Larger
  alphabets carry no such table. The rule reads the alphabet, not the
  kind of data: DNA carries the table, and so does any corpus whose
  inferred alphabet happens to be that small, such as a live segment
  flushed from a few short names.

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

#: The q of the q-gram count table: trigrams.
QGRAM_LENGTH = 3

#: Most trigram groups a small-alphabet corpus counts.
MAX_QGRAM_GROUPS = 64


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


def symbol_groups(symbol_counts, *,
                  _groups: int = MAX_SYMBOL_GROUPS) -> np.ndarray:
    """Each alphabet code's group: a frequency-balanced partition.

    At most :data:`MAX_SYMBOL_GROUPS` symbols keep one group each (the
    group is the code). Above that, symbols are taken in descending
    corpus count, ties by code, and each joins the group with the
    smallest total so far (the lowest group on a tie) — a pure function
    of the counts, so no hash or set order reaches the grouping. The
    trigram table folds trigram ids by the same rule into
    :data:`MAX_QGRAM_GROUPS` groups (``_groups``).
    """
    counts = np.asarray(symbol_counts, dtype=np.int64)
    if len(counts) <= _groups:
        return np.arange(len(counts), dtype=np.intp)
    totals = [(0, group) for group in range(_groups)]
    present = np.flatnonzero(counts)
    # A stable sort keeps equal counts in code order.
    order = present[np.argsort(-counts[present], kind="stable")]
    placed = []
    for count in counts[order].tolist():
        total, group = totals[0]
        placed.append(group)
        heapq.heapreplace(totals, (total + count, group))
    # A code the corpus lacks adds nothing to its group's total, so it
    # and every later one join the group that is smallest by then.
    groups = np.full(len(counts), totals[0][1], dtype=np.intp)
    groups[order] = placed
    return groups


def _trigram_ids(codes: np.ndarray, size: int) -> np.ndarray:
    """Each row's trigram ids ``a·size² + b·size + c``, ``(rows,
    length - 2)``, in ``uint16`` (``size`` is at most
    :data:`MAX_SYMBOL_GROUPS`, so every id is below 4,096)."""
    ids = codes[:, :-2].astype(np.uint16)
    ids *= size * size
    ids += codes[:, 1:-1] * np.uint16(size)
    ids += codes[:, 2:]
    return ids


def _row_group_counts(group_of: np.ndarray, items: np.ndarray,
                      groups: int) -> np.ndarray:
    """How many of each row's ``items`` fall in each group: a row-major
    ``(rows, groups)`` matrix from one ``bincount`` over the cells
    ``row * groups + group``."""
    rows = len(items)
    cells = group_of[items]
    cells += np.arange(0, rows * groups, groups)[:, None]
    return np.bincount(cells.reshape(-1),
                       minlength=rows * groups).reshape(rows, groups)


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
        # Trigrams only where symbols alone say little: a fixed rule.
        with_trigrams = 0 < size <= MAX_SYMBOL_GROUPS
        symbol_counts = np.zeros(size, dtype=np.int64)
        trigram_counts = np.zeros(size ** 3 if with_trigrams else 0,
                                  dtype=np.int64)
        for bulk in packed:
            symbol_counts += np.bincount(bulk.codes.reshape(-1),
                                         minlength=size)
            if with_trigrams and bulk.length >= QGRAM_LENGTH:
                trigram_counts += np.bincount(
                    _trigram_ids(bulk.codes, size).reshape(-1),
                    minlength=len(trigram_counts))
        group_of = symbol_groups(symbol_counts)
        trigram_group_of = symbol_groups(trigram_counts,
                                         _groups=MAX_QGRAM_GROUPS)
        dtype = count_dtype(max(by_length, default=0))
        counts = np.empty((min(size, MAX_SYMBOL_GROUPS), len(unique)),
                          dtype=dtype)
        trigrams = np.zeros(
            (len(unique), min(len(trigram_counts), MAX_QGRAM_GROUPS)),
            dtype=dtype) if with_trigrams else None
        offset = 0
        for bulk in packed:
            rows = slice(offset, offset + len(bulk))
            offset += len(bulk)
            counts[:, rows] = _row_group_counts(
                group_of, bulk.codes, len(counts)).T
            if trigrams is not None and bulk.length >= QGRAM_LENGTH:
                trigrams[rows] = _row_group_counts(
                    trigram_group_of, _trigram_ids(bulk.codes, size),
                    trigrams.shape[1])
        self._assemble(alphabet, unique, len(raw), members, packed,
                       group_of, counts, trigram_group_of, trigrams)

    def _assemble(self, alphabet: Alphabet | None, strings, total: int,
                  members, packed, group_of: np.ndarray,
                  counts: np.ndarray, trigram_group_of: np.ndarray,
                  trigrams: np.ndarray | None,
                  segment_path: str | None = None) -> None:
        """Set every field from the compiled parts; the one place the
        in-memory compile and :func:`repro.speed.load_segment` share.

        ``members[i]`` / ``packed[i]`` are bucket ``i``'s strings and
        codes (buckets sorted by length), ``counts`` is the group-major
        count matrix whose columns follow that bucket order, and
        ``trigrams`` the row-major trigram-group matrix whose rows do
        (``None`` for alphabets above :data:`MAX_SYMBOL_GROUPS`).
        """
        self._alphabet = alphabet
        self._strings = strings
        self._total_strings = total
        self._segment_path = segment_path
        self._group_of = tuple(group_of.tolist())
        self._group_counts = counts
        self._trigram_group_of = tuple(trigram_group_of.tolist())
        self._trigram_counts = trigrams
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
    def trigram_group_of(self) -> tuple[int, ...]:
        """Each trigram id's group (empty without a trigram table)."""
        return self._trigram_group_of

    @property
    def trigram_counts(self) -> np.ndarray | None:
        """The row-major ``(size, groups)`` trigram-group counts, one row
        per distinct string in bucket order, or ``None`` when the
        alphabet has more than :data:`MAX_SYMBOL_GROUPS` symbols."""
        return self._trigram_counts

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
