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
* **Frequency matrices** — one ``(count, |tracked|)`` ``int64`` matrix
  of tracked-symbol counts per bucket (all symbols for tiny alphabets,
  vowels for large ones — the paper's section 6 suggestion), ready for
  a whole-bucket :mod:`repro.filters.frequency` lower bound without
  re-walking any candidate.

Both matrices are built per bucket with array operations (the paper's
section 3.4 "simple data types" taken to this language), never string
by string. The compiled value is immutable; a
:class:`repro.parallel.executor.ProcessPoolRunner` ships it to workers
once per chunk (or a :class:`repro.speed.SegmentRef` to its segment
file) and scans never re-encode anything.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

import numpy as np

from repro.data.alphabet import Alphabet
from repro.distance.packed import PackedBucket, code_dtype, pack_bucket
from repro.exceptions import ReproError

#: Alphabets at or below this size track every symbol in their
#: frequency vectors (the DNA regime); larger ones track vowels only.
SMALL_TRACKED_CUTOFF = 8

#: Tracked symbols for large alphabets: the paper's vowel suggestion
#: (section 6), both cases — corpus counting is case-sensitive, and the
#: frequency lower bound is sound for any fixed symbol set.
DEFAULT_LARGE_TRACKED = "AEIOUaeiou"

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
        ``(count, |tracked|)`` ``int64`` matrix of tracked-symbol
        counts, rows parallel to ``strings``.
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


def _count_vector(text: str, tracked: str) -> tuple[int, ...]:
    """Case-sensitive tracked-symbol counts (see module docstring)."""
    return tuple(text.count(symbol) for symbol in tracked)


def _frequency_matrix(codes: np.ndarray, alphabet: Alphabet,
                      tracked: str) -> np.ndarray:
    """A bucket's tracked-symbol counts, one column per tracked symbol.

    Each column compares the whole code matrix against one code; a
    tracked symbol outside the alphabet occurs nowhere and counts 0.
    """
    counts = np.zeros((codes.shape[0], len(tracked)), dtype=np.int64)
    for column, symbol in enumerate(tracked):
        if symbol in alphabet:
            counts[:, column] = (codes == alphabet.code(symbol)).sum(axis=1)
    return counts


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
    tracked:
        Symbols counted into per-string frequency vectors. Defaults to
        the whole alphabet when it is tiny (DNA) and to vowels for
        large alphabets.
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
                 tracked: str | None = None,
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
        self._alphabet = alphabet

        if tracked is None and alphabet is not None:
            if alphabet.size <= SMALL_TRACKED_CUTOFF:
                tracked = alphabet.symbols
            else:
                tracked = DEFAULT_LARGE_TRACKED
        self._tracked = tracked or ""

        self._total_strings = len(raw)
        self._strings = unique
        self._segment_path: str | None = None

        by_length: dict[int, list[str]] = {}
        for string in unique:
            by_length.setdefault(len(string), []).append(string)
        buckets = []
        for length in sorted(by_length):
            members = tuple(by_length[length])
            bulk = pack_bucket(members, alphabet)
            buckets.append(LengthBucket(
                length=length,
                strings=members,
                frequencies=_frequency_matrix(bulk.codes, alphabet,
                                              self._tracked),
                packed=bulk,
            ))
        self._buckets = tuple(buckets)
        self._lengths = tuple(bucket.length for bucket in self._buckets)

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
    def tracked(self) -> str:
        """Symbols counted into frequency vectors."""
        return self._tracked

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

    def query_frequencies(self, query: str) -> tuple[int, ...]:
        """The query's tracked-symbol counts (pairs with bucket vectors)."""
        return _count_vector(query, self._tracked)

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
            "tracked_symbols": self._tracked,
        }

    def __repr__(self) -> str:
        return (
            f"CompiledCorpus(strings={self.size}, "
            f"buckets={len(self._buckets)}, "
            f"lengths={self.min_length}..{self.max_length})"
        )
