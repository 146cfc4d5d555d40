"""The data side of a scan, preprocessed once and shared by every query.

A scan touches the dataset far more often than the dataset changes: the
competition runs 100–1,000 queries against one immutable string set
(paper section 5.2). :class:`CompiledCorpus` therefore pays every
data-side cost exactly once, at compile time:

* **Interning and deduplication** — result sets list distinct strings,
  so duplicates are collapsed up front and each survivor is interned.
* **Dense symbol encoding** — every string becomes a tuple of integer
  codes over a :class:`repro.data.alphabet.Alphabet` (provided or
  inferred), so the hot loop compares small ints instead of characters.
* **Length bucketing with sorted offsets** — strings sharing a length
  live in one :class:`LengthBucket`; buckets are sorted by length, so
  the equation-5 length filter is two binary searches yielding a
  contiguous bucket range instead of a branch per candidate.
* **Frequency vectors** — per-string counts of a tracked symbol set
  (all symbols for tiny alphabets, vowels for large ones — the paper's
  section 6 suggestion), ready for the
  :mod:`repro.filters.frequency` lower bound without re-walking the
  candidate.

The compiled value is immutable and built from plain tuples, so it
pickles cheaply: a :class:`repro.parallel.executor.ProcessPoolRunner`
ships it to workers once per chunk and scans never re-encode anything.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

from repro.data.alphabet import Alphabet
from repro.distance.packed import PackedBucket, pack_bucket
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
    encoded:
        Symbol-code tuples parallel to ``strings``.
    frequencies:
        Tracked-symbol count vectors parallel to ``strings``.
    """

    length: int
    strings: tuple[str, ...]
    encoded: tuple[tuple[int, ...], ...]
    frequencies: tuple[tuple[int, ...], ...]
    packed: PackedBucket | None = None

    def __len__(self) -> int:
        return len(self.strings)

    def code_rows(self):
        """Per-string symbol codes, whichever storage mode holds them.

        Encoded mode returns the symbol-code tuples; packed mode
        returns the rows of the contiguous ``numpy`` code matrix. Both
        index and compare identically, so the scalar kernel runs
        unchanged on either.
        """
        return self.encoded if self.packed is None else self.packed.codes


def _count_vector(text: str, tracked: str) -> tuple[int, ...]:
    """Case-sensitive tracked-symbol counts (see module docstring)."""
    return tuple(text.count(symbol) for symbol in tracked)


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
        Store each length bucket as a contiguous
        :class:`repro.distance.packed.PackedBucket` (``numpy`` code
        matrix + bit-packed words) instead of Python tuples — the
        paper's section-6 dictionary compression in bulk. Packed
        storage feeds the vectorized kernel directly, shrinks the
        resident payload (~2.6x for 3-bit DNA, see
        :meth:`storage_profile`) and is what
        :func:`repro.speed.save_segment` serializes. Results are
        identical in either mode.

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
                 packed: bool = False) -> None:
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
            symbols = sorted({symbol for s in unique for symbol in s})
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
        self._packed = bool(packed)
        self._segment_path: str | None = None

        by_length: dict[int, list[str]] = {}
        for string in unique:
            by_length.setdefault(len(string), []).append(string)
        buckets = []
        for length in sorted(by_length):
            members = tuple(by_length[length])
            encoded = tuple(alphabet.encode(s) for s in members) \
                if alphabet is not None else ()
            counts = tuple(
                _count_vector(s, self._tracked) for s in members
            )
            if self._packed and alphabet is not None:
                # Packed mode drops the per-string Python tuples: the
                # code matrix (kernel-facing) plus the bit-packed words
                # (resident payload) replace ``encoded``, and the
                # frequency vectors collapse into one integer matrix.
                import numpy as np

                bulk = pack_bucket(members, alphabet, encoded=encoded)
                buckets.append(LengthBucket(
                    length=length,
                    strings=members,
                    encoded=(),
                    frequencies=np.array(counts, dtype=np.int64).reshape(
                        len(members), len(self._tracked)),
                    packed=bulk,
                ))
            else:
                buckets.append(LengthBucket(
                    length=length,
                    strings=members,
                    encoded=encoded,
                    frequencies=counts,
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
    def packed(self) -> bool:
        """Whether buckets use packed (``numpy``) storage."""
        return self._packed

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
        """Byte accounting of the symbol payload, per storage mode.

        ``byte_code_bytes`` is what one-byte-per-symbol code storage
        costs (two for alphabets wider than 256 symbols);
        ``packed_bytes`` is the bit-packed payload
        (``bits_per_symbol`` bits each, rows padded to whole bytes).
        ``packed_reduction`` is their ratio — ~2.6x for 3-bit DNA, the
        paper's section-6 dictionary-compression estimate.
        """
        symbols = sum(bucket.length * len(bucket) for bucket in self._buckets)
        itemsize = 1
        packed_bytes = 0
        if self._packed:
            for bucket in self._buckets:
                if bucket.packed is not None:
                    itemsize = bucket.packed.codes.dtype.itemsize
                    packed_bytes += bucket.packed.packed_nbytes
        elif self._alphabet is not None and self._alphabet.size > 256:
            itemsize = 2
        byte_code_bytes = symbols * itemsize
        return {
            "mode": "packed" if self._packed else "encoded",
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
            "storage": "packed" if self._packed else "encoded",
        }

    def __repr__(self) -> str:
        return (
            f"CompiledCorpus(strings={self.size}, "
            f"buckets={len(self._buckets)}, "
            f"lengths={self.min_length}..{self.max_length})"
        )
