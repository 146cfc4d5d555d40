"""Dictionary compression: bit-packed strings (paper section 6).

The paper's first future-work item observes that a five-symbol DNA
alphabet needs only three bits per symbol, so strings can be stored far
more compactly and symbol comparisons touch fewer bits in total. This
module implements that idea for any alphabet:

* :func:`pack` converts a string into a :class:`PackedString`, an
  immutable value backed by a single Python integer holding
  ``bits_per_symbol`` bits per symbol.
* :func:`packed_edit_distance_bounded` runs the banded threshold kernel
  directly on the packed representation, decoding symbols on the fly
  with shifts and masks — no intermediate string is materialized.
* :func:`pack_bucket` is the bulk form: it packs a whole length bucket
  of equal-length strings into a :class:`PackedBucket` — one contiguous
  ``numpy`` code matrix (one row per string, one small unsigned int per
  symbol) for the vectorized kernels, plus the bit-packed words (the
  paper's 3-bit layout, row-major) as the canonical compressed storage
  the memory accounting reports.
"""

from __future__ import annotations

import numpy as np

from repro.data.alphabet import Alphabet
from repro.distance.banded import check_threshold, length_filter_passes


class PackedString:
    """A string stored as dense symbol codes inside one big integer.

    Supports ``len``, indexing (returning the integer symbol code),
    iteration, equality and hashing, so it can be used wherever the
    distance kernels accept a sequence of symbol codes.

    Build instances with :func:`pack`; decode with :meth:`decode`.
    """

    __slots__ = ("_bits", "_length", "_word", "_alphabet")

    def __init__(self, word: int, length: int, alphabet: Alphabet) -> None:
        self._word = word
        self._length = length
        self._alphabet = alphabet
        self._bits = alphabet.bits_per_symbol

    @property
    def alphabet(self) -> Alphabet:
        """The alphabet the symbol codes refer to."""
        return self._alphabet

    @property
    def bits_per_symbol(self) -> int:
        """Bits each symbol occupies (3 for the DNA alphabet)."""
        return self._bits

    @property
    def word(self) -> int:
        """The raw packed integer (symbol 0 in the lowest bits)."""
        return self._word

    @property
    def storage_bits(self) -> int:
        """Total bits of payload: ``len(self) * bits_per_symbol``."""
        return self._length * self._bits

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> int:
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range [0, {self._length})")
        mask = (1 << self._bits) - 1
        return (self._word >> (index * self._bits)) & mask

    def __iter__(self):
        word = self._word
        mask = (1 << self._bits) - 1
        for _ in range(self._length):
            yield word & mask
            word >>= self._bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedString):
            return NotImplemented
        return (
            self._word == other._word
            and self._length == other._length
            and self._alphabet == other._alphabet
        )

    def __hash__(self) -> int:
        return hash((self._word, self._length, self._alphabet.name))

    def __repr__(self) -> str:
        preview = self.decode()
        if len(preview) > 24:
            preview = preview[:21] + "..."
        return f"PackedString({preview!r}, alphabet={self._alphabet.name!r})"

    def decode(self) -> str:
        """Recover the original text."""
        return self._alphabet.decode(tuple(self))


def pack(text: str, alphabet: Alphabet) -> PackedString:
    """Pack ``text`` into a :class:`PackedString` under ``alphabet``.

    Raises
    ------
    AlphabetError
        If ``text`` contains symbols outside the alphabet.

    Examples
    --------
    >>> from repro.data.alphabet import DNA_ALPHABET
    >>> packed = pack("ACGT", DNA_ALPHABET)
    >>> packed.storage_bits
    12
    >>> packed.decode()
    'ACGT'
    """
    bits = alphabet.bits_per_symbol
    word = 0
    for position, code in enumerate(alphabet.encode(text)):
        word |= code << (position * bits)
    return PackedString(word, len(text), alphabet)


def packed_edit_distance_bounded(x: PackedString, y: PackedString,
                                 k: int) -> int | None:
    """Bounded edit distance computed directly on packed operands.

    Symbol codes are extracted with shift/mask as the band advances; the
    result is identical to running the banded kernel on the decoded
    strings (a property test enforces this).

    Raises
    ------
    ValueError
        If the operands were packed under different alphabets — their
        symbol codes would not be comparable.
    """
    check_threshold(k)
    if x.alphabet != y.alphabet:
        raise ValueError(
            f"cannot compare strings packed under different alphabets: "
            f"{x.alphabet.name!r} vs {y.alphabet.name!r}"
        )
    len_x = len(x)
    len_y = len(y)
    if not length_filter_passes(len_x, len_y, k):
        return None
    if len_x == 0:
        return len_y if len_y <= k else None
    if len_y == 0:
        return len_x if len_x <= k else None
    if k == 0:
        return 0 if x == y else None

    bits = x.bits_per_symbol
    symbol_mask = (1 << bits) - 1
    x_word = x.word
    y_word = y.word

    infinity = k + 1
    previous = [0] * (len_y + 1)
    current = [0] * (len_y + 1)
    band_hi0 = min(len_y, k)
    for j in range(band_hi0 + 1):
        previous[j] = j
    if band_hi0 + 1 <= len_y:
        previous[band_hi0 + 1] = infinity

    for i in range(1, len_x + 1):
        lo = max(1, i - k)
        hi = min(len_y, i + k)
        current[lo - 1] = i if lo == 1 else infinity
        x_symbol = (x_word >> ((i - 1) * bits)) & symbol_mask
        row_minimum = infinity
        for j in range(lo, hi + 1):
            y_symbol = (y_word >> ((j - 1) * bits)) & symbol_mask
            if x_symbol == y_symbol:
                cost = previous[j - 1]
            else:
                above = previous[j] if j < i + k else infinity
                cost = 1 + min(above, current[j - 1], previous[j - 1])
                if cost > infinity:
                    cost = infinity
            current[j] = cost
            if cost < row_minimum:
                row_minimum = cost
        if row_minimum > k:
            return None
        if hi + 1 <= len_y:
            current[hi + 1] = infinity
        previous, current = current, previous

    result = previous[len_y]
    return result if result <= k else None


class PackedBucket:
    """A whole length bucket of equal-length strings, packed as arrays.

    Two parallel representations of the same symbols:

    ``codes``
        ``(count, length)`` matrix of dense symbol codes (``uint8``;
        ``uint16`` or ``uint32`` for alphabets wider than 256 or
        65,536 symbols). This is what the vectorized kernels gather
        from — one fancy-indexing ``Peq`` lookup per text column.
    ``packed``
        ``(count, row_bytes)`` matrix of the bit-packed words: each row
        is the string's symbols at ``bits_per_symbol`` bits each,
        symbol 0 in the lowest bits (the :class:`PackedString` layout,
        so ``packed_string(i)`` is a cheap reinterpretation). For DNA's
        3-bit codes this is the ~2.6x compression the paper's
        section 6 anticipates; it is the number the memory accounting
        reports as the corpus' resident payload.

    Build instances with :func:`pack_bucket`.
    """

    __slots__ = ("codes", "packed", "_length", "_alphabet")

    def __init__(self, codes: np.ndarray, packed: np.ndarray,
                 length: int, alphabet: Alphabet) -> None:
        self.codes = codes
        self.packed = packed
        self._length = length
        self._alphabet = alphabet

    @property
    def alphabet(self) -> Alphabet:
        """The alphabet the symbol codes refer to."""
        return self._alphabet

    @property
    def length(self) -> int:
        """The shared string length."""
        return self._length

    @property
    def bits_per_symbol(self) -> int:
        """Bits each symbol occupies in :attr:`packed`."""
        return self._alphabet.bits_per_symbol

    @property
    def count(self) -> int:
        """Number of strings in the bucket."""
        return self.codes.shape[0]

    def __len__(self) -> int:
        return self.codes.shape[0]

    @property
    def codes_nbytes(self) -> int:
        """Bytes of the kernel-facing code matrix (1, 2 or 4 per symbol)."""
        return self.codes.nbytes

    @property
    def packed_nbytes(self) -> int:
        """Bytes of the bit-packed payload (``bits_per_symbol`` each)."""
        return self.packed.nbytes

    def row_codes(self, index: int) -> tuple[int, ...]:
        """One string's symbol codes as a plain tuple."""
        return tuple(int(code) for code in self.codes[index])

    def packed_string(self, index: int) -> PackedString:
        """Row ``index`` reinterpreted as a :class:`PackedString`.

        The row's bytes *are* the packed word in little-endian order,
        so this is a byte copy plus one ``int.from_bytes`` — no
        re-encoding.
        """
        word = int.from_bytes(self.packed[index].tobytes(), "little")
        return PackedString(word, self._length, self._alphabet)

    def decode(self, index: int) -> str:
        """Recover one original string."""
        return self._alphabet.decode(self.row_codes(index))

    def __repr__(self) -> str:
        return (
            f"PackedBucket(count={len(self)}, length={self._length}, "
            f"bits={self.bits_per_symbol}, "
            f"alphabet={self._alphabet.name!r})"
        )


def code_dtype(alphabet: Alphabet) -> np.dtype:
    """The narrowest unsigned dtype that holds the alphabet's codes."""
    if alphabet.size <= 1 << 8:
        return np.dtype(np.uint8)
    if alphabet.size <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


def pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Bit-pack a ``(count, length)`` code matrix row by row.

    Each output row holds ``length * bits`` payload bits, symbol 0 in
    the lowest bits of byte 0 (LSB-first within each byte), padded with
    zero bits to a whole byte — exactly the :class:`PackedString` word
    serialized little-endian.
    """
    if codes.size == 0:
        return np.zeros((codes.shape[0], 0), dtype=np.uint8)
    shifts = np.arange(bits, dtype=codes.dtype)
    # (count, length, bits) bit planes, LSB first, flattened row-major:
    # the bit stream PackedString defines.
    bit_planes = (
        (codes[:, :, None] >> shifts) & 1
    ).astype(np.uint8).reshape(codes.shape[0], -1)
    return np.packbits(bit_planes, axis=1, bitorder="little")


def unpack_codes(packed: np.ndarray, length: int, bits: int,
                 dtype: np.dtype) -> np.ndarray:
    """Invert :func:`pack_codes` back to a ``(count, length)`` matrix."""
    count = packed.shape[0]
    if length == 0 or count == 0:
        return np.zeros((count, length), dtype=dtype)
    bit_planes = np.unpackbits(
        packed, axis=1, count=length * bits, bitorder="little"
    ).reshape(count, length, bits).astype(dtype)
    shifts = np.arange(bits, dtype=dtype)
    return (bit_planes << shifts).sum(axis=2, dtype=dtype)


def _code_points(text: str) -> np.ndarray:
    """``text``'s Unicode code points as one ``uint32`` array."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                         dtype=np.uint32)


def pack_bucket(strings, alphabet: Alphabet) -> PackedBucket:
    """Pack equal-length ``strings`` into a :class:`PackedBucket`.

    The bucket is encoded in one pass: the code points of the joined
    strings index a lookup table that maps each alphabet symbol to its
    code (alphabet order, whatever the code-point order) and every
    other code point to ``-1``.

    Raises
    ------
    ReproError
        If the strings do not all share one length.
    AlphabetError
        If a string contains symbols outside the alphabet.
    """
    from repro.exceptions import ReproError

    strings = tuple(strings)
    length = len(strings[0]) if strings else 0
    for position, string in enumerate(strings):
        if len(string) != length:
            raise ReproError(
                f"pack_bucket needs equal-length strings: row "
                f"{position} has length {len(string)}, expected {length}"
            )
    points = _code_points("".join(strings))
    symbols = _code_points(alphabet.symbols)
    top = max(int(symbols.max()), int(points.max()) if points.size else 0)
    lookup = np.full(top + 1, -1, dtype=np.int32)
    lookup[symbols] = np.arange(len(symbols))
    flat = lookup[points]
    if points.size and flat.min() < 0:
        # Re-encode the first offending string: raises naming it.
        alphabet.encode(strings[int(np.argmax(flat < 0)) // length])
    codes = flat.astype(code_dtype(alphabet)).reshape(len(strings), length)
    packed = pack_codes(codes, alphabet.bits_per_symbol)
    return PackedBucket(codes, packed, length, alphabet)


def storage_savings(text: str, alphabet: Alphabet,
                    baseline_bits_per_symbol: int = 8) -> float:
    """Fraction of storage saved by packing versus a byte-per-symbol layout.

    For DNA (3 bits vs 8) this is 0.625, the compression the paper's
    future-work section anticipates.
    """
    if not text:
        return 0.0
    packed_bits = len(text) * alphabet.bits_per_symbol
    baseline_bits = len(text) * baseline_bits_per_symbol
    return 1.0 - packed_bits / baseline_bits
