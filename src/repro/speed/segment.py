"""Zero-copy mmap segments for compiled artifacts.

Compiling a corpus or a flat trie is the expensive step of every cold
start, and *pickling* one to process-pool workers multiplies its
resident memory by the worker count. A **segment** removes both costs:
the compiled artifact is serialized once into a versioned flat binary
file — a small JSON header describing ``numpy`` arrays, then the raw
array bytes at aligned offsets — and loaded back as ``mmap``-backed
views. Loading is metadata-only (the OS pages array bytes in lazily,
shared across every process that maps the file), so:

* cold start is near-instant — no re-encode, no re-bucket, no trie
  rebuild;
* N pool workers share ~1× corpus memory instead of N× — each worker
  opens the segment (see :class:`SegmentRef`) instead of unpickling a
  private copy.

File format (version :data:`SEGMENT_VERSION`)::

    bytes 0-3    magic  b"RSEG"
    bytes 4-7    format version, uint32 little-endian
    bytes 8-15   header length H, uint64 little-endian
    bytes 16-..  header: H bytes of UTF-8 JSON
                   {"kind": "corpus" | "flat-trie",
                    "meta": {...artifact-specific...},
                    "arrays": [{"name", "dtype", "shape", "offset",
                                "nbytes"}, ...]}
    then         each array's raw little-endian bytes at its
                 64-byte-aligned absolute ``offset``

A corpus segment holds each bucket's code and bit-packed matrices, the
``group_of`` symbol-group map and the group-major ``group_counts``
matrix the scan's bag-distance select reads (version 2; a version-1
file, which held per-bucket tracked-symbol frequencies, is refused).

Strings are stored as one concatenated UTF-8 blob plus an ``int64``
offsets array and decoded **on access** (:class:`LazyStrings`), so a
loaded artifact keeps no per-string Python objects until a match
actually needs one.

The public entry points are :func:`save_segment` / :func:`load_segment`
(dispatching on artifact type), the process-global :data:`segment_cache`
(keyed by absolute path + mtime + size, so a rewritten file is reloaded
automatically) and :class:`SegmentRef`, the picklable pointer the
executors ship to pool workers in place of the artifact itself.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import SegmentError

#: Current segment format version; bumped on any layout change.
SEGMENT_VERSION = 2

#: Leading magic bytes of every segment file.
SEGMENT_MAGIC = b"RSEG"

#: Array payloads start at multiples of this (covers any numpy dtype's
#: alignment and keeps rows cache-line friendly).
SEGMENT_ALIGN = 64

#: Artifact kinds a segment can hold.
SEGMENT_KINDS = ("corpus", "flat-trie")


class LazyStrings(Sequence):
    """A read-only string table decoding from a shared UTF-8 blob.

    ``blob`` is a ``uint8`` array (typically an ``mmap`` view) holding
    every string's UTF-8 bytes back to back; ``offsets`` is an
    ``int64`` array of ``count + 1`` boundaries. Strings materialize
    per access and are not cached — a match decodes its one string, a
    full iteration decodes each exactly once.
    """

    __slots__ = ("_blob", "_offsets")

    def __init__(self, blob: np.ndarray, offsets: np.ndarray) -> None:
        self._blob = blob
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        index = int(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"string index {index} out of range")
        start = int(self._offsets[index])
        end = int(self._offsets[index + 1])
        return self._blob[start:end].tobytes().decode("utf-8")

    def __repr__(self) -> str:
        return f"LazyStrings(count={len(self)})"


class IndexedStrings(Sequence):
    """A bucket's view of a :class:`LazyStrings` table via string ids."""

    __slots__ = ("_base", "_ids")

    def __init__(self, base: LazyStrings, ids: np.ndarray) -> None:
        self._base = base
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        return self._base[int(self._ids[int(index)])]

    def __repr__(self) -> str:
        return f"IndexedStrings(count={len(self)})"


def _string_table(strings) -> tuple[np.ndarray, np.ndarray]:
    """Encode a string sequence into (UTF-8 blob, int64 offsets)."""
    encoded = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    if encoded:
        offsets[1:] = np.cumsum([len(b) for b in encoded])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy()
    return blob, offsets


# ----------------------------------------------------------------------
# Writer / reader core
# ----------------------------------------------------------------------


def _write_segment(path: str | os.PathLike, kind: str, meta: dict,
                   arrays: dict[str, np.ndarray]) -> None:
    records = []
    blobs = []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        records.append({
            "name": name,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": 0,  # patched below
            "nbytes": int(array.nbytes),
        })
        blobs.append(array)
    header = {"kind": kind, "meta": meta, "arrays": records}

    # The header length shifts offsets, and offsets live in the header;
    # iterate until the layout fixes itself (the second pass converges —
    # offsets only grow with header size, monotonically).
    header_bytes = b""
    for _ in range(8):
        cursor = 16 + len(header_bytes)
        for record in records:
            cursor = (cursor + SEGMENT_ALIGN - 1) // SEGMENT_ALIGN \
                * SEGMENT_ALIGN
            record["offset"] = cursor
            cursor += record["nbytes"]
        candidate = json.dumps(header, separators=(",", ":")).encode("utf-8")
        if len(candidate) == len(header_bytes):
            header_bytes = candidate
            break
        header_bytes = candidate
    else:  # pragma: no cover - layout always converges in two passes
        raise SegmentError("segment header layout did not converge",
                           path=str(path))

    with open(path, "wb") as handle:
        handle.write(SEGMENT_MAGIC)
        handle.write(SEGMENT_VERSION.to_bytes(4, "little"))
        handle.write(len(header_bytes).to_bytes(8, "little"))
        handle.write(header_bytes)
        for record, array in zip(records, blobs):
            handle.seek(record["offset"])
            handle.write(array.tobytes())
        # Zero-byte arrays write nothing, yet sit at aligned offsets the
        # reader bounds-checks: end the file at the last record's end.
        handle.truncate(cursor)


def _read_segment(path: str | os.PathLike) -> tuple[dict, dict]:
    """Map a segment file; returns ``(header, arrays)`` with mmap views."""
    try:
        with open(path, "rb") as handle:
            prelude = handle.read(16)
            if len(prelude) < 16:
                raise SegmentError("file too short to be a segment",
                                   path=str(path))
            if prelude[:4] != SEGMENT_MAGIC:
                raise SegmentError(
                    f"bad magic {prelude[:4]!r}; not a segment file",
                    path=str(path))
            version = int.from_bytes(prelude[4:8], "little")
            if version != SEGMENT_VERSION:
                raise SegmentError(
                    f"segment format version {version} is not supported "
                    f"(this build reads version {SEGMENT_VERSION})",
                    path=str(path))
            header_len = int.from_bytes(prelude[8:16], "little")
            header_bytes = handle.read(header_len)
            if len(header_bytes) < header_len:
                raise SegmentError("truncated segment header",
                                   path=str(path))
    except OSError as error:
        raise SegmentError(f"cannot read segment: {error}",
                           path=str(path)) from error
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SegmentError(f"corrupted segment header: {error}",
                           path=str(path)) from error
    if header.get("kind") not in SEGMENT_KINDS:
        raise SegmentError(
            f"unknown segment kind {header.get('kind')!r}; expected one "
            f"of {SEGMENT_KINDS}", path=str(path))

    mapped = np.memmap(path, dtype=np.uint8, mode="r")
    arrays: dict[str, np.ndarray] = {}
    for record in header.get("arrays", ()):
        offset = record["offset"]
        nbytes = record["nbytes"]
        if offset + nbytes > mapped.size:
            raise SegmentError(
                f"array {record['name']!r} extends past end of file",
                path=str(path))
        view = mapped[offset:offset + nbytes].view(record["dtype"])
        arrays[record["name"]] = view.reshape(record["shape"])
    return header, arrays


# ----------------------------------------------------------------------
# CompiledCorpus <-> segment
# ----------------------------------------------------------------------


def _corpus_payload(corpus) -> tuple[dict, dict]:
    alphabet = corpus.alphabet
    strings = tuple(corpus.strings)
    sid = {string: index for index, string in enumerate(strings)}
    blob, offsets = _string_table(strings)

    lengths = []
    counts = []
    row_bytes = []
    codes_parts = []
    packed_parts = []
    sid_parts = []
    for bucket in corpus.buckets:
        bulk = bucket.packed
        lengths.append(bucket.length)
        counts.append(len(bucket))
        row_bytes.append(bulk.packed.shape[1])
        codes_parts.append(bulk.codes.reshape(-1))
        packed_parts.append(bulk.packed.reshape(-1))
        sid_parts.append(np.array([sid[s] for s in bucket.strings],
                                  dtype=np.int64))

    from repro.distance.packed import code_dtype

    dtype = code_dtype(alphabet) if alphabet is not None \
        else np.dtype(np.uint8)
    meta = {
        "alphabet": None if alphabet is None else {
            "name": alphabet.name, "symbols": alphabet.symbols},
        "total_strings": corpus.total_strings,
        "bucket_lengths": lengths,
        "bucket_counts": counts,
        "bucket_row_bytes": row_bytes,
    }
    arrays = {
        "strings_blob": blob,
        "strings_offsets": offsets,
        "codes": (np.concatenate(codes_parts) if codes_parts
                  else np.zeros(0, dtype=dtype)),
        "packed": (np.concatenate(packed_parts) if packed_parts
                   else np.zeros(0, dtype=np.uint8)),
        "group_of": np.array(corpus.group_of, dtype=np.uint8),
        "group_counts": corpus.group_counts,
        "sids": (np.concatenate(sid_parts) if sid_parts
                 else np.zeros(0, dtype=np.int64)),
    }
    return meta, arrays


def _corpus_from_segment(header: dict, arrays: dict, path: str):
    from repro.data.alphabet import Alphabet
    from repro.distance.packed import PackedBucket
    from repro.scan.corpus import CompiledCorpus

    meta = header["meta"]
    alphabet = None
    if meta["alphabet"] is not None:
        alphabet = Alphabet(meta["alphabet"]["name"],
                            meta["alphabet"]["symbols"])
    table = LazyStrings(arrays["strings_blob"], arrays["strings_offsets"])

    members = []
    packed = []
    code_cursor = bit_cursor = sid_cursor = 0
    codes_flat = arrays["codes"]
    packed_flat = arrays["packed"]
    sids_flat = arrays["sids"]
    for length, count, rb in zip(meta["bucket_lengths"],
                                 meta["bucket_counts"],
                                 meta["bucket_row_bytes"]):
        codes = codes_flat[code_cursor:code_cursor + count * length] \
            .reshape(count, length)
        code_cursor += count * length
        packed_rows = packed_flat[bit_cursor:bit_cursor + count * rb] \
            .reshape(count, rb)
        bit_cursor += count * rb
        members.append(IndexedStrings(
            table, sids_flat[sid_cursor:sid_cursor + count]))
        sid_cursor += count
        packed.append(PackedBucket(codes, packed_rows, length, alphabet))

    corpus = CompiledCorpus.__new__(CompiledCorpus)
    corpus._assemble(alphabet, table, meta["total_strings"], members,
                     packed, arrays["group_of"], arrays["group_counts"],
                     segment_path=os.path.abspath(path))
    return corpus


# ----------------------------------------------------------------------
# FlatTrie <-> segment
# ----------------------------------------------------------------------

_TRIE_INT_FIELDS = (
    "label_offsets", "label_codes", "child_offsets", "child_ids",
    "child_first", "sub_min", "sub_max", "terminal_count", "terminal_sid",
)


def _trie_payload(flat) -> tuple[dict, dict]:
    alphabet = flat.alphabet
    blob, offsets = _string_table(flat.strings)
    meta = {
        "alphabet": None if alphabet is None else {
            "name": alphabet.name, "symbols": alphabet.symbols},
        "tracked": flat.tracked_symbols,
        "case_insensitive": flat.case_insensitive_frequencies,
        "string_count": flat.string_count,
        "max_depth": flat.max_depth,
        "has_frequencies": flat.has_frequencies,
    }
    arrays = {
        "strings_blob": blob,
        "strings_offsets": offsets,
    }
    for field in _TRIE_INT_FIELDS:
        arrays[field] = np.asarray(getattr(flat, f"_{field}"),
                                   dtype=np.int64)
    if flat.has_frequencies:
        arrays["freq_min"] = np.asarray(flat._freq_min, dtype=np.int64)
        arrays["freq_max"] = np.asarray(flat._freq_max, dtype=np.int64)
    return meta, arrays


def _trie_from_segment(header: dict, arrays: dict, path: str):
    from repro.data.alphabet import Alphabet
    from repro.index.flat import FlatTrie

    meta = header["meta"]
    flat = FlatTrie.__new__(FlatTrie)
    alphabet = None
    if meta["alphabet"] is not None:
        alphabet = Alphabet(meta["alphabet"]["name"],
                            meta["alphabet"]["symbols"])
    flat._alphabet = alphabet
    flat._tracked = meta["tracked"]
    flat._case_insensitive = meta["case_insensitive"]
    flat._string_count = meta["string_count"]
    flat._max_depth = meta["max_depth"]
    for field in _TRIE_INT_FIELDS:
        setattr(flat, f"_{field}", arrays[field])
    flat._strings = LazyStrings(arrays["strings_blob"],
                                arrays["strings_offsets"])
    if meta["has_frequencies"]:
        flat._freq_min = arrays["freq_min"]
        flat._freq_max = arrays["freq_max"]
    else:
        flat._freq_min = None
        flat._freq_max = None
    flat._segment_path = os.path.abspath(path)
    return flat


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def save_segment(artifact, path: str | os.PathLike) -> str:
    """Serialize a compiled artifact to a segment file.

    ``artifact`` is a :class:`repro.scan.corpus.CompiledCorpus` or a
    :class:`repro.index.flat.FlatTrie`. Returns the absolute path
    written. The file is self-describing; reload it with
    :func:`load_segment`.
    """
    from repro.index.flat import FlatTrie
    from repro.scan.corpus import CompiledCorpus

    if isinstance(artifact, CompiledCorpus):
        kind = "corpus"
        meta, arrays = _corpus_payload(artifact)
    elif isinstance(artifact, FlatTrie):
        kind = "flat-trie"
        meta, arrays = _trie_payload(artifact)
    else:
        raise SegmentError(
            f"cannot save a {type(artifact).__name__} as a segment; "
            f"expected CompiledCorpus or FlatTrie")
    _write_segment(path, kind, meta, arrays)
    return os.path.abspath(path)


def load_segment(path: str | os.PathLike):
    """Load a segment back as its compiled artifact, mmap-backed.

    The returned object's array fields are views into the mapped file
    (zero-copy; the OS pages them in on demand and shares them across
    processes), its strings decode lazily on access, and its
    ``segment_path`` property points back at the file — which is what
    lets the batch executors ship a :class:`SegmentRef` to pool workers
    instead of pickling the artifact.

    Raises
    ------
    SegmentError
        On bad magic, an unsupported format version, an unknown kind,
        or a truncated/corrupted file.
    """
    header, arrays = _read_segment(path)
    if header["kind"] == "corpus":
        return _corpus_from_segment(header, arrays, str(path))
    return _trie_from_segment(header, arrays, str(path))


class SegmentCache:
    """A per-process cache of loaded segments, keyed by file identity.

    The key is ``(absolute path, mtime_ns, size)`` — overwriting a
    segment file invalidates its cache entry on the next access, and
    two callers asking for the same path share one mmap-backed
    artifact. This is what makes :class:`SegmentRef` resolution cheap:
    a pool worker maps each segment once, however many tasks arrive.
    """

    def __init__(self) -> None:
        self._entries: dict[str, tuple[tuple[int, int], object]] = {}

    def get(self, path: str | os.PathLike):
        """The loaded artifact for ``path``, reloading if the file changed."""
        key = os.path.abspath(path)
        try:
            stat = os.stat(key)
        except OSError as error:
            raise SegmentError(f"cannot stat segment: {error}",
                               path=key) from error
        stamp = (stat.st_mtime_ns, stat.st_size)
        entry = self._entries.get(key)
        if entry is not None and entry[0] == stamp:
            return entry[1]
        artifact = load_segment(key)
        self._entries[key] = (stamp, artifact)
        return artifact

    def invalidate(self, path: str | os.PathLike | None = None) -> None:
        """Drop one path's entry (or every entry with no argument)."""
        if path is None:
            self._entries.clear()
        else:
            self._entries.pop(os.path.abspath(path), None)

    def __len__(self) -> int:
        return len(self._entries)


#: The process-global cache :class:`SegmentRef` resolution goes through.
segment_cache = SegmentCache()


@dataclass(frozen=True)
class SegmentRef:
    """A picklable pointer to a segment file.

    The batch executors substitute one of these for a segment-backed
    corpus/trie when shipping tasks to a process pool: the pickle
    payload is just the path, and each worker resolves it through its
    own :data:`segment_cache` — mapping the file once per process
    instead of receiving a full pickled copy per task.
    """

    path: str

    def resolve(self):
        """The mmap-backed artifact (cached per process)."""
        return segment_cache.get(self.path)
