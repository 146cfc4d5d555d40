"""Memory footprints: what each structure costs to hold in RAM.

The paper motivates both compression (section 4.2) and the PETER
design it builds on (section 2.3: "very long suffixes are stored in a
file, in order to hold the tree in main memory") by memory pressure.
This module measures the deep in-memory size of every structure the
library offers, so the time/space trade-off behind those decisions is
visible.

``deep_sizeof`` walks the object graph with :func:`sys.getsizeof`,
deduplicating shared objects by identity — which is precisely what
makes DAWG suffix sharing measurable. ``numpy`` arrays are handled
specially: an owning array counts header plus buffer, a view counts
its header and attributes the buffer to its base (counted once), and
an ``mmap``-backed array counts headers only — the buffer lives in the
page cache, not on this process's heap, which is exactly the segment
story :func:`measure_compiled_footprints` quantifies.
"""

from __future__ import annotations

import sys
import tracemalloc
from time import perf_counter
from typing import Any

import numpy as np

from repro.index.bktree import bktree_from
from repro.index.compressed import CompressedTrie
from repro.index.dawg import Dawg
from repro.index.qgram_index import QGramIndex
from repro.index.trie import PrefixTrie

#: Attribute-bearing objects are traversed through these hooks.
_ATOMIC = (int, float, complex, bool, bytes, str, type(None))


def deep_sizeof(root: Any) -> int:
    """Total bytes of ``root`` and everything reachable from it.

    Shared sub-objects (e.g. DAWG suffix states, interned strings) are
    counted once; atomic values are counted per occurrence via their
    container slots plus one object header each when distinct.
    """
    seen: set[int] = set()
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        identity = id(obj)
        if identity in seen:
            continue
        seen.add(identity)
        total += sys.getsizeof(obj)
        if isinstance(obj, _ATOMIC):
            continue
        if isinstance(obj, np.ndarray):
            # getsizeof already includes the buffer for an owning
            # array and only the header for a view; chase the base so
            # a shared buffer is charged exactly once. An mmap base
            # (np.memmap) costs its small object header, never the
            # mapped bytes — those are page cache, not heap.
            if obj.base is not None:
                stack.append(obj.base)
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            if hasattr(obj, "__dict__"):
                stack.append(obj.__dict__)
            slots = getattr(type(obj), "__slots__", ())
            for slot in slots:
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
    return total


def format_bytes(size: int) -> str:
    """Human-friendly byte count.

    >>> format_bytes(2048)
    '2.0 KiB'
    """
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            if unit == "B":
                return f"{int(value)} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1024
    raise AssertionError("unreachable")


def measure_footprints(strings: list[str]) -> dict[str, int]:
    """Deep sizes (bytes) of the raw data and every index over it."""
    return {
        "raw strings (list)": deep_sizeof(list(strings)),
        "prefix trie": deep_sizeof(PrefixTrie(strings)),
        "compressed trie": deep_sizeof(CompressedTrie(strings)),
        "compressed trie + freq vectors": deep_sizeof(
            CompressedTrie(strings, tracked_symbols="AEIOU")
        ),
        "DAWG": deep_sizeof(Dawg(strings)),
        "inverted q-gram index": deep_sizeof(QGramIndex(strings, q=2)),
        "BK-tree": deep_sizeof(bktree_from(strings)),
    }


def measure_flat_build(strings: list[str]) -> dict[str, float]:
    """What constructing the flat trie costs, beside what it holds.

    ``build_seconds`` is timed with tracing off; ``build_peak_bytes``
    is the ``tracemalloc`` peak of a second build, transients included;
    ``size_bytes`` is the deep size of the finished trie.
    """
    from repro.index.flat import FlatTrie

    started = perf_counter()
    FlatTrie(strings)
    seconds = perf_counter() - started
    tracemalloc.start()
    try:
        flat = FlatTrie(strings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"build_seconds": seconds, "build_peak_bytes": peak,
            "size_bytes": deep_sizeof(flat)}


def measure_compiled_footprints(
        strings: list[str], *, segment_path: str | None = None
) -> dict[str, int]:
    """Deep sizes (bytes) of the compiled scan/index artifacts.

    Measures the raw-speed layer's storage ladder: the compiled corpus
    (``numpy`` buckets), the flat trie — and, when ``segment_path`` is
    given, the same corpus saved there and mmap-loaded back, whose
    arrays cost this process nothing beyond object headers.
    """
    from repro.index.flat import FlatTrie
    from repro.scan.corpus import CompiledCorpus

    corpus = CompiledCorpus(strings)
    sizes = {
        "raw strings (list)": deep_sizeof(list(strings)),
        "compiled corpus": deep_sizeof(corpus),
        "flat trie": deep_sizeof(FlatTrie(strings)),
    }
    if segment_path is not None:
        from repro.speed import load_segment, save_segment

        save_segment(corpus, segment_path)
        sizes["corpus segment (mmap heap cost)"] = deep_sizeof(
            load_segment(segment_path)
        )
    return sizes


def render_compiled_footprints(strings: list[str], label: str, *,
                               segment_path: str | None = None) -> str:
    """Text report of compiled-artifact memory footprints."""
    from repro.scan.corpus import CompiledCorpus

    sizes = measure_compiled_footprints(strings,
                                        segment_path=segment_path)
    raw = sizes["raw strings (list)"]
    lines = [
        f"Compiled-artifact footprints over {len(strings):,} "
        f"{label} strings",
        "-" * 60,
    ]
    for name, size in sizes.items():
        ratio = size / raw if raw else 0.0
        lines.append(
            f"{name:<34} {format_bytes(size):>10}   {ratio:>5.1f}x raw"
        )
    profile = CompiledCorpus(strings).storage_profile()
    lines.append(
        f"packed code storage: {format_bytes(profile['packed_bytes'])} "
        f"vs {format_bytes(profile['byte_code_bytes'])} byte codes "
        f"({profile['packed_reduction']:.2f}x reduction)"
    )
    return "\n".join(lines)


def render_footprints(strings: list[str], label: str) -> str:
    """Text report of index memory footprints for one dataset."""
    sizes = measure_footprints(strings)
    build = measure_flat_build(strings)
    sizes["flat trie"] = build["size_bytes"]
    raw = sizes["raw strings (list)"]
    lines = [
        f"Memory footprints over {len(strings):,} {label} strings",
        "-" * 60,
    ]
    for name, size in sizes.items():
        ratio = size / raw if raw else 0.0
        lines.append(
            f"{name:<34} {format_bytes(size):>10}   {ratio:>5.1f}x raw"
        )
    lines.append(
        f"{'flat trie build':<34} "
        f"{format_bytes(build['build_peak_bytes']):>10}   peak, "
        f"{build['build_seconds']:.2f} s"
    )
    return "\n".join(lines)
