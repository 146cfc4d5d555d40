"""Dataset statistics — the numbers behind Table I of the paper.

:func:`describe` computes the properties Table I reports for each
dataset (count, alphabet size, length statistics) plus a few the
analysis in section 2.4 relies on (length distribution percentiles,
symbol frequencies).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class DatasetStats:
    """Summary statistics of a string dataset.

    Attributes mirror Table I's columns plus supporting detail.
    """

    count: int
    alphabet_size: int
    min_length: int
    max_length: int
    mean_length: float
    median_length: float
    total_symbols: int
    most_common_symbols: tuple[tuple[str, int], ...]

    def table_row(self, name: str, thresholds: Sequence[int]) -> str:
        """Render this dataset as one row of Table I."""
        k_values = ", ".join(str(k) for k in thresholds)
        return (
            f"{name:<12} {self.count:>10,} {self.alphabet_size:>9} "
            f"{self.max_length:>8} {k_values:>14}"
        )


def describe(strings: Sequence[str]) -> DatasetStats:
    """Compute :class:`DatasetStats` for ``strings``.

    An empty dataset yields all-zero statistics rather than raising, so
    the reporting layer can describe intermediate states.
    """
    if not strings:
        return DatasetStats(
            count=0, alphabet_size=0, min_length=0, max_length=0,
            mean_length=0.0, median_length=0.0, total_symbols=0,
            most_common_symbols=(),
        )
    lengths = sorted(len(s) for s in strings)
    symbol_counts: Counter[str] = Counter()
    for string in strings:
        symbol_counts.update(string)
    count = len(strings)
    total_symbols = sum(lengths)
    middle = count // 2
    if count % 2:
        median = float(lengths[middle])
    else:
        median = (lengths[middle - 1] + lengths[middle]) / 2.0
    return DatasetStats(
        count=count,
        alphabet_size=len(symbol_counts),
        min_length=lengths[0],
        max_length=lengths[-1],
        mean_length=total_symbols / count,
        median_length=median,
        total_symbols=total_symbols,
        most_common_symbols=tuple(symbol_counts.most_common(10)),
    )


def length_histogram(strings: Sequence[str],
                     bucket_width: int = 8) -> dict[range, int]:
    """Histogram of string lengths in fixed-width buckets.

    Returns a mapping from ``range(lo, hi)`` buckets to counts; useful
    for checking that generated datasets match the shapes in Table I.
    """
    if bucket_width < 1:
        raise ValueError(f"bucket_width must be positive, got {bucket_width}")
    histogram: dict[range, int] = {}
    if not strings:
        return histogram
    max_length = max(len(s) for s in strings)
    buckets = [
        range(lo, lo + bucket_width)
        for lo in range(0, max_length + 1, bucket_width)
    ]
    counts = [0] * len(buckets)
    for string in strings:
        counts[len(string) // bucket_width] += 1
    for bucket, bucket_count in zip(buckets, counts):
        histogram[bucket] = bucket_count
    return histogram


def adjacent_lcp(sorted_strings: Sequence[str]) -> list[int]:
    """Common-prefix length of each string with its predecessor.

    ``result[i]`` is the length of the longest common prefix of
    ``sorted_strings[i - 1]`` and ``sorted_strings[i]`` (``0`` for the
    first). Over a *sorted* list these lengths describe the whole
    prefix tree — string ``i`` adds ``len - result[i]`` symbols to it —
    which is what the flat-trie builder and the planner's trie-shape
    statistics read off them.

    >>> adjacent_lcp(["Berlin", "Bern", "Ulm"])
    [0, 3, 0]
    """
    result: list[int] = []
    previous = ""
    lcp = 0
    for string in sorted_strings:
        # Sorted neighbours tend to share about as much as the pair
        # before them: one slice compare skips that stretch at C speed.
        limit = min(len(previous), len(string))
        if lcp > limit:
            lcp = limit
        if previous[:lcp] != string[:lcp]:
            lcp = 0
        while lcp < limit and previous[lcp] == string[lcp]:
            lcp += 1
        result.append(lcp)
        previous = string
    return result
