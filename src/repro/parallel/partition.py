"""Static query partitioning for fixed worker pools.

The paper's one-thread-per-core strategy needs "a balanced distribution
of queries on the different cores ... through a simple partitioning"
(section 3.6). Two classic schemes are provided; both preserve overall
result order when chunk outputs are re-concatenated by chunk index.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from repro.exceptions import ParallelismError

T = TypeVar("T")


def balanced_chunks(items: Sequence[T], chunks: int) -> list[list[T]]:
    """Split ``items`` into ``chunks`` contiguous, near-equal runs.

    Sizes differ by at most one; empty chunks appear only when there are
    more chunks than items.

    >>> balanced_chunks([1, 2, 3, 4, 5], 2)
    [[1, 2, 3], [4, 5]]
    """
    if chunks < 1:
        raise ParallelismError(f"chunks must be positive, got {chunks}")
    base = len(items) // chunks
    remainder = len(items) % chunks
    result: list[list[T]] = []
    start = 0
    for index in range(chunks):
        size = base + (1 if index < remainder else 0)
        result.append(list(items[start:start + size]))
        start += size
    return result


def round_robin_chunks(items: Sequence[T], chunks: int) -> list[list[T]]:
    """Deal ``items`` round-robin over ``chunks`` lists.

    Interleaving spreads expensive neighbouring queries (query files are
    often sorted!) across workers better than contiguous runs.

    >>> round_robin_chunks([1, 2, 3, 4, 5], 2)
    [[1, 3, 5], [2, 4]]
    """
    if chunks < 1:
        raise ParallelismError(f"chunks must be positive, got {chunks}")
    result: list[list[T]] = [[] for _ in range(chunks)]
    for index, item in enumerate(items):
        result[index % chunks].append(item)
    return result
