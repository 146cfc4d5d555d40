"""A small bounded LRU cache for memoizing query results.

Competition workloads repeat queries (users retype the same misspelled
city; read sets contain duplicated fragments), so a bounded map from
``(query, k)`` to the finished result row turns the second occurrence
into a dictionary lookup. The cache is thread-safe — parallel runners
share one executor — and deliberately tiny: no TTLs, no weak refs, just
ordered eviction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

from repro.exceptions import ReproError

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A bounded mapping that evicts the least-recently-used entry.

    Parameters
    ----------
    maxsize:
        Maximum number of entries; must be positive. (A disabled cache
        is represented by *not having one*, see
        :class:`repro.core.batch.BatchExecutor`.)

    Examples
    --------
    >>> cache = LRUCache(maxsize=2)
    >>> cache.put("a", 1); cache.put("b", 2)
    >>> cache.get("a")
    1
    >>> cache.put("c", 3)          # evicts "b", the least recently used
    >>> cache.get("b") is None
    True
    >>> sorted(cache.keys())
    ['a', 'c']
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ReproError(
                f"LRU cache size must be at least 1, got {maxsize}"
            )
        self._maxsize = maxsize
        self._entries: OrderedDict[K, V] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def maxsize(self) -> int:
        """The configured capacity."""
        return self._maxsize

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: K) -> V | None:
        """The cached value, refreshed as most recent; ``None`` if absent."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: K, value: V) -> None:
        """Insert (or refresh) an entry, evicting the oldest if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)

    def keys(self) -> list[K]:
        """A snapshot of the cached keys, oldest first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __getstate__(self) -> dict:
        # Locks cannot cross process boundaries; workers get a cold,
        # private cache, which is only ever a performance no-op.
        state = self.__dict__.copy()
        del state["_lock"]
        state["_entries"] = OrderedDict()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
