"""The hot-query result cache: normalized keys, bounded LRU, TTL.

Open-loop traffic is never uniform — real query streams are heavily
skewed (a few hot misspellings account for most submits), so answering
the second occurrence of a hot query from memory buys more than any
kernel optimization can. :class:`ResultCache` memoizes **complete**
:class:`repro.service.ServiceResult` values:

* **normalized keys** — the key is derived from the request's
  *canonical* identity (:meth:`repro.core.request.SearchRequest.canonical_key`)
  with the planner policy dropped: a complete answer is the exact
  ``<= k`` match set, which is strategy-independent by the library's
  verification contract, so ``plan=PlannerPolicy(strategy="compiled")``
  and ``plan=None`` share one entry. The deadline is execution
  context, never part of the key — a cached complete answer satisfies
  any deadline, because it costs one dictionary lookup.
* **bounded LRU + TTL** — at most ``maxsize`` entries, least recently
  *used* evicted first; an entry older than ``ttl_seconds`` is dropped
  at lookup time (counted as an expiration *and* a miss). The clock is
  injectable so tests control time.
* **honest contents** — only results with ``result.complete`` (exact
  full answers: status ``complete`` or ``degraded``) are stored.
  Partial and candidate results depend on how much deadline their
  submit had left; caching them would replay one caller's bad luck to
  every later caller.
* **counters** — every operation moves a ``service.cache.*`` counter
  (:data:`CACHE_COUNTERS`), and the gateway mirrors them plus a
  ``service.cache.size`` gauge into its report, so hit rates are
  observable with the same machinery as every other series.
* **invalidation hooks** — :meth:`ResultCache.invalidate` drops every
  entry whose result mentions a given dataset string (or everything,
  with no argument). The live-corpus write path drives it: a gateway
  over a mutable :class:`repro.live.Corpus` subscribes to its
  mutation events and invalidates on every insert/delete, so a hit
  is never staler than the corpus (see ``docs/LIVE.md``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Hashable

from repro.core.request import SearchRequest
from repro.exceptions import ReproError

#: Counters the cache maintains (``service.cache.*`` namespace; the
#: gateway folds them into its report's open counters section).
CACHE_COUNTERS = (
    "service.cache.hits",
    "service.cache.misses",
    "service.cache.stores",
    "service.cache.skips",
    "service.cache.evictions",
    "service.cache.expirations",
    "service.cache.invalidations",
)

#: Default entry bound — small enough to stay cache-friendly, large
#: enough to hold any realistic hot set.
DEFAULT_MAXSIZE = 1024


def cache_key(request: SearchRequest) -> Hashable:
    """The normalized cache key of one single-query request.

    The canonical request identity minus the planner policy (complete
    answers are strategy-independent). Options that could change the
    match set stay in the key via the canonical form's options field.
    """
    query, k, _policy, options = request.canonical_key()
    return (query, k, options)


class ResultCache:
    """A bounded, TTL-aware LRU of complete service results.

    Parameters
    ----------
    maxsize:
        Maximum entries (must be positive); the LRU bound.
    ttl_seconds:
        Entry lifetime; ``None`` disables expiry. An expired entry is
        dropped (and counted) the first time it is looked up.
    clock:
        Injectable monotonic clock, for deterministic TTL tests.

    Examples
    --------
    >>> from repro.service.service import ServiceResult
    >>> cache = ResultCache(maxsize=2)
    >>> request = SearchRequest("Berlino", 2)
    >>> result = ServiceResult(query="Berlino", k=2, status="complete",
    ...                        matches=(), verified=True, plan="flat",
    ...                        attempts=1)
    >>> cache.put(request, result)
    True
    >>> cache.get(request) is result
    True
    >>> cache.counters_snapshot()["service.cache.hits"]
    1
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE, *,
                 ttl_seconds: float | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if maxsize < 1:
            raise ReproError(
                f"cache maxsize must be positive, got {maxsize}"
            )
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ReproError(
                f"ttl_seconds must be positive (or None), got "
                f"{ttl_seconds}"
            )
        self._maxsize = maxsize
        self._ttl = ttl_seconds
        self._clock = clock
        # key -> (result, stored_at)
        self._entries: OrderedDict[Hashable, tuple] = OrderedDict()
        self._lock = threading.Lock()
        self._counters = dict.fromkeys(CACHE_COUNTERS, 0)

    @property
    def maxsize(self) -> int:
        """The configured LRU bound."""
        return self._maxsize

    @property
    def ttl_seconds(self) -> float | None:
        """The configured entry lifetime (``None`` = no expiry)."""
        return self._ttl

    def __len__(self) -> int:
        return len(self._entries)

    def counters_snapshot(self) -> dict[str, int]:
        """Cumulative ``service.cache.*`` counters since construction."""
        with self._lock:
            return dict(self._counters)

    # ----------------------------------------------------------------

    def get(self, request: SearchRequest):
        """The cached complete result, or ``None`` (a countable miss).

        A hit refreshes the entry's LRU position but not its TTL age —
        a stale-but-hot answer still expires on schedule.
        """
        key = cache_key(request)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._counters["service.cache.misses"] += 1
                return None
            result, stored_at = entry
            if self._ttl is not None \
                    and self._clock() - stored_at >= self._ttl:
                del self._entries[key]
                self._counters["service.cache.expirations"] += 1
                self._counters["service.cache.misses"] += 1
                return None
            self._entries.move_to_end(key)
            self._counters["service.cache.hits"] += 1
            return result

    def put(self, request: SearchRequest, result) -> bool:
        """Store a complete result; returns whether it was stored.

        Non-complete results (partials, candidate sets) are refused —
        counted under ``service.cache.skips`` — because their contents
        depend on the submitting caller's deadline, not the query.
        """
        if not getattr(result, "complete", False):
            with self._lock:
                self._counters["service.cache.skips"] += 1
            return False
        key = cache_key(request)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (result, self._clock())
            self._counters["service.cache.stores"] += 1
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._counters["service.cache.evictions"] += 1
        return True

    # ----------------------------------------------------------------

    def invalidate(self, string: str | None = None) -> int:
        """Drop entries whose answer could involve ``string``.

        The hook the live-corpus write path calls on insert or
        delete (:meth:`repro.traffic.AsyncService` wires it to the
        corpus's mutation events): with a ``string``, every cached
        result that matched it is dropped (an insert can only *add*
        matches, so conservative callers pass ``None`` to drop
        everything); returns how many entries were removed.
        """
        with self._lock:
            if string is None:
                removed = len(self._entries)
                self._entries.clear()
            else:
                doomed = [
                    key for key, (result, _) in self._entries.items()
                    if any(match.string == string
                           for match in result.matches)
                ]
                for key in doomed:
                    del self._entries[key]
                removed = len(doomed)
            self._counters["service.cache.invalidations"] += removed
        return removed
