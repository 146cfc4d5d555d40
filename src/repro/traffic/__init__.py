"""repro.traffic — open-loop traffic serving over the query service.

The layer between a request stream and :mod:`repro.service`: an
asyncio gateway (:class:`AsyncService`) accepting open-loop arrivals,
a normalized hot-query result cache (:class:`ResultCache`),
queue-depth load shedding ahead of the deadline ladder
(:class:`LoadShedder`) and per-shard worker pools
(:class:`ShardPools`). See docs/TRAFFIC.md for the contract.
"""

from repro.traffic.cache import CACHE_COUNTERS, ResultCache, cache_key
from repro.traffic.gateway import GATEWAY_COUNTERS, AsyncService
from repro.traffic.pools import (
    DEFAULT_BATCH_LIMIT,
    POOL_COUNTERS,
    POOL_KINDS,
    PoolTicket,
    ShardPools,
)
from repro.traffic.shedding import (
    SHED_ACTIONS,
    SHED_COUNTERS,
    DrainRateEstimator,
    LoadShedder,
    ShedDecision,
    Watermarks,
)

__all__ = [
    "AsyncService",
    "ResultCache",
    "cache_key",
    "LoadShedder",
    "Watermarks",
    "DrainRateEstimator",
    "ShedDecision",
    "ShardPools",
    "PoolTicket",
    "CACHE_COUNTERS",
    "GATEWAY_COUNTERS",
    "POOL_COUNTERS",
    "POOL_KINDS",
    "SHED_COUNTERS",
    "SHED_ACTIONS",
    "DEFAULT_BATCH_LIMIT",
]
