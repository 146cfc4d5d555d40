"""Degradation plans: the rungs of the service's fallback ladder.

A resilient service does not have one way to answer a query — it has an
ordered ladder of plans, each cheaper (or more robust) than the one
above, and walks down when a rung fails or its deadline expires:

1. **flat** — the compiled flat-trie index, the fastest exact path in
   the index regime (the ``indexed`` strategy's searcher);
2. **compiled** — the compiled-corpus batch scan, exact and immune to
   trie-shaped pathologies (deep common prefixes, huge alphabets);
3. **filter-only** — the last resort: a length-filter-only pass at
   ``k`` that returns *unverified candidates*. It never computes an
   edit distance, costs O(corpus) integer comparisons, and by design
   ignores the deadline — the bottom rung must always produce an
   answer, and its cost is bounded and tiny.

Every plan returns a :class:`PlanResult` that says whether its matches
are *verified* (true edit distances, subset of the exact answer) or
mere candidates (superset guarantees only). The service surfaces that
flag untouched so a caller can never mistake a candidate set for a
verified one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.deadline import Budget, Deadline
from repro.core.result import Match
from repro.service.sharding import SHARD_PLAN_KINDS, ShardedCorpus

__all__ = [
    "PlanResult",
    "BackendPlan",
    "FilterOnlyPlan",
    "default_ladder",
]


@dataclass(frozen=True)
class PlanResult:
    """One plan's answer.

    Attributes
    ----------
    plan:
        The producing plan's name.
    matches:
        Sorted, deduplicated matches.
    verified:
        ``True`` when every match carries its exact edit distance and
        the set is exactly the ``<= k`` answer; ``False`` for
        candidate sets, whose ``distance`` fields are lower bounds.
    """

    plan: str
    matches: tuple[Match, ...]
    verified: bool


@dataclass(frozen=True)
class BackendPlan:
    """An exact rung: one shard-plan kind run over the sharded corpus.

    ``kind`` is one of :data:`repro.service.sharding.SHARD_PLAN_KINDS`,
    the rungs of :data:`repro.core.searcher.BACKENDS`.
    Raises :class:`repro.exceptions.DeadlineExceeded` (with merged
    per-shard partials) when the shared deadline expires.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in SHARD_PLAN_KINDS:
            from repro.exceptions import ReproError

            raise ReproError(
                f"unknown backend plan kind {self.kind!r}; expected "
                f"one of {SHARD_PLAN_KINDS}"
            )

    @property
    def name(self) -> str:
        return self.kind

    def run(self, corpus: ShardedCorpus, query: str, k: int,
            deadline: Deadline | Budget | None) -> PlanResult:
        matches = corpus.search(query, k, plan=self.kind,
                                deadline=deadline)
        return PlanResult(plan=self.name, matches=matches, verified=True)


@dataclass(frozen=True)
class FilterOnlyPlan:
    """The bottom rung: length filtering, no verification.

    Admits every dataset string whose length differs from the query's
    by at most ``k`` — a sound *superset* of the exact answer (length
    difference lower-bounds edit distance). The reported ``distance``
    of each candidate is its length-difference lower bound, not an
    edit distance.

    Deliberately deadline-blind: it is the plan of last resort, runs in
    O(corpus) integer comparisons, and must always return.
    """

    @property
    def name(self) -> str:
        return "filter-only"

    def run(self, corpus: ShardedCorpus, query: str, k: int,
            deadline: Deadline | Budget | None) -> PlanResult:
        length = len(query)
        candidates: dict[str, int] = {}
        for string in corpus.strings:
            gap = len(string) - length
            if gap < 0:
                gap = -gap
            if gap <= k and string not in candidates:
                candidates[string] = gap
        matches = tuple(sorted(
            Match(string, gap) for string, gap in candidates.items()
        ))
        return PlanResult(plan=self.name, matches=matches, verified=False)


def default_ladder() -> tuple[BackendPlan, BackendPlan, FilterOnlyPlan]:
    """The standard three-rung ladder: flat → compiled → filter-only."""
    return (BackendPlan("flat"), BackendPlan("compiled"),
            FilterOnlyPlan())
