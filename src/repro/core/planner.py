"""Cost-model query planner: ``backend="auto"`` as a calibrated decision.

The paper's whole result is that the scan-vs-index winner flips with
string length, alphabet size, threshold ``k`` and corpus size — a
*runtime* property, not a configuration constant. This module turns the
engine's old one-shot heuristic into a Postgres-style cost-based
planner:

* :class:`CostProfile` — per-unit time constants (seconds per candidate
  touched, per trie node visited, per kernel call, per vector-kernel
  row), fitted offline by :func:`calibrate` and persisted as a
  versioned JSON profile.
* :func:`collect_statistics` / :class:`CorpusStatistics` — the ANALYZE
  pass: an exact length histogram (with prefix sums, so the ±k length
  window is an exact candidate count, not a guess), alphabet size and
  the trie's node-per-depth profile.
* :class:`Planner` — scores the three execution strategies the stack
  runs (sequential scan, compiled batch scan, flat trie) for a
  request's shape (query lengths, ``k``, batch size) and
  picks the cheapest; :meth:`Planner.observe_window` feeds executed
  windows back into per-``(strategy, k)`` EWMA corrections so
  estimates track the actual hardware.
* :class:`QueryPlan` — the ``EXPLAIN`` output: the chosen strategy,
  every per-strategy cost estimate with its work breakdown, and the
  statistics that drove the decision. Engines serialize it into the
  report's additive ``plan`` section.
* :class:`PlannerPolicy` — the request-level spelling of "force this
  strategy" or "choose among these".

Examples
--------
>>> stats = collect_statistics(["Berlin", "Bern", "Ulm"])
>>> (stats.count, stats.trie_nodes)
(3, 10)
>>> planner = Planner(stats)
>>> plan = planner.plan(length=6, k=1)
>>> plan.strategy in STRATEGIES
True
>>> plan.estimates[0].cost == min(e.cost for e in plan.estimates)
True
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Sequence

from repro.data.stats import adjacent_lcp
from repro.exceptions import ReproError

#: The execution strategies the planner scores — exactly the ones
#: :class:`repro.core.engine.SearchEngine` can run. ``"indexed"`` is
#: the compiled flat trie.
STRATEGIES = ("sequential", "compiled", "indexed")

#: Stamped into persisted profiles; bump on breaking constant renames.
PROFILE_VERSION = 1

#: Columns the banded kernel touches before the early abort fires, per
#: unit of (k + 1). Random non-matching candidates accumulate roughly
#: one mismatch every couple of columns, so the abort lands near here.
ABORT_SPAN_PER_K = 2.5

#: Representative threshold for the dataset-level default plan.
DEFAULT_PLAN_K = 2

#: EWMA smoothing for online corrections, and their clamp range (a
#: single wild window cannot poison the model).
_EWMA_ALPHA = 0.3
_SCALE_MIN = 1.0 / 32.0
_SCALE_MAX = 32.0

#: Strategies the batch executors can serve (the compiled scan and the
#: flat-trie batch path both dedupe and memoize; the per-query scan has
#: no batch engine — the compiled scan amortizes the same kernel anyway).
BATCH_STRATEGIES = ("compiled", "indexed")


# --------------------------------------------------------------------
# policy: the request-level spelling


@dataclass(frozen=True)
class PlannerPolicy:
    """How a request wants its execution strategy decided.

    ``plan=`` on :class:`repro.core.request.SearchRequest` and the
    engine entry points takes one of these. The default (all fields
    ``None``) lets the planner pick.

    Attributes
    ----------
    strategy:
        Force one of :data:`STRATEGIES` (``None`` = planner decides).
    allow:
        Restrict the planner's choice to this subset (``None`` = all).

    Examples
    --------
    >>> PlannerPolicy(strategy="compiled").allowed()
    ('compiled',)
    >>> PlannerPolicy().is_auto
    True
    """

    strategy: str | None = None
    allow: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.strategy is not None and self.strategy not in STRATEGIES:
            raise ReproError(
                f"unknown strategy {self.strategy!r}; expected one of "
                f"{STRATEGIES}"
            )
        if self.allow is not None:
            allow = tuple(self.allow)
            for name in allow:
                if name not in STRATEGIES:
                    raise ReproError(
                        f"unknown strategy {name!r} in allow; expected "
                        f"a subset of {STRATEGIES}"
                    )
            if not allow:
                raise ReproError("allow must name at least one strategy")
            object.__setattr__(self, "allow", allow)

    @property
    def is_auto(self) -> bool:
        """Whether the planner gets to decide."""
        return self.strategy is None

    def allowed(self) -> tuple[str, ...]:
        """The strategies the planner may pick from."""
        if self.strategy is not None:
            return (self.strategy,)
        return self.allow if self.allow is not None else STRATEGIES


#: Shared all-defaults policy so request construction allocates nothing.
AUTO_POLICY = PlannerPolicy()


# --------------------------------------------------------------------
# the calibrated constants


@dataclass(frozen=True)
class CostProfile:
    """Per-unit time constants of the cost model, in seconds.

    Defaults are conservative laptop-class numbers; :func:`calibrate`
    fits them to the running machine and :meth:`save`/:meth:`load`
    persist them as a versioned JSON profile. The planner's online
    corrections (:meth:`Planner.observe_window`) then track drift without
    rewriting the profile.

    Examples
    --------
    >>> profile = CostProfile()
    >>> restored = CostProfile.from_dict(profile.to_dict())
    >>> restored == profile
    True
    """

    #: Per candidate touched by the per-query python scan, plus its
    #: per-column (banded DP) term and per-query setup.
    seq_candidate: float = 1.5e-6
    seq_char: float = 6.0e-7
    seq_setup: float = 1.0e-5
    #: Per candidate through the compiled scan's scalar kernel call,
    #: its per-column term, and the per-distinct-query setup (encoding,
    #: bucket dispatch, memo bookkeeping).
    scan_candidate: float = 4.0e-7
    scan_char: float = 1.2e-7
    scan_setup: float = 4.0e-5
    #: Per character-trie node the flat-trie descent consumes (one per
    #: label symbol), plus its per-descent setup: mostly the one array
    #: step per depth, paid once per query and once per batch call.
    #: Median of seven :func:`calibrate` runs on a 2-core x86-64
    #: container.
    trie_node: float = 3.9e-7
    trie_setup: float = 1.6e-3
    #: A batch-dedup memo hit (result already computed this batch).
    memo_hit: float = 2.0e-6
    version: int = PROFILE_VERSION
    source: str = "default"
    samples: int = 0

    _CONSTANTS = (
        "seq_candidate", "seq_char", "seq_setup",
        "scan_candidate", "scan_char", "scan_setup",
        "trie_node", "trie_setup", "memo_hit",
    )

    def __post_init__(self) -> None:
        for name in self._CONSTANTS:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value <= 0 \
                    or not math.isfinite(value):
                raise ReproError(
                    f"profile constant {name} must be a positive finite "
                    f"number, got {value!r}"
                )

    def constants(self) -> dict[str, float]:
        """The per-unit constants as a plain mapping."""
        return {name: float(getattr(self, name))
                for name in self._CONSTANTS}

    def to_dict(self) -> dict[str, Any]:
        """The persisted form (see :meth:`save`)."""
        mapping: dict[str, Any] = {
            "profile_version": self.version,
            "source": self.source,
            "samples": self.samples,
        }
        mapping.update(self.constants())
        return mapping

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "CostProfile":
        """Rebuild a profile from its :meth:`to_dict` form.

        Keys that are not constants of this build are ignored, so a
        version-1 profile saved with since-removed constants still loads.
        """
        version = mapping.get("profile_version")
        if version != PROFILE_VERSION:
            raise ReproError(
                f"unsupported cost profile version {version!r}; this "
                f"build reads version {PROFILE_VERSION}"
            )
        kwargs: dict[str, Any] = {
            name: mapping[name] for name in cls._CONSTANTS
            if name in mapping
        }
        missing = [name for name in cls._CONSTANTS
                   if name not in mapping]
        if missing:
            raise ReproError(
                "cost profile is missing constants: " + ", ".join(missing)
            )
        return cls(version=PROFILE_VERSION,
                   source=str(mapping.get("source", "loaded")),
                   samples=int(mapping.get("samples", 0)),
                   **kwargs)

    def save(self, path: str) -> str:
        """Persist the profile as JSON; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "CostProfile":
        """Load a profile persisted by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


# --------------------------------------------------------------------
# corpus statistics (the ANALYZE pass)


@dataclass(frozen=True)
class CorpusStatistics:
    """Cheap corpus statistics the planner's estimates run on.

    Collected once per dataset by :func:`collect_statistics` in one
    O(total characters) pass (plus a sort of the distinct strings).
    ``lengths``/``length_counts`` carry the exact length histogram, so
    ``candidates_in_window`` is an exact count, mirroring how database
    planners read row counts off ANALYZE histograms. ``trie_nodes`` /
    ``nodes_by_depth`` describe the *uncompressed* character trie
    (computed from sorted-neighbor common prefixes, without building
    one) — an upper-bound prior for trie work that the planner's
    online corrections tighten toward the radix-compressed reality.
    """

    count: int
    distinct: int
    alphabet_size: int
    total_chars: int
    mean_length: float
    max_length: int
    #: Sorted distinct lengths and the matching cumulative counts
    #: (``cumulative[i]`` = strings with length <= ``lengths[i]``).
    lengths: tuple[int, ...]
    cumulative: tuple[int, ...]
    #: ``nodes_by_depth[d]`` = character-trie nodes at depth ``d + 1``.
    nodes_by_depth: tuple[int, ...]
    trie_nodes: int

    def candidates_in_window(self, length: int, k: int) -> int:
        """Exact count of strings with length in ``[length-k, length+k]``.

        The length filter (paper eq. 5) admits exactly these, so this
        is the true candidate volume of both scan strategies.
        """
        if not self.lengths:
            return 0
        lo = bisect_left(self.lengths, length - k)
        hi = bisect_right(self.lengths, length + k)
        below = self.cumulative[lo - 1] if lo else 0
        return (self.cumulative[hi - 1] if hi else 0) - below

    def to_dict(self) -> dict[str, Any]:
        """The compact summary embedded in plans and reports."""
        return {
            "count": self.count,
            "distinct": self.distinct,
            "alphabet_size": self.alphabet_size,
            "mean_length": round(self.mean_length, 2),
            "max_length": self.max_length,
            "trie_nodes": self.trie_nodes,
        }


def collect_statistics(dataset: Iterable[str]) -> CorpusStatistics:
    """One ANALYZE pass over the dataset (see :class:`CorpusStatistics`).

    Examples
    --------
    >>> stats = collect_statistics(["Berlin", "Bern", "Ulm"])
    >>> stats.candidates_in_window(5, 1)
    2
    >>> stats.alphabet_size
    8
    """
    strings = [s if isinstance(s, str) else str(s) for s in dataset]
    count = len(strings)
    total_chars = sum(len(s) for s in strings)
    alphabet: set[str] = set()
    length_hist: dict[int, int] = {}
    for s in strings:
        alphabet.update(s)
        length_hist[len(s)] = length_hist.get(len(s), 0) + 1
    lengths = tuple(sorted(length_hist))
    cumulative: list[int] = []
    running = 0
    for length in lengths:
        running += length_hist[length]
        cumulative.append(running)
    # Character-trie shape from sorted-neighbor common prefixes: string
    # s after predecessor p contributes one new node per character past
    # lcp(s, p). A difference array turns that into nodes-per-depth.
    distinct = sorted(set(strings))
    max_length = max(lengths) if lengths else 0
    diff = [0] * (max_length + 1)
    for s, lcp in zip(distinct, adjacent_lcp(distinct)):
        if len(s) > lcp:
            diff[lcp] += 1
            diff[len(s)] -= 1 if len(s) < len(diff) else 0
    nodes_by_depth: list[int] = []
    running = 0
    for depth in range(max_length):
        running += diff[depth]
        nodes_by_depth.append(running)
    return CorpusStatistics(
        count=count,
        distinct=len(distinct),
        alphabet_size=len(alphabet),
        total_chars=total_chars,
        mean_length=(total_chars / count) if count else 0.0,
        max_length=max_length,
        lengths=lengths,
        cumulative=tuple(cumulative),
        nodes_by_depth=tuple(nodes_by_depth),
        trie_nodes=sum(nodes_by_depth),
    )


# --------------------------------------------------------------------
# the EXPLAIN output


@dataclass(frozen=True)
class CostEstimate:
    """One strategy's scored cost for a request shape."""

    strategy: str
    cost: float                     # estimated seconds, total
    work: Mapping[str, float]       # unit name -> estimated count
    feasible: bool = True
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        mapping: dict[str, Any] = {
            "strategy": self.strategy,
            "cost": float(self.cost),
            "feasible": self.feasible,
            "work": {name: round(float(value), 3)
                     for name, value in self.work.items()},
        }
        if self.note:
            mapping["note"] = self.note
        return mapping


@dataclass(frozen=True)
class QueryPlan:
    """The planner's EXPLAIN-style answer for one request.

    ``estimates`` holds every strategy's scored cost (feasible ones
    first, cheapest first); ``statistics`` the numbers that drove the
    decision.
    """

    strategy: str
    reason: str
    k: int
    queries: int
    unique_queries: int
    estimates: tuple[CostEstimate, ...]
    statistics: Mapping[str, Any]
    profile_source: str
    profile_version: int
    forced: bool = False

    @property
    def best_cost(self) -> float:
        """The chosen strategy's estimated seconds."""
        return self.cost_for(self.strategy)

    def cost_for(self, strategy: str) -> float:
        """The estimated seconds of one scored strategy."""
        for estimate in self.estimates:
            if estimate.strategy == strategy:
                return estimate.cost
        raise ReproError(f"strategy {strategy!r} was not scored")

    def to_dict(self) -> dict[str, Any]:
        """The ``plan`` section serialized into :class:`SearchReport`."""
        return {
            "strategy": self.strategy,
            "reason": self.reason,
            "k": self.k,
            "queries": self.queries,
            "unique_queries": self.unique_queries,
            "forced": self.forced,
            "estimates": [e.to_dict() for e in self.estimates],
            "statistics": dict(self.statistics),
            "profile": {
                "source": self.profile_source,
                "version": self.profile_version,
            },
        }

    def render(self) -> str:
        """The EXPLAIN table, human-readable."""
        header = (
            f"QueryPlan: strategy={self.strategy} k={self.k} "
            f"queries={self.queries}"
        )
        if self.unique_queries != self.queries:
            header += f" (unique {self.unique_queries})"
        if self.forced:
            header += " [forced]"
        lines = [
            header,
            f"  profile: {self.profile_source} v{self.profile_version}",
            "  rank  strategy    est. seconds  work",
        ]
        for rank, estimate in enumerate(self.estimates, start=1):
            marker = "->" if estimate.strategy == self.strategy else "  "
            work = ", ".join(
                f"{name}={value:g}"
                for name, value in estimate.work.items()
            )
            tail = "" if estimate.feasible else \
                f"  [infeasible: {estimate.note}]"
            lines.append(
                f"  {marker}{rank:>2}  {estimate.strategy:<10}  "
                f"{estimate.cost:>12.6f}  {work}{tail}"
            )
        lines.append(f"  reason: {self.reason}")
        return "\n".join(lines)


#: Keys a serialized ``plan`` report section must carry (checked by
#: :func:`repro.obs.report.validate_report` when the section appears).
PLAN_SCHEMA_KEYS = ("strategy", "reason", "k", "queries", "estimates",
                    "statistics", "profile")


def validate_plan(mapping: Mapping[str, Any]) -> list[str]:
    """Check a serialized plan section; returns the problems found."""
    problems: list[str] = []
    if not isinstance(mapping, Mapping):
        return [f"plan must be a mapping, got {type(mapping).__name__}"]
    for key in PLAN_SCHEMA_KEYS:
        if key not in mapping:
            problems.append(f"plan section missing key: {key}")
    if problems:
        return problems
    if mapping["strategy"] not in STRATEGIES:
        problems.append(
            f"plan strategy {mapping['strategy']!r} not in {STRATEGIES}"
        )
    estimates = mapping["estimates"]
    if not isinstance(estimates, list) or not estimates:
        problems.append("plan estimates must be a non-empty list")
        return problems
    for estimate in estimates:
        for key in ("strategy", "cost", "feasible"):
            if key not in estimate:
                problems.append(f"plan estimate missing key: {key}")
    return problems


# --------------------------------------------------------------------
# the planner


class Planner:
    """Score every strategy for a request shape; pick the cheapest.

    Parameters
    ----------
    statistics:
        The corpus's :class:`CorpusStatistics` (or the dataset itself,
        which is analyzed here).
    profile:
        A :class:`CostProfile`; defaults to the built-in constants.

    The planner is deterministic: the same profile, statistics and
    request always produce the same plan. :meth:`observe_window` adds
    bounded per-``(strategy, k)`` EWMA corrections learned from executed
    windows, after which plans reflect the corrected costs — still
    deterministically, given the same observation history.
    """

    def __init__(self, statistics: CorpusStatistics | Iterable[str], *,
                 profile: CostProfile | None = None) -> None:
        if not isinstance(statistics, CorpusStatistics):
            statistics = collect_statistics(statistics)
        self._stats = statistics
        self._profile = profile if profile is not None else CostProfile()
        #: (strategy, k) -> EWMA of actual/predicted seconds.
        self._corrections: dict[tuple[str, int], float] = {}
        self._observed_windows = 0
        #: Single-query plans keyed by shape — costs depend on the
        #: query only through its length, so repeated shapes reuse the
        #: frozen plan. Invalidated whenever a correction moves.
        self._plan_cache: dict[tuple, QueryPlan] = {}

    @property
    def statistics(self) -> CorpusStatistics:
        """The ANALYZE statistics the estimates run on."""
        return self._stats

    @property
    def profile(self) -> CostProfile:
        """The per-unit constants in force."""
        return self._profile

    @property
    def observed_windows(self) -> int:
        """How many report windows have refit the corrections."""
        return self._observed_windows

    def corrections(self) -> dict[str, float]:
        """The online corrections, as ``"strategy@k" -> factor``."""
        return {
            f"{strategy}@{k}": round(factor, 4)
            for (strategy, k), factor in sorted(self._corrections.items())
        }

    def refresh_statistics(
            self, statistics: CorpusStatistics | Iterable[str]) -> None:
        """Swap in fresh ANALYZE statistics after the corpus drifted.

        The live-corpus write path calls this when its epoch moves so
        ``backend="auto"`` keeps pricing against reality. The plan
        cache is invalidated (its costs embedded the old statistics);
        the learned EWMA corrections are *kept* — they model per-unit
        kernel costs on this hardware, which survive data drift.
        """
        if not isinstance(statistics, CorpusStatistics):
            statistics = collect_statistics(statistics)
        self._stats = statistics
        self._plan_cache.clear()

    # -- per-strategy estimators -------------------------------------

    @staticmethod
    def _effective_columns(length: int, k: int) -> float:
        """DP columns a non-matching candidate costs before the abort."""
        span = ABORT_SPAN_PER_K * (k + 1)
        return max(1.0, min(float(max(length, 1)), span))

    def _correction(self, strategy: str, k: int) -> float:
        """The learned cost correction for ``(strategy, k)``.

        Exact-``k`` observations win; otherwise the strategy's mean
        across observed thresholds; 1.0 before any observation.
        """
        exact = self._corrections.get((strategy, k))
        if exact is not None:
            return exact
        factors = [factor for (name, _), factor
                   in self._corrections.items() if name == strategy]
        if factors:
            return sum(factors) / len(factors)
        return 1.0

    def _raw_trie_nodes(self, length: int, k: int) -> float:
        """Analytic prior for trie nodes visited by one query.

        Every node above depth ``k + 1`` is reachable (insertions alone
        keep any short path alive); deeper frontiers decay
        geometrically — a surviving path must keep its banded distance
        within ``k``, and each extra level keeps roughly ``2k + 1``
        band cells alive out of ``alphabet`` ways to extend.
        """
        stats = self._stats
        if not stats.nodes_by_depth:
            return 0.0
        sigma = max(2, stats.alphabet_size)
        decay = (2.0 * k + 1.0) / (2.0 * k + 1.0 + sigma)
        reach = 1.0
        visited = 0.0
        horizon = min(len(stats.nodes_by_depth), length + k)
        for index in range(horizon):
            depth = index + 1
            if depth > k + 1:
                reach *= decay
                if reach < 1e-6:
                    break
            visited += stats.nodes_by_depth[index] * reach
        return max(1.0, visited)

    def _estimate_one(self, strategy: str, length: int,
                      k: int) -> tuple[float, dict[str, float]]:
        """(seconds, work units) for one distinct query, uncorrected."""
        p = self._profile
        stats = self._stats
        window = stats.candidates_in_window(length, k)
        cols = self._effective_columns(length, k)
        if strategy == "sequential":
            cost = p.seq_setup + window * (p.seq_candidate
                                           + p.seq_char * cols)
            return cost, {"candidates": float(window), "columns": cols}
        if strategy == "compiled":
            return (p.scan_setup
                    + window * (p.scan_candidate + p.scan_char * cols),
                    {"candidates": float(window), "columns": cols})
        if strategy == "indexed":
            nodes = self._raw_trie_nodes(length, k)
            return (p.trie_setup + nodes * p.trie_node,
                    {"trie_nodes": nodes})
        raise ReproError(f"unknown strategy {strategy!r}")

    def estimate(self, strategy: str, length: int, k: int) -> float:
        """Corrected estimated seconds for one distinct query."""
        cost, _ = self._estimate_one(strategy, length, k)
        return cost * self._correction(strategy, k)

    # -- planning ----------------------------------------------------

    def plan(self, request: Any = None, *,
             length: int | None = None,
             k: int | None = None,
             queries: Sequence[str] | None = None,
             batch: bool = False,
             policy: PlannerPolicy | None = None) -> QueryPlan:
        """Score every strategy for a request (or bare shape); pick one.

        Either pass a :class:`repro.core.request.SearchRequest` (its
        queries, ``k`` and ``plan`` policy are read off it),
        or describe the shape directly with ``length``/``k`` (single
        query) or ``queries``/``k`` (batch).
        """
        if request is not None:
            query_list = list(request.queries)
            k = request.k
            batch = request.is_batch
            if policy is None:
                policy = getattr(request, "plan", None)
        elif queries is not None:
            query_list = list(queries)
            batch = batch or len(query_list) != 1
        elif length is not None:
            query_list = ["x" * max(0, int(length))]
        else:
            raise ReproError(
                "plan() needs a request, queries, or a length"
            )
        if k is None:
            raise ReproError("plan() needs k")
        policy = policy if policy is not None else AUTO_POLICY
        return self._plan_shape(query_list, k, batch=batch, policy=policy)

    def plan_queries(self, queries: Sequence[str], k: int, *,
                     batch: bool = False,
                     policy: PlannerPolicy | None = None) -> QueryPlan:
        """Plan explicit queries with explicit execution context.

        Unlike :meth:`plan` with a request, ``batch`` here means "the
        call goes through a batch *executor*" — workload mode runs
        many queries through per-query searchers, so it plans with
        ``batch=False`` and every strategy stays feasible.
        """
        return self._plan_shape(
            list(queries), k, batch=batch,
            policy=policy if policy is not None else AUTO_POLICY,
        )

    def _plan_shape(self, query_list: list[str], k: int, *,
                    batch: bool, policy: PlannerPolicy) -> QueryPlan:
        cache_key = None
        if len(query_list) == 1:
            cache_key = (len(query_list[0]), k, batch, policy)
            cached = self._plan_cache.get(cache_key)
            if cached is not None:
                return cached
        plan = self._plan_shape_uncached(query_list, k, batch=batch,
                                         policy=policy)
        if cache_key is not None:
            if len(self._plan_cache) >= 4096:
                self._plan_cache.clear()
            self._plan_cache[cache_key] = plan
        return plan

    def _plan_shape_uncached(self, query_list: list[str], k: int, *,
                             batch: bool,
                             policy: PlannerPolicy) -> QueryPlan:
        n = len(query_list)
        unique = len(set(query_list)) if n > 1 else n
        dup_hits = n - unique
        unique_ratio = (unique / n) if n else 1.0
        # Group by length: costs depend on the query only through it.
        by_length: dict[int, int] = {}
        for query in query_list:
            by_length[len(query)] = by_length.get(len(query), 0) + 1
        mean_length = (sum(len(q) for q in query_list) / n) if n \
            else self._stats.mean_length
        p = self._profile
        allowed = policy.allowed()
        totals: dict[str, float] = {}
        works: dict[str, dict[str, float]] = {}
        for strategy in STRATEGIES:
            # A batch call sends all its distinct queries down one trie
            # descent, so the descent's setup is paid once per call.
            shared = p.trie_setup if batch and strategy == "indexed" \
                else 0.0
            total = shared
            work: dict[str, float] = {}
            for length, count in sorted(by_length.items()):
                distinct = max(1.0, count * unique_ratio)
                cost_one, work_one = self._estimate_one(strategy,
                                                        length, k)
                total += distinct * (cost_one - shared)
                for name, value in work_one.items():
                    if name == "columns":
                        # A per-candidate width, not a volume: report
                        # the widest group rather than a meaningless
                        # sum over queries.
                        work[name] = max(work.get(name, 0.0), value)
                    else:
                        work[name] = work.get(name, 0.0) \
                            + value * distinct
            totals[strategy] = total * self._correction(strategy, k) \
                + dup_hits * p.memo_hit
            works[strategy] = work
        # Rank: feasible & allowed first, then by corrected cost.
        estimates: list[CostEstimate] = []
        for strategy in STRATEGIES:
            feasible, note = True, ""
            if batch and strategy not in BATCH_STRATEGIES:
                feasible, note = False, "no batch executor for this strategy"
            elif strategy not in allowed:
                feasible, note = False, "excluded by the policy"
            estimates.append(CostEstimate(
                strategy=strategy,
                cost=totals[strategy],
                work=MappingProxyType(works[strategy]),
                feasible=feasible,
                note=note,
            ))
        estimates.sort(key=lambda e: (not e.feasible, e.cost,
                                      STRATEGIES.index(e.strategy)))
        candidates = [e for e in estimates if e.feasible]
        forced = policy.strategy is not None
        if forced:
            chosen = policy.strategy
            reason = "forced by caller"
        elif candidates:
            chosen = candidates[0].strategy
            reason = self._reason(candidates, mean_length, k)
        else:
            # Nothing feasible (e.g. every strategy excluded): fall
            # back to the scan, which always answers correctly.
            chosen = "sequential"
            reason = ("no feasible strategy under the policy; "
                      "falling back to the sequential scan")
        statistics = dict(self._stats.to_dict())
        statistics.update({
            "query_mean_length": round(mean_length, 2),
            "unique_ratio": round(unique_ratio, 4),
            "window": self._stats.candidates_in_window(
                int(round(mean_length)), k),
            "corrections": self.corrections(),
            "observed_windows": self._observed_windows,
        })
        return QueryPlan(
            strategy=chosen,
            reason=reason,
            k=k,
            queries=n,
            unique_queries=unique,
            estimates=tuple(estimates),
            statistics=MappingProxyType(statistics),
            profile_source=self._profile.source,
            profile_version=self._profile.version,
            forced=forced,
        )

    def _reason(self, candidates: list[CostEstimate],
                mean_length: float, k: int) -> str:
        stats = self._stats
        best = candidates[0]
        if len(candidates) > 1:
            runner_up = candidates[1]
            margin = (f"{best.cost:.2e}s vs {runner_up.cost:.2e}s "
                      f"{runner_up.strategy}")
        else:
            margin = f"{best.cost:.2e}s"
        long_strings = stats.mean_length > 40
        tiny_alphabet = 0 < stats.alphabet_size <= 8
        if long_strings and tiny_alphabet:
            regime = ("the paper's DNA regime (long strings, tiny "
                      "alphabet)")
        else:
            regime = ("the paper's short-string regime (large "
                      "alphabet)")
        return (
            f"{best.strategy} estimated cheapest ({margin}) at k={k} "
            f"for mean query length {mean_length:.0f} over "
            f"{stats.count} strings ({stats.alphabet_size} symbols) — "
            f"{regime}"
        )

    # -- the feedback loop -------------------------------------------

    def observe_window(self, strategy: str, k: int,
                       lengths: Sequence[int], seconds: float) -> None:
        """Re-fit the ``(strategy, k)`` correction from an executed window.

        Engines call this after every planner-routed call with the
        distinct queries' lengths, so the window's actual seconds are
        compared against the prediction for *exactly* the executed
        shape, and the correction moves by a bounded EWMA step —
        constants track the hardware without a recalibration.
        """
        if strategy not in STRATEGIES or not lengths or seconds <= 0:
            return
        predicted = sum(
            self._estimate_one(strategy, length, k)[0]
            for length in lengths
        )
        if predicted <= 0:
            return
        ratio = seconds / predicted
        ratio = min(_SCALE_MAX, max(_SCALE_MIN, ratio))
        key = (strategy, k)
        prior = self._corrections.get(key)
        if prior is None:
            updated = ratio
        else:
            updated = prior + _EWMA_ALPHA * (ratio - prior)
        self._corrections[key] = updated
        self._observed_windows += 1
        # Cached plans embed the old correction; drop them — but only
        # when the correction actually moved. Once the loop converges,
        # observations stop invalidating the cache and steady-state
        # planning stays O(1) per call.
        before = prior if prior is not None else 1.0
        if abs(updated - before) > 0.02 * before:
            self._plan_cache.clear()


# --------------------------------------------------------------------
# offline calibration


def _fit_line(samples: list[tuple[float, float]],
              default_intercept: float,
              default_slope: float) -> tuple[float, float]:
    """Least-squares ``y = a + b*x`` with positivity fallbacks."""
    if len(samples) < 2:
        return default_intercept, default_slope
    n = len(samples)
    sx = sum(x for x, _ in samples)
    sy = sum(y for _, y in samples)
    sxx = sum(x * x for x, _ in samples)
    sxy = sum(x * y for x, y in samples)
    denom = n * sxx - sx * sx
    if abs(denom) < 1e-12:
        return default_intercept, default_slope
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    if slope <= 0:
        slope = default_slope
    if intercept <= 0:
        # All cost in the per-column term; keep a token intercept.
        intercept = min(y for _, y in samples) * 0.1 or default_intercept
    return intercept, slope


def calibrate(*, seed: int = 2013, city_count: int = 400,
              dna_count: int = 96, queries: int = 10,
              repeats: int = 2) -> CostProfile:
    """Fit the per-unit constants on this machine (a microbenchmark).

    Runs each strategy on two small synthetic corpora spanning the
    paper's regimes (short city names over a large alphabet, long DNA
    reads over four symbols), reads the executed work off the
    observability counters, and least-squares-fits the per-unit
    constants. Seconds-long; persist the result with
    :meth:`CostProfile.save` and hand it to engines/planners.
    """
    from time import perf_counter

    from repro.core.sequential import SequentialScanSearcher
    from repro.data.cities import generate_city_names
    from repro.data.dna import generate_reads
    from repro.index.batch import FlatIndexSearcher
    from repro.scan.searcher import CompiledScanSearcher

    city = list(generate_city_names(city_count, seed=seed))
    dna = list(generate_reads(dna_count, seed=seed + 1))
    samples = 0
    defaults = CostProfile()

    def timed(call) -> float:
        best = math.inf
        for _ in range(max(1, repeats)):
            started = perf_counter()
            call()
            best = min(best, perf_counter() - started)
        return best

    # Compiled scan: per-candidate seconds at two column regimes.
    scan_points: list[tuple[float, float]] = []
    for corpus, k in ((city, 1), (dna, 8)):
        # No memo: the warm-up batch would answer the timed searches.
        searcher = CompiledScanSearcher(corpus, cache_size=0)
        probes = corpus[:queries]
        searcher.search_many(probes, k)  # warm the encoder, off-clock
        before = searcher.counters_snapshot()["scan.candidates"]
        seconds = timed(lambda s=searcher, p=probes, kk=k:
                        [s.search(q, kk) for q in p])
        candidates = (searcher.counters_snapshot()["scan.candidates"]
                      - before) / max(1, repeats)
        if candidates > 0:
            cols = Planner._effective_columns(len(corpus[0]), k)
            scan_points.append((cols, seconds / candidates))
            samples += 1
    scan_candidate, scan_char = _fit_line(
        scan_points, defaults.scan_candidate, defaults.scan_char)

    # Per-query python scan: same two points, same model.
    seq_points: list[tuple[float, float]] = []
    for corpus, k in ((city, 1), (dna, 8)):
        searcher = SequentialScanSearcher(corpus, kernel="bitparallel",
                                          order="length")
        probes = corpus[:max(3, queries // 2)]
        before = searcher.counters_snapshot()["scan.candidates"]
        seconds = timed(lambda s=searcher, p=probes, kk=k:
                        [s.search(q, kk) for q in p])
        candidates = (searcher.counters_snapshot()["scan.candidates"]
                      - before) / max(1, repeats)
        if candidates > 0:
            cols = Planner._effective_columns(len(corpus[0]), k)
            seq_points.append((cols, seconds / candidates))
            samples += 1
    seq_candidate, seq_char = _fit_line(
        seq_points, defaults.seq_candidate, defaults.seq_char)

    # Flat trie: seconds per descent against the character-trie nodes
    # it consumes (label symbols, the unit _raw_trie_nodes estimates).
    # Single searches run one descent per probe, a batch of the same
    # distinct probes one descent in all, so the intercept is the
    # per-descent setup (mostly its per-depth array steps) and the
    # slope the per-node cost. One line per regime across thresholds;
    # the two fits are averaged.
    trie_fits: list[tuple[float, float]] = []
    for corpus, thresholds in ((city, (1, 2, 3)), (dna, (2, 4, 8))):
        searcher = FlatIndexSearcher(corpus, cache_size=0)
        probes = list(dict.fromkeys(corpus))[:queries]
        trie_points: list[tuple[float, float]] = []
        for k in thresholds:
            for call, descents in (
                    (lambda s=searcher, p=probes, kk=k:
                     [s.search(q, kk) for q in p], len(probes)),
                    (lambda s=searcher, p=probes, kk=k:
                     s.search_many(p, kk), 1)):
                before = searcher.counters_snapshot().get(
                    "trie.symbols_processed", 0)
                seconds = timed(call)
                nodes = (searcher.counters_snapshot()
                         ["trie.symbols_processed"] - before) \
                    / max(1, repeats)
                if nodes > 0:
                    trie_points.append((nodes / descents,
                                        seconds / descents))
                    samples += 1
        trie_fits.append(_fit_line(trie_points, defaults.trie_setup,
                                   defaults.trie_node))
    trie_setup = sum(fit[0] for fit in trie_fits) / len(trie_fits)
    trie_node = sum(fit[1] for fit in trie_fits) / len(trie_fits)

    return replace(
        defaults,
        seq_candidate=seq_candidate, seq_char=seq_char,
        scan_candidate=scan_candidate, scan_char=scan_char,
        trie_setup=trie_setup, trie_node=trie_node,
        source="calibrated",
        samples=samples,
    )
