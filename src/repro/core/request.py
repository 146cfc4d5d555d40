"""The unified request surface: ``SearchRequest`` and ``SearchOptions``.

Before this layer, every entry point had a slightly different calling
convention: ``SearchEngine.search(query, k, report=...)``,
``search_many(queries, k, plan=..., report=...)``,
``run_workload(workload, report=...)``, and each raw searcher its own
positional spelling. :class:`SearchRequest` is the one value that can
be handed to any of them — engine methods, the batch executors'
adapters and :meth:`repro.service.Service.submit` — so callers build a
request once and route it anywhere.

Legacy ↔ request mapping (the documented compatibility table; the old
kwarg spellings keep working unchanged):

======================================  ===========================
Legacy spelling                         Request field
======================================  ===========================
``search(query, k)``                    ``query``, ``k``
``search_many(queries, k)``             ``query`` (a sequence), ``k``
``run_workload(workload)``              ``SearchRequest.from_workload``
``search_many(..., plan=...)``          ``plan``
``search(..., deadline=...)``           ``deadline``
``search(..., report=True)``            ``options.report``
``Service.submit(..., allow_partial=)`` ``options.allow_partial``
======================================  ===========================

Passing both a :class:`SearchRequest` and a conflicting legacy kwarg is
an error (no silent behavior change): a request is self-contained, so
``engine.search(request, 3)`` raises rather than guessing which ``k``
was meant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.deadline import Budget, Deadline
from repro.core.planner import AUTO_POLICY, PlannerPolicy
from repro.distance.banded import check_threshold
from repro.exceptions import ReproError

@dataclass(frozen=True)
class SearchOptions:
    """Cross-cutting execution options, identical for every backend.

    Attributes
    ----------
    report:
        Return ``(results, SearchReport)`` instead of bare results
        (engine entry points only).
    allow_partial:
        Service-level: when the degradation ladder is exhausted,
        return the best partial :class:`repro.service.ServiceResult`
        instead of raising :class:`repro.exceptions.PartialResultError`.
    """

    report: bool = False
    allow_partial: bool = True


#: Shared default so request construction allocates nothing extra.
DEFAULT_OPTIONS = SearchOptions()


@dataclass(frozen=True, eq=False)
class SearchRequest:
    """One similarity query (or batch of queries), fully described.

    Attributes
    ----------
    query:
        A single query string, or a tuple of query strings for batch
        entry points (``search_many`` / ``run_workload``).
    k:
        The edit-distance threshold (validated at construction).
    deadline:
        Optional :class:`repro.core.deadline.Deadline` (wall-clock) or
        :class:`repro.core.deadline.Budget` (work units). ``None``
        means unbounded — results are exact and byte-identical to the
        pre-deadline code paths.
    plan:
        Optional :class:`repro.core.planner.PlannerPolicy`: force one
        execution strategy, restrict the planner's choice, or (the
        default) let the calibrated cost model decide.
    options:
        A :class:`SearchOptions` value.

    Equality and hashing are **canonical**: two requests are equal when
    they describe the same question, regardless of how they were
    spelled. Concretely, :meth:`canonical_key` normalizes the policy
    (``None`` and an all-default :class:`PlannerPolicy` both mean "you
    pick") and compares options by value (an explicitly passed
    all-default :class:`SearchOptions` equals an omitted one), and the
    ``deadline`` is **excluded** — it
    is execution context (how long *this* attempt may run), not part
    of the question's identity. That is what lets result-cache keys
    (:mod:`repro.traffic.cache`) and batch-dedup agree on which
    requests are "the same query".

    Examples
    --------
    >>> request = SearchRequest("Berlino", 2)
    >>> request.k
    2
    >>> batch = SearchRequest(("Bern", "Ulm"), 1)
    >>> batch.queries
    ('Bern', 'Ulm')
    >>> batch.is_batch
    True
    >>> SearchRequest("Bern", 1) == SearchRequest(
    ...     "Bern", 1, plan=PlannerPolicy(), options=SearchOptions())
    True
    >>> SearchRequest("Bern", 1, plan=PlannerPolicy(
    ...     strategy="compiled")).policy.strategy
    'compiled'
    """

    query: str | tuple[str, ...]
    k: int
    deadline: Deadline | Budget | None = None
    options: SearchOptions = field(default=DEFAULT_OPTIONS)
    plan: PlannerPolicy | None = None

    def __post_init__(self) -> None:
        check_threshold(self.k)
        if not isinstance(self.query, str):
            object.__setattr__(self, "query", tuple(self.query))
            for item in self.query:
                if not isinstance(item, str):
                    raise ReproError(
                        f"batch request queries must be strings, "
                        f"got {item!r}"
                    )

    @property
    def policy(self) -> PlannerPolicy:
        """The effective :class:`PlannerPolicy` (never ``None``)."""
        return self.plan if self.plan is not None else AUTO_POLICY

    def canonical_key(self) -> tuple:
        """The request's identity, normalized (see the class docstring).

        ``(query, k, policy, options)`` with an all-default policy
        folded to ``None`` and the deadline left out. Stable across
        spelling variants, so it is safe as a cache or dedup key.
        """
        policy = self.plan if self.plan not in (None, AUTO_POLICY) \
            else None
        return (self.query, self.k, policy, self.options)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SearchRequest):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    @property
    def is_batch(self) -> bool:
        """Whether this request carries multiple queries."""
        return not isinstance(self.query, str)

    @property
    def queries(self) -> tuple[str, ...]:
        """The queries as a tuple (singleton for a single query)."""
        if isinstance(self.query, str):
            return (self.query,)
        return self.query

    @classmethod
    def from_workload(cls, workload, *,
                      deadline: Deadline | Budget | None = None,
                      options: SearchOptions = DEFAULT_OPTIONS,
                      plan: PlannerPolicy | None = None,
                      ) -> "SearchRequest":
        """A batch request over a :class:`repro.data.workload.Workload`."""
        return cls(tuple(workload.queries), workload.k,
                   deadline=deadline, options=options, plan=plan)

    def with_options(self, **changes) -> "SearchRequest":
        """A copy with :class:`SearchOptions` fields replaced."""
        return replace(self, options=replace(self.options, **changes))


def as_request(query, k: int | None = None, *,
               deadline: Deadline | Budget | None = None,
               options: SearchOptions | None = None,
               plan: PlannerPolicy | None = None,
               batch: bool = False) -> SearchRequest:
    """Normalize the legacy positional form or a request into a request.

    The single adapter every entry point routes through. ``query`` may
    be a :class:`SearchRequest` (then every legacy argument must be
    left at its default — conflicts raise, never silently lose) or the
    legacy ``query``/``queries`` value, combined with ``k`` and the
    keyword arguments per the mapping in the module docstring.
    ``batch`` wraps a non-request ``query`` as a batch of queries.
    """
    if isinstance(query, SearchRequest):
        if k is not None:
            raise ReproError(
                "pass k inside the SearchRequest, not alongside it"
            )
        for name, value in (("deadline", deadline), ("options", options),
                            ("plan", plan)):
            if value is not None:
                raise ReproError(
                    f"pass {name} inside the SearchRequest, not "
                    "alongside it"
                )
        return query
    if k is None:
        raise ReproError(
            "k is required unless a SearchRequest is passed"
        )
    if batch and isinstance(query, str):
        raise ReproError(
            "batch entry points take a sequence of queries; pass a "
            "list/tuple of strings (or a SearchRequest)"
        )
    if batch:
        query = tuple(query)
    return SearchRequest(
        query, k, deadline=deadline,
        options=options if options is not None else DEFAULT_OPTIONS,
        plan=plan,
    )
