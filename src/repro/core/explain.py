"""Match explanation: why a pair matched (or didn't), step by step.

Debugging a similarity pipeline means answering "which component made
this decision?". :func:`explain_pair` traces one (query, candidate, k)
triple through every layer — the length filter, the two bounds the
compiled scan's select runs (bag distance over the whole alphabet, and
shared trigrams), kernel dispatch, the distance itself and the edit
script — and returns a structured, printable account.

The *plan-level* counterpart — "which execution strategy would serve
this request, and why?" — lives in :mod:`repro.core.planner` and is
re-exported here: :class:`QueryPlan` (``SearchEngine.explain()``'s
return value) extends this module's explanation surface from one pair
to one request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Plan-level EXPLAIN surface (re-exported; see the module docstring).
from repro.core.planner import (  # noqa: F401
    CostEstimate,
    PlannerPolicy,
    QueryPlan,
    validate_plan,
)
from repro.distance.alignment import edit_script
from repro.distance.banded import check_threshold, length_filter_passes
from repro.distance.dispatch import best_kernel, explain_kernel
from repro.distance.levenshtein import edit_distance
from repro.filters.frequency import frequency_lower_bound, frequency_vector
from repro.filters.qgram import qgram_overlap, qgram_profile, required_overlap


@dataclass(frozen=True)
class PairExplanation:
    """The full account of one comparison.

    Attributes
    ----------
    query / candidate / k:
        The inputs.
    matched:
        The verdict: ``edit_distance(query, candidate) <= k``.
    distance:
        The exact edit distance (always computed — this is a debugging
        tool, not a fast path).
    length_filter:
        Did the pair survive equation 5?
    frequency_bound:
        The bag-distance lower bound over every symbol of the pair (the
        paper's section-6 frequency vectors with the whole alphabet
        tracked, case-sensitive) and whether it alone would have
        rejected the pair.
    qgram_bound:
        Shared trigrams, the required count
        (:func:`repro.filters.qgram.required_overlap` with ``q = 3``),
        and whether the count filter would have rejected the pair. The
        scan counts trigrams folded into groups, which can only raise
        the shared count, so it keeps every pair this keeps, and maybe
        more.
    kernel:
        Which kernel :func:`repro.distance.dispatch.best_kernel` would
        pick, with its rationale.
    script:
        The edit operations transforming query into candidate (empty
        for exact matches).
    """

    query: str
    candidate: str
    k: int
    matched: bool
    distance: int
    length_filter: bool
    frequency_bound: tuple[int, bool]
    qgram_bound: tuple[int, int, bool]
    kernel: str
    script: tuple[str, ...] = field(default_factory=tuple)

    def render(self) -> str:
        """Human-readable multi-line account."""
        verdict = "MATCH" if self.matched else "NO MATCH"
        freq_bound, freq_rejects = self.frequency_bound
        shared, needed, qgram_rejects = self.qgram_bound
        lines = [
            f"{self.query!r} vs {self.candidate!r} at k={self.k}: "
            f"{verdict} (distance {self.distance})",
            f"  length filter:    "
            f"{'pass' if self.length_filter else 'REJECT'} "
            f"(|{len(self.query)} - {len(self.candidate)}| "
            f"{'<=' if self.length_filter else '>'} {self.k})",
            f"  frequency bound:  {freq_bound} "
            f"({'REJECT' if freq_rejects else 'pass'}, bag distance "
            f"over every symbol)",
            f"  q-gram bound:     {shared} shared trigrams, "
            f"{needed} required "
            f"({'REJECT' if qgram_rejects else 'pass'}; the scan's "
            f"grouped counts can only keep more rows)",
            f"  kernel dispatch:  {self.kernel}",
        ]
        if self.script:
            lines.append("  edit script:")
            lines.extend(f"    {step}" for step in self.script)
        elif self.matched:
            lines.append("  edit script:      (exact match)")
        return "\n".join(lines)


def explain_pair(query: str, candidate: str, k: int) -> PairExplanation:
    """Trace one comparison through every decision layer.

    Examples
    --------
    >>> explanation = explain_pair("Bern", "Berlin", 2)
    >>> explanation.matched
    True
    >>> explanation.distance
    2
    >>> "insert" in explanation.script[0]
    True
    """
    # The scan sits above the core; import its q where it is used.
    from repro.scan.corpus import QGRAM_LENGTH

    check_threshold(k)
    distance = edit_distance(query, candidate)
    matched = distance <= k

    survives_length = length_filter_passes(len(query), len(candidate), k)

    symbols = "".join(sorted(set(query + candidate)))
    freq_bound = frequency_lower_bound(
        frequency_vector(query, symbols, case_insensitive=False),
        frequency_vector(candidate, symbols, case_insensitive=False))

    shared = qgram_overlap(qgram_profile(query, QGRAM_LENGTH),
                           qgram_profile(candidate, QGRAM_LENGTH))
    needed = required_overlap(len(query), len(candidate), QGRAM_LENGTH, k)
    qgram_rejects = needed > 0 and shared < needed

    script = tuple(edit_script(query, candidate)) if matched else ()
    return PairExplanation(
        query=query,
        candidate=candidate,
        k=k,
        matched=matched,
        distance=distance,
        length_filter=survives_length,
        frequency_bound=(freq_bound, freq_bound > k),
        qgram_bound=(shared, max(0, needed), qgram_rejects),
        kernel=explain_kernel(len(query), max(len(candidate), 1), k)
        if (query or candidate) else str(best_kernel(1, 1, k).value),
        script=script,
    )
