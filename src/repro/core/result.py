"""Result values: per-query matches and whole-batch result sets.

The paper's methodology revolves around comparing *result sets* across
approaches (section 3.1: every optimization must return results
identical to the base implementation). :class:`ResultSet` is that
comparable value: per query — in input order — the set of matched
strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence


@dataclass(frozen=True, order=True)
class Match:
    """One matched dataset string with its exact distance.

    Sort order is by string (the order result files use), then distance.
    """

    string: str
    distance: int


class ResultSet:
    """Matches for a batch of queries, comparable across approaches.

    Stores one row per executed query, preserving query order (the
    result-file order), with each row holding the matched strings as a
    sorted tuple of :class:`Match`.

    Two result sets are equal iff they ran the same queries in the same
    order and matched exactly the same strings — distances included,
    since a wrong distance with the right string still signals a kernel
    bug.
    """

    def __init__(self, queries: Sequence[str],
                 rows: Sequence[Sequence[Match]]) -> None:
        if len(queries) != len(rows):
            raise ValueError(
                f"{len(queries)} queries but {len(rows)} result rows"
            )
        self._queries = tuple(queries)
        self._rows = tuple(tuple(sorted(row)) for row in rows)

    @property
    def queries(self) -> tuple[str, ...]:
        """The executed queries, in order."""
        return self._queries

    @property
    def rows(self) -> tuple[tuple[Match, ...], ...]:
        """Per-query sorted matches, parallel to :attr:`queries`."""
        return self._rows

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[tuple[str, tuple[Match, ...]]]:
        return iter(zip(self._queries, self._rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self._queries == other._queries and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._queries, self._rows))

    def matches_for(self, index: int) -> tuple[Match, ...]:
        """Matches of the ``index``-th query."""
        return self._rows[index]

    def strings_for(self, index: int) -> tuple[str, ...]:
        """Matched strings of the ``index``-th query."""
        return tuple(match.string for match in self._rows[index])

    @property
    def total_matches(self) -> int:
        """Total matches over all queries."""
        return sum(len(row) for row in self._rows)

    def by_query(self) -> Mapping[str, tuple[Match, ...]]:
        """Query → its full :class:`Match` row (last row wins for
        repeated queries).

        This is the canonical mapping accessor of the unified request
        API: it keeps distances, so a consumer can verify or re-rank
        without re-running the search. Batch comparison should still
        use the full row structure (``==``), which preserves duplicate
        queries and order.
        """
        return dict(zip(self._queries, self._rows))

    def flat(self) -> tuple[Match, ...]:
        """All matches across all rows, deduplicated and sorted.

        The "one merged answer" view a service caller wants when the
        per-query breakdown is irrelevant. Duplicate (string, distance)
        pairs collapse; the same string at different distances (from
        different queries) stays distinct because the distance is part
        of the match identity.
        """
        return tuple(sorted({match for row in self._rows
                             for match in row}))

    def __repr__(self) -> str:
        return (
            f"ResultSet(queries={len(self._queries)}, "
            f"matches={self.total_matches})"
        )
