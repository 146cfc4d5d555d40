"""Seeded inputs: corpora, fresh query sets, request streams, op scripts.

Everything here is a pure function of ``--seed``; the program under
test receives only the strings and requests built from it.
"""

from __future__ import annotations

import bisect
import os
import random

import numpy as np

from repro.data import (
    DNA_ALPHABET,
    city_alphabet,
    generate_city_names,
    generate_reads,
    read_strings,
    write_strings,
)
from repro.data.corruptions import apply_random_edits

GENERATORS = {"city": generate_city_names, "dna": generate_reads}
SYMBOLS = {"city": city_alphabet().symbols, "dna": DNA_ALPHABET.symbols}


def corpus_path(inputs_dir: str, kind: str, count: int, seed: int) -> str:
    return os.path.join(inputs_dir, f"{kind}-{count}-{seed}.txt")


def load_corpus(inputs_dir: str, kind: str, count: int,
                seed: int) -> list[str]:
    """The ``(kind, count, seed)`` corpus, generated once then cached."""
    path = corpus_path(inputs_dir, kind, count, seed)
    if os.path.exists(path):
        return read_strings(path)
    strings = GENERATORS[kind](count, seed=seed)
    os.makedirs(inputs_dir, exist_ok=True)
    partial = f"{path}.{os.getpid()}.part"
    write_strings(partial, strings)
    os.replace(partial, path)
    return strings


#: Candidate queries drawn per query handed out.
OVERSAMPLE = {"city": 4, "dna": 16}


class QuerySource:
    """Fresh perturbed queries whose cost repeats from batch to batch.

    A query is a random corpus string with ``0..k`` random edits, like
    :func:`repro.data.make_workload` builds them. What one such query
    costs depends mostly on one property of it: its length for city
    names (how deep the trie descent goes), and for reads the number
    of corpus strings within bag distance ``k`` of it (how many
    candidates survive the frequency filter: measured 3x between
    reads at k=16). An unstratified draw of a few dozen queries
    would put most of the run-to-run spread into the sample, not the
    program. So each batch draws several candidates per query, sorts
    them by that property and takes the ones at evenly spaced
    quantiles: every batch of a given size and ``k`` spans the same
    easy-to-hard range, with different strings. No query is handed
    out twice, so no memo or cache answers a repeat unless a workload
    asks for repeats itself.
    """

    def __init__(self, strings, kind: str, seed: int) -> None:
        self._strings = strings
        self._kind = kind
        self._symbols = SYMBOLS[kind]
        self._rng = random.Random(seed)
        self._seen: set[str] = set()
        self._counts = None
        if kind == "dna":
            self._counts = np.array(
                [[string.count(symbol) for symbol in self._symbols]
                 for string in strings], dtype=np.int32)

    def _hardness(self, query: str, k: int) -> int:
        if self._counts is None:
            return len(query)
        counts = np.array([query.count(symbol)
                           for symbol in self._symbols], dtype=np.int32)
        difference = self._counts - counts
        surplus = np.maximum(difference, 0).sum(axis=1)
        deficit = np.maximum(-difference, 0).sum(axis=1)
        return int((np.maximum(surplus, deficit) <= k).sum())

    def batch(self, count: int, k: int) -> list[str]:
        rng, strings = self._rng, self._strings
        wanted = count * OVERSAMPLE[self._kind]
        candidates: list[tuple[int, float, str]] = []
        for _ in range(100 * wanted):
            if len(candidates) == wanted:
                break
            base = strings[rng.randrange(len(strings))]
            query = apply_random_edits(base, len(candidates) % (k + 1),
                                       self._symbols, rng)
            if query and query not in self._seen:
                self._seen.add(query)
                candidates.append((self._hardness(query, k),
                                   rng.random(), query))
        if len(candidates) < wanted:
            raise RuntimeError(
                f"corpus too small for {wanted} unseen queries at k={k}")
        candidates.sort()
        return [candidates[(2 * slot + 1) * wanted // (2 * count)][2]
                for slot in range(count)]


class ZipfStream:
    """Endless Zipf(s)-ranked draws from a fixed pool of requests."""

    def __init__(self, pool: list, exponent: float, seed: int) -> None:
        self._pool = pool
        self._rng = random.Random(seed)
        total, self._cumulative = 0.0, []
        for rank in range(1, len(pool) + 1):
            total += rank ** -exponent
            self._cumulative.append(total)

    def __iter__(self):
        return self

    def __next__(self):
        point = self._rng.random() * self._cumulative[-1]
        return self._pool[bisect.bisect_left(self._cumulative, point)]


def request_pool(source: QuerySource, ladder: tuple[int, ...],
                 shares: tuple[int, ...], size: int,
                 rng: random.Random) -> list[tuple[str, int]]:
    """``size`` distinct ``(query, k)`` requests, ``shares`` per ten.

    Request ``i`` takes the rung that slot ``i % 10`` belongs to, so
    every stretch of the pool holds the rungs in the stated shares;
    within a rung the queries are shuffled, so that popularity (the
    pool's order) does not follow query length.
    """
    slots = [rung for rung, share in enumerate(shares)
             for _ in range(share)]
    assert len(slots) == 10, "shares are tenths"
    counts = [sum(1 for index in range(size) if slots[index % 10] == rung)
              for rung in range(len(ladder))]
    queues = [source.batch(count, k) for count, k in zip(counts, ladder)]
    for queue in queues:
        rng.shuffle(queue)
    return [(queues[slots[index % 10]].pop(), ladder[slots[index % 10]])
            for index in range(size)]
