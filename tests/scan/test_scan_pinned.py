"""Pinned work counts and answers of the compiled scan.

The scan's ``scan.*`` counters are order-independent sums over the
length window, so they pin the select step exactly: any rewrite of the
select's bounds must reproduce them, along with the matches. The
cases are seeded: 20k generated city names at k=1..3 and 2k reads at
k=4/8/16, each with plain queries and with a symbol outside the
alphabet in every other query.

Each case pins the summed ``scan.candidates``, ``scan.freq_rejects``,
``scan.kernel_calls`` and ``scan.matches`` and a SHA-256 digest of every
query's sorted ``(string, distance)`` rows.

Reads have five symbols, so every symbol is its own group and the bag
bound is the per-symbol one the earlier vowel-vector scan used on DNA.
Five symbols also mean the corpus carries a trigram-group table, and
the select's second bound — shared trigrams, ``max(n, len) - 2 - 3k``
at least — rejects most of the rows the bag bound keeps. With the bag
bound alone the read counts were, as (candidates, freq_rejects,
kernel_calls, matches), plain / strangers:

* dna k=4: (12742, 12372, 370, 12) / (11634, 11267, 367, 12)
* dna k=8: (18576, 15599, 2977, 11) / (18770, 15793, 2977, 11)
* dna k=16: (19390, 6701, 12689, 13) / (19390, 6701, 12689, 13)

Candidates, matches and every digest are the same; ``kernel_calls``
fell 22x at k=4, 110x at k=8 and 1.3x at k=16, where 48 of a read's
98 trigrams may be lost.

City names have 120 symbols, so they carry no trigram table; they are
folded into 16 groups, where the vowel vector tracked ten symbols and
let far more rows through. Its counts on the same cases, plain /
strangers:

* city k=1: (57769, 40957, 16812, 36) / (58240, 41616, 16624, 23)
* city k=2: (110170, 43471, 66699, 405) / (111381, 44945, 66436, 120)
* city k=3: (138193, 23389, 114804, 1147) / (137077, 24274, 112803, 1136)

Candidates, matches and every digest are the same; ``kernel_calls``
fell 24-116x.
"""

import hashlib
from functools import lru_cache

import pytest

from repro.data.alphabet import city_alphabet
from repro.data.cities import generate_city_names
from repro.data.dna import generate_reads
from repro.data.workload import make_workload
from repro.scan.corpus import CompiledCorpus
from repro.scan.executor import scan_query

QUERIES = {"city": 20, "dna": 10}
STRANGERS = "#~"
COUNTERS = ("scan.candidates", "scan.freq_rejects", "scan.kernel_calls",
            "scan.matches")


@lru_cache(maxsize=None)
def dataset(kind: str) -> tuple[str, ...]:
    if kind == "city":
        return tuple(generate_city_names(20_000, seed=2013))
    return tuple(generate_reads(2_000, seed=2013))


@lru_cache(maxsize=None)
def corpus(kind: str) -> CompiledCorpus:
    return CompiledCorpus(dataset(kind))


def queries(kind: str, k: int, strangers: bool) -> tuple[str, ...]:
    symbols = city_alphabet().symbols if kind == "city" else "ACGT"
    found = make_workload(list(dataset(kind)), QUERIES[kind], k,
                          alphabet_symbols=symbols, seed=2013 + k).queries
    if strangers:
        # A stranger in every other query, at a position that varies.
        found = tuple(
            query[:i % len(query)] + STRANGERS[i % 2] + query[i % len(query):]
            if i % 2 else query
            for i, query in enumerate(found)
        )
    return found


def run(kind: str, k: int, strangers: bool) -> tuple[tuple, str]:
    counters: dict = {}
    digest = hashlib.sha256()
    for query in queries(kind, k, strangers):
        rows = [(m.string, m.distance)
                for m in scan_query(corpus(kind), query, k,
                                    counters=counters)]
        digest.update(repr((query, rows)).encode())
    return tuple(counters[name] for name in COUNTERS), \
        digest.hexdigest()[:16]


#: (kind, k, strangers) -> (candidates, freq_rejects, kernel_calls,
#: matches), digest of the rows.
PINNED = {
    ('city', 1, False):
        ((57769, 57613, 156, 36), '1188f652471bba24'),
    ('city', 1, True):
        ((58240, 58097, 143, 23), '9539e80b73dee126'),
    ('city', 2, False):
        ((110170, 108469, 1701, 405), '1164b24f1b2ba442'),
    ('city', 2, True):
        ((111381, 109712, 1669, 120), '42402afac88ad1c8'),
    ('city', 3, False):
        ((138193, 133320, 4873, 1147), 'c3bcc3daf639496c'),
    ('city', 3, True):
        ((137077, 132294, 4783, 1136), 'e051610492670cdc'),
    ('dna', 4, False):
        ((12742, 12725, 17, 12), 'f47677f4c6e98fa3'),
    ('dna', 4, True):
        ((11634, 11617, 17, 12), '50e560c939874ce9'),
    ('dna', 8, False):
        ((18576, 18549, 27, 11), '55b193e5ded43c50'),
    ('dna', 8, True):
        ((18770, 18743, 27, 11), 'c64d70431e49d9d4'),
    ('dna', 16, False):
        ((19390, 9329, 10061, 13), '6d41792c2d16c491'),
    ('dna', 16, True):
        ((19390, 10044, 9346, 13), 'e30029aee2b91c05'),
}


@pytest.mark.parametrize("case", sorted(PINNED), ids=lambda case: (
    f"{case[0]}-k{case[1]}{'-strangers' if case[2] else ''}"))
def test_counts_and_matches_are_pinned(case):
    assert run(*case) == PINNED[case]
