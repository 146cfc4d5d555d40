"""Shared pieces of the four workloads: context, statistics, checking."""

from __future__ import annotations

import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

from repro import SequentialScanSearcher

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

#: ``--seconds`` the operation counts in ``batch.py`` and ``serve.py``
#: are stated for; every count scales with seconds / this, so a run
#: does the same work on every commit and measures for about
#: ``--seconds`` on the reference box.
NOMINAL_SECONDS = 8

#: ``--smoke`` divides every corpus by this.
SMOKE_CORPUS_DIVISOR = 20


@dataclass
class Context:
    """What one ``--workload`` run was asked to do."""

    seed: int
    seconds: float
    trace: bool
    smoke: bool
    out_dir: str = OUT_DIR

    @property
    def inputs_dir(self) -> str:
        return os.path.join(self.out_dir, "inputs")

    def corpus_size(self, full: int) -> int:
        return full // SMOKE_CORPUS_DIVISOR if self.smoke else full

    def count(self, at_nominal: float) -> int:
        """A fixed operation count, scaled to ``--seconds``."""
        return max(1, round(at_nominal * self.seconds / NOMINAL_SECONDS))

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}:{purpose}")


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    #: sample counts, op counts, ``exact_counts``: goes to result.json
    info: dict = field(default_factory=dict)


class SpeedProbe:
    """How fast the machine runs during a phase, next to a fixed reference.

    The box this runs on changes speed by tens of percent for seconds
    to minutes at a time; a run of a few seconds lands inside one such
    spell, medians over its samples cannot see it, and ten runs of the
    same code then differ by more than the bounds allow (README, "Why
    the numbers repeat", has the paired measurements). ``tick()`` times
    a fixed loop, half arithmetic and half reads scattered over 32 MiB
    (the program under test is pointer-chasing Python, and what slows
    it is as often the shared cache as the core). Workloads call it
    between operations all through the measured phase. ``factor()`` is
    the median tick over ``REFERENCE_SECONDS``: 1.0 at the reference
    speed, 1.5 when everything takes half as long again. The four
    timings of the measured phase are divided by it (rates multiplied),
    so they read as milliseconds at the reference speed; the raw values
    and the factor are kept in ``result.json``. ``REFERENCE_SECONDS``
    only fixes that unit: parent and change are scaled with the same
    constant, so their ratio does not depend on it.
    """

    REFERENCE_SECONDS = 0.010

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self._block = bytes(range(256)) * (1 << 17)

    def tick(self) -> None:
        block, mask = self._block, len(self._block) - 1
        at = len(self.ticks)
        started = time.perf_counter()
        for _ in range(42_000):
            at = (at * 1103515245 + block[at] + 1) & mask
        self.ticks.append(time.perf_counter() - started)

    def factor(self) -> float:
        return statistics.median(self.ticks) / self.REFERENCE_SECONDS


def end_to_end(set_up_seconds: float, rate: float, rung_ms,
               probe: SpeedProbe, info: dict) -> dict[str, float]:
    """The six end-to-end metrics; the timings of the measured phase
    scaled to the reference speed, their raw values noted in ``info``."""
    speed = probe.factor()
    info["speed_factor"] = speed
    info["raw"] = {"ops_per_s": rate, "rung1_ms": rung_ms[0],
                   "rung2_ms": rung_ms[1], "rung3_ms": rung_ms[2]}
    return {
        "setup_s": set_up_seconds,
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": rate * speed,
        "rung1_ms": rung_ms[0] / speed,
        "rung2_ms": rung_ms[1] / speed,
        "rung3_ms": rung_ms[2] / speed,
    }


def median(values) -> float:
    return statistics.median(values)


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(share * len(ordered))))
    return ordered[rank]


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical(matches) -> list[tuple[str, int]]:
    return sorted((match.string, match.distance) for match in matches)


def check_answers(answers, per_rung: int, rng: random.Random,
                  corpus_at) -> tuple[int, int]:
    """Compare a seeded sample of answers with the reference scan.

    ``answers`` holds, per rung, ``(query, k, matches, version)`` as
    the program returned them; ``corpus_at(version)`` gives the strings
    the answer had to be computed over. Returns ``(checked,
    mismatched)``. Runs after the clock stopped.
    """
    references: dict = {}
    checked = mismatched = 0
    for rung_answers in answers:
        sample = rng.sample(rung_answers, min(per_rung, len(rung_answers)))
        for query, k, matches, version in sample:
            if version not in references:
                references[version] = SequentialScanSearcher(
                    corpus_at(version), kernel="bitparallel")
            checked += 1
            expected = references[version].search(query, k)
            if canonical(expected) != canonical(matches):
                mismatched += 1
    return checked, mismatched
