"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one paper artifact through the experiment
registry, records the rendered report under ``benchmarks/results/`` and
echoes it to the terminal, so `pytest benchmarks/ --benchmark-only`
leaves the full set of reproduced tables and figures on disk.

``REPRO_SCALE`` (float, default 1.0) grows dataset and query sizes
toward the paper's original 400k/750k scale.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.experiment import ExperimentScale

#: Where rendered text reports land.
RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale for this benchmark run."""
    return ExperimentScale.from_env()


@pytest.fixture()
def emit(capsys):
    """Persist a report to results/<name>.txt and echo it live."""

    def _emit(name: str, report: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(report + "\n",
                                                 encoding="utf-8")
        with capsys.disabled():
            print(f"\n{report}\n")

    return _emit
