"""Schema validation for report artifacts: ``python -m repro.obs.validate``.

CI writes a live :class:`repro.obs.report.SearchReport` through the
CLI's ``--stats-output`` and validates it here against
:data:`repro.obs.report.REPORT_SCHEMA`; any JSON file that embeds
report dicts validates the same way. Exit status is 0 only when every
report in every file conforms and at least one report was found per
file — a producer that silently stopped writing reports is a failure,
not a pass.

With ``--events``, files are validated as JSON-lines **event logs**
instead (the ``repro search --events-out`` artifact): every line must
satisfy :func:`repro.obs.events.validate_event`, and a file with zero
events fails for the same silent-regression reason.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.obs.events import validate_event_lines
from repro.obs.report import validate_report


def iter_reports(document: Any, path: str = "$"
                 ) -> Iterator[tuple[str, dict]]:
    """Yield ``(json_path, report_dict)`` for every embedded report.

    A dict counts as a report candidate when it carries both
    ``schema_version`` and ``backend`` keys; nesting inside lists and
    dicts is searched recursively.
    """
    if isinstance(document, dict):
        if "schema_version" in document and "backend" in document:
            yield path, document
            return
        for key, value in document.items():
            yield from iter_reports(value, f"{path}.{key}")
    elif isinstance(document, list):
        for index, value in enumerate(document):
            yield from iter_reports(value, f"{path}[{index}]")


def validate_file(path: Path) -> list[str]:
    """All schema problems in one JSON (or JSON-lines) file."""
    problems: list[str] = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        return [f"{path}: unreadable ({error})"]
    try:
        documents: list[Any] = [json.loads(text)]
    except json.JSONDecodeError:
        documents = []
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                documents.append(json.loads(line))
            except json.JSONDecodeError as error:
                problems.append(f"{path}:{number}: not JSON ({error})")
    found = 0
    for document in documents:
        for where, report in iter_reports(document):
            found += 1
            for problem in validate_report(report):
                problems.append(f"{path} at {where}: {problem}")
    if not found:
        problems.append(f"{path}: no embedded SearchReport found")
    return problems


def validate_events_file(path: Path) -> list[str]:
    """All problems in one JSON-lines event-log file."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        return [f"{path}: unreadable ({error})"]
    seen, problems = validate_event_lines(
        text.splitlines(), where=str(path))
    if not seen and not problems:
        problems.append(f"{path}: no event lines found")
    return problems


def main(argv: Sequence[str] | None = None) -> int:
    """Validate every file given; print findings; return an exit code."""
    arguments = list(argv if argv is not None else sys.argv[1:])
    events_mode = "--events" in arguments
    if events_mode:
        arguments = [arg for arg in arguments if arg != "--events"]
    paths = [Path(arg) for arg in arguments]
    if not paths:
        print("usage: python -m repro.obs.validate [--events] "
              "FILE [FILE...]",
              file=sys.stderr)
        return 2
    failures = 0
    for path in paths:
        problems = validate_events_file(path) if events_mode \
            else validate_file(path)
        if problems:
            failures += 1
            for problem in problems:
                print(f"INVALID {problem}", file=sys.stderr)
        else:
            print(f"ok {path}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
