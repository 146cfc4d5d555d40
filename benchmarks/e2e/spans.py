"""Benchmark-owned spans around calls into the layers' public functions.

Nothing under ``src/`` is edited: while a :class:`SpanRecorder` is
installed it replaces public callables of the layers (class methods and
module functions) with wrappers that record ``{name, start, end,
parent, op_id}`` in memory, and puts the originals back on exit. The
records are written once, when the run ends, as Chrome-trace JSON plus
a self-time budget table.

A span's name is ``<layer>.<function>``; the budget groups by layer.
The traced pass issues one operation at a time, so a span that starts
on a worker thread (the gateway's asyncio→thread hop does not carry
context variables) adopts the one open operation as its parent.
"""

from __future__ import annotations

import contextvars
import functools
import json
import threading
import time
from contextlib import contextmanager

_current: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_span", default=None)


class SpanRecorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []
        self._open_op: int | None = None
        self._op_id: str = ""

    # -- recording ---------------------------------------------------

    def _begin(self, name: str) -> tuple[int, contextvars.Token]:
        parent = _current.get()
        if parent is None:
            parent = self._open_op
        index = len(self.spans)
        self.spans.append({
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": parent, "op_id": self._op_id,
            "tid": threading.get_ident(),
        })
        return index, _current.set(index)

    def _end(self, index: int, token: contextvars.Token) -> None:
        self.spans[index]["end"] = time.perf_counter()
        _current.reset(token)

    @contextmanager
    def op(self, name: str, op_id: str):
        """The root span of one operation issued by the benchmark."""
        self._op_id = op_id
        index, token = self._begin(name)
        self.spans[index]["parent"] = None
        self._open_op = index
        try:
            yield
        finally:
            self._open_op = None
            self._end(index, token)
            self._op_id = ""

    def _wrap(self, function, name: str):
        begin, end = self._begin, self._end

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index, token = begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                end(index, token)

        return traced

    # -- patching ----------------------------------------------------

    def patch(self, owner, attribute: str, name: str) -> None:
        """Trace ``owner.attribute`` (a class or a module) as ``name``."""
        original = owner.__dict__[attribute]
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self._wrap(original, name))

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self, points):
        """Patch every ``(owner, attribute, name)`` for the block."""
        try:
            for owner, attribute, name in points:
                self.patch(owner, attribute, name)
            yield self
        finally:
            self.restore()

    # -- analysis ----------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus what its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start"], span["end"]))
        result = []
        for index, span in enumerate(self.spans):
            covered, edge = 0.0, span["start"]
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, edge), min(end, span["end"])
                if end > start:
                    covered += end - start
                    edge = end
            result.append(span["end"] - span["start"] - covered)
        return result

    def layer_budget(self, *, roots: tuple[str, ...] | None = None
                     ) -> dict[str, dict]:
        """Self seconds and call counts per layer.

        ``roots`` keeps only spans under operations with those names
        (set-up spans and operation spans share one recorder).
        """
        selves = self.self_times()
        keep = [True] * len(self.spans)
        if roots is not None:
            for index, span in enumerate(self.spans):
                parent = span["parent"]
                keep[index] = (span["name"] in roots if parent is None
                               else keep[parent])
        budget: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            if not keep[index]:
                continue
            layer = span["name"].split(".", 1)[0]
            row = budget.setdefault(layer, {"self_s": 0.0, "calls": 0})
            row["self_s"] += selves[index]
            row["calls"] += 1
        return budget

    def seconds_in(self, name: str) -> float:
        """Total seconds inside spans called ``name`` (outermost only)."""
        total = 0.0
        for span in self.spans:
            if span["name"] != name:
                continue
            parent = span["parent"]
            while parent is not None \
                    and self.spans[parent]["name"] != name:
                parent = self.spans[parent]["parent"]
            if parent is None:
                total += span["end"] - span["start"]
        return total

    def root_seconds(self, roots: tuple[str, ...]) -> float:
        return sum(span["end"] - span["start"] for span in self.spans
                   if span["parent"] is None and span["name"] in roots)

    # -- output ------------------------------------------------------

    def write_chrome_trace(self, path) -> None:
        origin = min((span["start"] for span in self.spans), default=0.0)
        events = [{
            "name": span["name"], "ph": "X", "pid": 1, "tid": span["tid"],
            "ts": (span["start"] - origin) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "args": {"span": index, "parent": span["parent"],
                     "op_id": span["op_id"]},
        } for index, span in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)


def render_budget(workload: str, budget: dict[str, dict],
                  root_seconds: float, wall_seconds: float,
                  operations: int) -> str:
    """The ``budget_<workload>.txt`` table.

    Self times of all spans sum to the root spans' total by
    construction; the residual is the measured wall the root spans do
    not cover (the benchmark's own loop between operations).
    """
    lines = [
        f"per-layer self time, workload {workload}, "
        f"{operations} traced operations",
        f"{'layer':<12}{'calls':>9}{'self_s':>12}{'share':>9}"
        f"{'us/op':>12}",
    ]
    for layer, row in sorted(budget.items(),
                             key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"{layer:<12}{row['calls']:>9}{row['self_s']:>12.6f}"
            f"{row['self_s'] / wall_seconds:>9.4f}"
            f"{row['self_s'] / operations * 1e6:>12.1f}")
    total = sum(row["self_s"] for row in budget.values())
    residual = wall_seconds - root_seconds
    lines += [
        f"{'sum of self':<21}{total:>12.6f}",
        f"{'root spans':<21}{root_seconds:>12.6f}",
        f"{'measured wall':<21}{wall_seconds:>12.6f}",
        f"{'residual':<21}{residual:>12.6f}"
        f"{residual / wall_seconds:>9.4f}",
    ]
    return "\n".join(lines) + "\n"
