"""In-memory span tracer that wraps library functions from the outside.

The benchmark never edits the program to trace it. :class:`Tracer` swaps a
timing wrapper in for each listed function or method, records one span per
call (name, start, end, parent id, error flag, a row count) in memory, and
puts every original object back on :meth:`Tracer.restore`.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`). Because a root span
encloses everything, the self times of all spans sum to the root's wall
time; the root's own self time is the unattributed residual.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

#: Spans written to a Chrome trace file at most; aggregates use all spans.
CHROME_SPAN_LIMIT = 200_000


@dataclass(frozen=True)
class Target:
    """One function to trace: ``owner.attr`` recorded as span ``name``.

    ``module`` is a dotted module path, or ``module:Class`` for a method.
    ``rows`` maps the call's (args, result) to a row count summed into the
    span (``None`` records no rows). ``flat`` spans are skipped while a span
    of the same name is already open, so a recursive call (a module calling
    its submodules) is timed once, at the outermost level.
    """

    module: str
    attr: str
    name: str
    rows: Callable | None = None
    flat: bool = False


class Tracer:
    """Records nested spans for wrapped callables; restores them exactly.

    Spans nest by call order on one thread; the benchmark's traced runs are
    single-threaded.
    """

    def __init__(self) -> None:
        # One row per span: [name, start, end, parent index, error, rows].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str) -> "_SpanScope":
        """A ``with`` block recorded as one span (used for root spans)."""
        return _SpanScope(self, name)

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, False, 0])
        self._stack.append(index)
        self._open[name] = self._open.get(name, 0) + 1
        return index

    def _exit(self, index: int, error: bool, rows: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = error
        span[5] = rows
        self._stack.pop()
        self._open[span[0]] -= 1

    def _wrapper(self, target: Target, original: Callable) -> Callable:
        tracer = self
        name = target.name
        rows_of = target.rows
        flat = target.flat

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if flat and tracer._open.get(name):
                return original(*args, **kwargs)
            index = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._exit(index, True)
                raise
            tracer._exit(index, False, rows_of(args, result) if rows_of else 0)
            return result

        return traced

    # ------------------------------------------------------------------
    # installing and removing wrappers
    # ------------------------------------------------------------------
    def install(self, targets: list[Target]) -> None:
        """Wrap every target; a module-level function is replaced in every
        loaded module that imported it by name, so ``from x import f``
        call sites are traced too."""
        for target in targets:
            owner_name, _, class_name = target.module.partition(":")
            owner = sys.modules.get(owner_name) or __import__(owner_name, fromlist=["_"])
            if class_name:
                cls = getattr(owner, class_name)
                raw = cls.__dict__[target.attr]
                function = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                wrapped = self._wrapper(target, function)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self._patch(cls, target.attr, wrapped)
                continue
            original = getattr(owner, target.attr)
            wrapped = self._wrapper(target, original)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if namespace is None or not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        # Read the raw slot (``__dict__``), not the attribute, so a
        # staticmethod or classmethod goes back exactly as it was.
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
        if not self.spans:
            return {"traceEvents": []}
        base = min(span[1] for span in self.spans)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - base) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent, "error": error, "rows": rows},
            }
            for index, (name, start, end, parent, error, rows) in enumerate(
                self.spans[:CHROME_SPAN_LIMIT]
            )
        ]
        return {"traceEvents": events, "truncated": max(0, len(self.spans) - CHROME_SPAN_LIMIT)}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


class _SpanScope:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_SpanScope":
        self._index = self._tracer._enter(self._name)
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self._tracer._exit(self._index, exc_type is not None)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def covered(intervals: list[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _error, _rows in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(children.get(index, []), start, end)
        for index, (_name, start, end, _parent, _error, _rows) in enumerate(spans)
    ]


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per-name totals: calls, self seconds, wall seconds, rows, errors."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _parent, error, rows = span
        entry = out.setdefault(
            name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "rows": 0, "errors": 0}
        )
        entry["calls"] += 1
        entry["self_s"] += own
        entry["wall_s"] += end - start
        entry["rows"] += rows
        entry["errors"] += int(error)
    return out


def under(spans: list[list], name: str, ancestor: str) -> list[list]:
    """Spans called ``name`` that have a span called ``ancestor`` above them."""
    out = []
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                out.append(span)
                break
            parent = spans[parent][3]
    return out
