"""Scoped wall-clock timers and op counters for the reproduction.

The module exposes a single process-wide :data:`PERF` registry. Hot paths
guard every interaction behind ``PERF.enabled`` (a plain attribute read),
and :meth:`PerfRegistry.span` returns a shared null context manager when
disabled, so the instrumented code pays near-zero overhead unless a
profiling entry point (``pace-repro profile`` or ``perfbench/``)
switched the registry on.

The registry deliberately has no dependencies on the rest of the package
so that even the lowest layers (``repro.nn.tensor``, ``repro.db``) can
import it without cycles.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from contextlib import AbstractContextManager
from typing import Any


class _NullSpan(AbstractContextManager):
    """Shared do-nothing context manager returned when profiling is off."""

    __slots__ = ()

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """Times one ``with`` block and folds the result into the registry."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "PerfRegistry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._start
        registry = self._registry
        name = self._name
        registry.spans[name] = registry.spans.get(name, 0.0) + elapsed
        registry.span_counts[name] = registry.span_counts.get(name, 0) + 1


class PerfRegistry:
    """Aggregates named wall-clock spans, counters, and allocation stats.

    Attributes:
        enabled: master switch; hot paths must check this before touching
            any other attribute.
        spans: cumulative seconds per span name.
        span_counts: number of times each span was entered.
        counters: monotonically increasing named counters.
    """

    __slots__ = ("enabled", "spans", "span_counts", "counters", "_trace_allocations")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: dict[str, float] = {}  # safe: R015 per-process profiling telemetry; workers keep their own spans by design
        self.span_counts: dict[str, int] = {}  # safe: R015 per-process profiling telemetry; workers keep their own spans by design
        self.counters: dict[str, int] = {}  # safe: R015 per-process profiling telemetry; workers keep their own counters by design
        self._trace_allocations = False

    # ------------------------------------------------------------------
    # switching
    # ------------------------------------------------------------------
    def enable(self, trace_allocations: bool = False) -> None:
        self.enabled = True
        self._trace_allocations = trace_allocations
        if trace_allocations and not tracemalloc.is_tracing():
            tracemalloc.start()

    def disable(self) -> None:
        self.enabled = False
        if self._trace_allocations and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._trace_allocations = False

    def reset(self) -> None:
        self.spans.clear()
        self.span_counts.clear()
        self.counters.clear()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str) -> AbstractContextManager:
        """Scoped timer: ``with PERF.span("phase.train"): ...``."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def incr(self, name: str, amount: int = 1) -> None:
        """Bump a counter; no-op unless profiling is enabled."""
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def allocation_snapshot(self) -> dict[str, int] | None:
        """Current/peak traced allocation sizes in bytes, if tracing."""
        if not (self._trace_allocations and tracemalloc.is_tracing()):
            return None
        current, peak = tracemalloc.get_traced_memory()
        return {"current_bytes": int(current), "peak_bytes": int(peak)}

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready copy of everything recorded so far."""
        out: dict[str, Any] = {
            "spans": {k: self.spans[k] for k in sorted(self.spans)},
            "span_counts": {k: self.span_counts[k] for k in sorted(self.span_counts)},
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }
        allocations = self.allocation_snapshot()
        if allocations is not None:
            out["allocations"] = allocations
        return out


PERF = PerfRegistry(enabled=os.environ.get("REPRO_PERF", "") not in ("", "0"))  # safe: R016 telemetry is per-process; forked workers inherit the switch and never report spans back
