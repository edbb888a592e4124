"""Profiling and op-counting for the reproduction.

Two pieces:

* :data:`~repro.perf.registry.PERF` — a process-wide registry of scoped
  wall-clock spans and counters with near-zero overhead while disabled;
* :func:`~repro.perf.profile.profile_scenario` — per-phase breakdown
  (encode / train / speculate / attack / update) of one scenario run.

Same-host measurement with repeats and correctness gates lives outside
the package, in ``perfbench/``.
"""

from repro.perf.profile import PHASES, PhaseProfile, format_profile, profile_scenario
from repro.perf.registry import PERF, PerfRegistry

__all__ = [
    "PERF",
    "PerfRegistry",
    "PHASES",
    "PhaseProfile",
    "profile_scenario",
    "format_profile",
]
