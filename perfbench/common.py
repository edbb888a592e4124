"""Small helpers shared by the runner and the workload processes."""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (stores, reports, Chrome traces).
WORK_DIR = ROOT / ".perfbench"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb(pids) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        status = Path(f"/proc/{pid}/status").read_text(encoding="ascii")
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def cpu_times() -> dict[str, int]:
    """System-wide CPU ticks: total and ``steal`` (time a hypervisor gave
    this machine's virtual CPUs to someone else), from ``/proc/stat``."""
    fields = Path("/proc/stat").read_text(encoding="ascii").splitlines()[0].split()[1:]
    ticks = [int(value) for value in fields]
    return {"total": sum(ticks[:8]), "steal": ticks[7] if len(ticks) > 7 else 0}


def git_sha() -> str | None:
    """The checkout's commit, or ``None`` where it is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def host_fingerprint() -> dict:
    """What a result was measured on: CPUs, interpreter, NumPy, commit."""
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "git_sha": git_sha(),
    }
