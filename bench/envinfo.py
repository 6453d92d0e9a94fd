"""Record of the machine a run was measured on.  Only reads, never writes."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def steal_ticks():
    """Cumulative steal ticks of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[:1] == ["cpu"] and len(fields) > 8 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path):
    # Only the checkout's own repository: git would otherwise search the
    # directories above it.
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def start_record(root: Path) -> dict:
    import numpy

    return {
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "loadavg_start": list(os.getloadavg()),
        "steal_ticks_start": steal_ticks(),
    }


def finish_record(record: dict) -> dict:
    end = steal_ticks()
    start = record.pop("steal_ticks_start")
    record["steal_ticks_delta"] = None if end is None or start is None else end - start
    return record
