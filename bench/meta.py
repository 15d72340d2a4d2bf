"""Run metadata: the machine, the toolchain and the code that was measured.

Absolute numbers differ across machines, so every result line carries this
record; only runs with matching metadata are comparable.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _git(root: Path) -> tuple:
    """(commit, dirty) of the checkout, or (None, None) outside a git work tree."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        if head.returncode != 0:
            return None, None
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def source_lines(root: Path) -> int:
    """Line count of the package sources, tracked next to the benchmark numbers."""
    total = 0
    for path in sorted((root / "src" / "cfmimo").glob("*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def run_metadata(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    commit, dirty = _git(root)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": _blas(),
        "git_commit": commit, "git_dirty": dirty,
        "src_cfmimo_lines": source_lines(root),
    }
