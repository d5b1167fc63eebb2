"""The pinned environment every benchmark process runs in, and its record."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One thread per process: the workload loop is a single closed-loop client.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pinned_env(root: Path = ROOT) -> dict[str, str]:
    """os.environ with PYTHONPATH=src, one BLAS/OpenMP thread, no MINKDIM_BUDGET.

    The package is run from source, not installed, so ``python -m
    minkdim.cli`` is the entry point rather than a ``minkdim`` script.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("MINKDIM_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest(root: Path = ROOT) -> str:
    """sha256 over src/minkdim/*.py, so a run names the code it measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "minkdim").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path = ROOT) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(root: Path = ROOT) -> dict[str, str | int]:
    """Versions, hardware and code identity, from a child in the pinned env."""
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, mpmath, minkdim; "
         "print(numpy.__version__, mpmath.__version__, minkdim.__version__)"],
        cwd=root, env=pinned_env(root), capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    return {
        "git_sha": git_sha(root),
        "source_sha256_16": source_digest(root),
        "python": platform.python_version(),
        "numpy": versions[0],
        "mpmath": versions[1],
        "minkdim": versions[2],
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }
