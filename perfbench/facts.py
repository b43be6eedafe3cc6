"""Machine facts written into every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

# Names under which OpenBLAS builds export their thread-count getter.
_BLAS_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process, by library file.

    Read through ctypes from the libraries numpy and scipy mapped; no
    thread variable is set or changed, so the count is the one the
    program runs with.
    """
    found: dict[str, int] = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in _BLAS_GETTERS:
            getter = getattr(handle, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                found[Path(lib).name] = int(getter())
                break
    return found


def _blas_library() -> str:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def machine_facts(root: Path) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_library": _blas_library(),
        "blas_threads": blas_threads(),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k.endswith("_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }
