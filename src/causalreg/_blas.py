"""Thread count of every OpenBLAS loaded in this process, through ctypes.

numpy and scipy may each map their own OpenBLAS build, each with its own
thread pool.  Study workers run with one BLAS thread: forked workers that
keep the parent's threads oversubscribe the cores, and a fixed count keeps
every reduction's order, hence every digit, the same on each path.  The
count is set in the calling process before a pool forks, and the workers
inherit it.  They never call a setter themselves: OpenBLAS's fork handler
stops its thread server in the child, and a later setter call there starts
a new server thread that busy-waits beside the jobs.  Where no OpenBLAS is
mapped (or /proc is missing) these functions do nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

# "{}" is "get" or "set"; OpenBLAS builds differ in prefix and suffix.
_SYMBOLS = (
    "openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "scipy_openblas_{}_num_threads64_",
)


def _openblas() -> dict[str, tuple[Callable[[], int], Callable[[int], None]]]:
    """(getter, setter) per loaded OpenBLAS library, by file name."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {
                line.split(None, 5)[-1].strip()
                for line in fh
                if "openblas" in line.lower()
            }
    except OSError:
        return {}
    found = {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _SYMBOLS:
            getter = getattr(lib, symbol.format("get"), None)
            setter = getattr(lib, symbol.format("set"), None)
            if getter is not None and setter is not None:
                getter.restype = ctypes.c_int
                setter.argtypes = [ctypes.c_int]
                found[Path(path).name] = (getter, setter)
                break
    return found


def blas_threads() -> dict[str, int]:
    """Current thread count of each loaded OpenBLAS, by library file name."""
    return {name: int(get()) for name, (get, _) in _openblas().items()}


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """One BLAS thread inside the block; the previous counts after it."""
    libs = list(_openblas().values())
    previous = [get() for get, _ in libs]
    for _, set_threads in libs:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(libs, previous):
            set_threads(count)
