"""How a qelmsim process runs sweeps: OpenBLAS on one thread, freed heap kept.

The one module that calls into C libraries and reads ``/proc``. A sweep sums
every BLAS product on one thread, so its bytes depend on the numpy and
OpenBLAS build and kernel (``openblas()``), not on the thread count.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import os
import sys

# OpenBLAS starts its threads when numpy loads, and an idle one can spin for
# about 0.1 s of CPU; sweeps use one. So numpy loads with one thread, unless
# the caller chose a count or loaded numpy first. The variable leaves again,
# so the caller and child processes see their own environment.
_BLAS_THREAD_VARS = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
if "numpy" not in sys.modules and not _BLAS_THREAD_VARS & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

# Symbol (prefix, suffix) of the OpenBLAS builds numpy ships or links: the
# scipy-openblas64 wheel library first, then 64-bit and plain OpenBLAS.
_OPENBLAS_BUILDS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))
_OPENBLAS_CALLS = ("get_num_threads", "set_num_threads", "get_corename")

# Thread getter and setter, and the kernel picked for this CPU ("SkylakeX",
# say; OPENBLAS_CORETYPE overrides the pick), or None where it has no name.
OpenBlas = collections.namedtuple("OpenBlas", "get_threads set_threads core")


@functools.cache
def openblas() -> OpenBlas | None:
    """The OpenBLAS numpy loaded, found among the process's mapped files;
    None without OpenBLAS or where that list is unreadable (not Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            # address, perms, offset, device, inode, then a path that may hold spaces
            lines = [line.rstrip("\n") for line in fh if "openblas" in line.lower() and "/" in line]
    except OSError:
        return None
    for path in sorted({line.split(maxsplit=5)[5] for line in lines}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_BUILDS:
            get, put, core = (getattr(lib, prefix + call + suffix, None) for call in _OPENBLAS_CALLS)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                if core is not None:
                    core.argtypes, core.restype = [], ctypes.c_char_p
                return OpenBlas(get, put, core().decode() if core is not None else None)
    return None


# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def sweep_process() -> bool:
    """Set this process up to run sweeps for the rest of its life; True where
    ``mallopt`` was found. The command line and each pool worker call it.

    OpenBLAS runs one thread, so ``threads`` workers use ``threads`` cores,
    and freed heap is kept: under glibc's defaults each 0.5-1 MB product of
    an N=7 record is mapped and unmapped again, faulting its pages anew. Here
    blocks up to 4 MiB come from the heap and up to 256 MiB of freed heap
    stays. Both thresholds are set, as either alone turns off glibc's dynamic
    thresholds, which faults more than the defaults.
    """
    blas = openblas()
    if blas is not None:
        blas.set_threads(1)
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    return True


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore the caller's
    count, so a library caller keeps its own. Yields 1, or None when no
    OpenBLAS was found and BLAS runs as configured."""
    blas = openblas()
    if blas is None:
        yield None
        return
    before = blas.get_threads()
    blas.set_threads(1)
    try:
        yield 1
    finally:
        blas.set_threads(before)


def usable_cpus() -> int:
    """CPUs this process may run on; all of them where affinity is unknown."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1
