"""Machine description recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# Thread-count variables of the BLAS builds numpy ships with or links to.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# glibc's sysconf names for the data cache sizes (bits/confname.h).
_SC_CACHE = {"l1d": 188, "l2": 191, "l3": 194}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads(limit: int):
    """Cap the BLAS thread pools of this process and its children at
    `limit` threads, or at nproc when `limit` is 0 or larger.

    Must run before numpy is imported; an existing lower setting is kept.
    """
    cap = min(limit, nproc()) if limit > 0 else nproc()
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        keep = current.isdigit() and 0 < int(current) <= cap
        os.environ[var] = current if keep else str(cap)


def _cache_bytes() -> dict:
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        return {level: int(libc.sysconf(code)) for level, code in _SC_CACHE.items()}
    except (OSError, AttributeError):
        return {}


def _openblas_runtime() -> dict:
    """Thread count and build string of the OpenBLAS that numpy loaded."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return {"threads": threads(), "config": config().decode()}
    return {}


def machine_info(array_bytes: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "runtime": _openblas_runtime(),
            "thread_caps": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        },
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cache_bytes": _cache_bytes(),
        "platform": platform.platform(),
        "array_bytes": array_bytes,
    }
