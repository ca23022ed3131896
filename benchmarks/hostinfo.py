"""The environment a result was measured in, and a memory-bandwidth probe."""

from __future__ import annotations

import os
import platform
import time

# 4 x the 300 MiB L3 the development host reports, so the probe streams from
# memory; the paper-scale operator (4500 x 11325 float64) is 408 MB.
PROBE_BYTES = 1200 * 2**20
PROBE_COLS = 11325  # the paper-scale operator's row length, n(n+1)/2 at n = 150
PROBE_REPS = 3
PROBE_ALLOCS = 3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_bytes() -> int | None:
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def _blas(show_config) -> str:
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment() -> dict:
    """CPU, core count, numpy/scipy with their BLAS builds, thread settings."""
    import numpy
    import scipy
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": _blas(numpy.show_config),
        "scipy": scipy.__version__,
        "scipy_blas": _blas(scipy.show_config),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
    }


def stream_gbps() -> float:
    """Best rate, as STREAM reports it, of the operator's own kernels
    (row-major gemv and its transpose) over a PROBE_BYTES float64 array.  The
    rate of one allocation can be half that of the next, so the array is
    allocated PROBE_ALLOCS times, with PROBE_REPS timed passes of each kernel
    after an untimed one."""
    import numpy as np
    best = 0.0
    for _ in range(PROBE_ALLOCS):
        a = np.ones((PROBE_BYTES // (8 * PROBE_COLS), PROBE_COLS))
        v, u = np.ones(a.shape[1]), np.ones(a.shape[0])
        for rep in range(PROBE_REPS + 1):
            for fn in (lambda: a @ v, lambda: a.T @ u):
                start = time.perf_counter()
                fn()
                if rep:
                    best = max(best, a.nbytes / (time.perf_counter() - start) / 1e9)
        del a
    return best
