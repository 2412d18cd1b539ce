"""Fixed reference kernels that measure how fast the host runs right now.

The benchmark's host is shared: its speed drifts by tens of percent over
seconds and minutes as other work on the machine comes and goes, and the
drift moves a run's raw times by more than any bound a regression check
could use.  The worker therefore also times a kernel, which does not
depend on pgt, just before and after each op, and scales the op's time to
the kernel's nominal speed: time * NOMINAL_S / (median kernel unit time
around the op).  A change to pgt moves the scaled times exactly as it
moves the raw ones; a slow phase of the host moves both the op and the
kernel, and cancels.

Each workload has a kernel shaped like its own inner loops, so that
contention slows kernel and workload alike (KERNEL); set-up, which is
mostly the interpreter importing modules, is scaled by the python kernel:

  numpy   Python loops over int64/float64 vectors doing what trace_engine's
          sweep does per node: modular index arithmetic, a table lookup, a
          masked select and a scaled accumulate; on long vectors (the wide
          sweep) and on short ones, where call overhead dominates (deep)
  python  pure-Python integer arithmetic, tuples and dict updates, as in
          the scalar ideal walks and exact enumerations
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_P = 10007                      # table size (a prime), like a Legendre table
_TAB = (np.arange(_P, dtype=np.int64) * 31 % 3 - 1).astype(np.int8)
_LONG = np.arange(30000, dtype=np.int64) * 7919 % 65521
_SHORT = _LONG[:800].copy()


def _sweep(x: np.ndarray, nodes: int) -> float:
    acc = np.zeros(len(x))
    for k in range(1, nodes + 1):
        idx = (x * k + 17) % _P
        chi = _TAB[idx].astype(np.float64)
        chi = np.where(idx % 4 == 1, chi, -chi)
        np.add(acc, chi * (1.0 / k), out=acc)
    return float(acc.sum())


def numpy_unit() -> float:
    return _sweep(_LONG, 20) + _sweep(_SHORT, 400)


def python_unit() -> int:
    seen: dict = {}
    acc = 0
    for a in range(1, 301):
        for b in range(0, 101):
            n = a * a + b * b
            key = (n % 1009, (a * b) % 7)
            seen[key] = seen.get(key, 0) + (n * n + a) % 1000003
            acc = (acc + n * seen[key]) % 998244353
    return acc


UNITS = {"numpy": numpy_unit, "python": python_unit}
KERNEL = {"sweep": "numpy", "scalar": "python"}

# Median unit time, in seconds, on an idle Intel Xeon vCPU (Python 3.11,
# numpy 2.4): the speed that scaled times are quoted at.
NOMINAL_S = {"numpy": 0.0230, "python": 0.0240}


def sample(kernel: str, seconds: float) -> list:
    """Times of the kernel's unit, run back to back for `seconds` (at least
    three units)."""
    unit = UNITS[kernel]
    times = []
    end = time.perf_counter() + seconds
    while len(times) < 3 or time.perf_counter() < end:
        t0 = time.perf_counter()
        unit()
        times.append(time.perf_counter() - t0)
    return times


def speed_index(kernel: str, times: list) -> float:
    """Median kernel time over its nominal: 1.0 on an idle reference host,
    larger when the host runs slower."""
    return statistics.median(times) / NOMINAL_S[kernel]
