"""Machine-speed probe for timings on a machine whose speed drifts.

On a shared machine the CPU's speed drifts by up to half over tens of
seconds, so one code path timed a minute apart can differ by that much.
``probe()`` times a fixed kernel that does the kinds of work secache does
(interpreted loops, dict/tuple churn, small numpy arrays).  The benchmark
probes before and after every op and scales the op's wall time by
``NOMINAL_PROBE_S / probe`` (see ``normalise``): a time in seconds at one
fixed machine speed, so that speed drift cancels while a change in
secache's own work does not.  The probe runs outside every timed region.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's time on the machine the benchmark was defined on (2-vCPU
# x86-64 VM, Python 3.11, numpy 2.4) at its fast speed; it only sets the
# scale, so that normalised times read close to wall times there.
NOMINAL_PROBE_S = 0.0015
REPEATS = 3


def _kernel() -> float:
    s = 0
    for i in range(6000):
        s += i * i % 7
    d = {}
    for i in range(2500):
        d[(i, i % 13)] = i / 3.0
    vals = sorted(d.values(), reverse=True)
    a = np.arange(64.0)
    for _ in range(100):
        a = np.maximum(a * 0.5 + 1.0, a[::-1])
    return s + vals[0] + float(a.sum())


def probe() -> float:
    """Seconds the kernel takes now: the fastest of ``REPEATS`` runs."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def normalise(wall_s: float, before: float, after: float) -> float:
    """``wall_s`` scaled to the nominal machine speed, from the probes
    taken just before and just after it."""
    return wall_s * NOMINAL_PROBE_S / ((before + after) / 2)
