"""Host-speed calibration for timings on a shared host.

The host this benchmark was defined on alternates, for seconds to minutes
at a time, between phases in which the same pure-Python work takes up to
2x longer (see README.md). A fixed reference loop, timed just before and
just after each measured part, tracks those phases: over a 120 s series
the ratio of an 8 s snow-launch run to this loop moved by 1.4% between
the fastest and slowest quarters of the runs, while the run's own time
moved by 64%. So each part's time is also reported scaled to the loop's
nominal speed.

The loop mimics the simulation's inner work: a small object per step,
slip and Magic-Formula arithmetic through ``math``, a store into a numpy
array and a list append. It is part of the benchmark, not the program,
so a change to the program cannot change it.
"""

import gc
import math
from time import perf_counter

import numpy as np

REFERENCE_STEPS = 20000
# the loop's time in the host's fast phase where the benchmark was defined
REFERENCE_NOMINAL_S = 0.0172


class _State:
    __slots__ = ("v", "w")

    def __init__(self, v, w):
        self.v = v
        self.w = w


def _step(state, k):
    lam = (state.w - state.v) / max(state.w, state.v, 0.1)
    bl = 10.0 * lam
    mu = math.sin(1.9 * math.atan(bl - 0.97 * (bl - math.atan(bl))))
    return _State(state.v + 1e-4 * mu, state.w + 1e-4 * (1.0 - mu) + 1e-6 * k)


def reference_seconds():
    """Time of one run of the reference loop.

    The collector is paused, so that the loop's time does not depend on
    how many objects the program keeps alive; refcounting frees the loop's
    objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        state = _State(1.0, 1.1)
        trace = np.empty(REFERENCE_STEPS)
        log = []
        for k in range(REFERENCE_STEPS):
            state = _step(state, k)
            trace[k] = state.v
            log.append(k & 3)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def timed(fn, *args):
    """``fn(*args)``, its time in seconds, and the factor that scales a
    time measured then to the reference loop's nominal speed (the loop is
    timed just before and just after the call)."""
    before = reference_seconds()
    t0 = perf_counter()
    result = fn(*args)
    seconds = perf_counter() - t0
    after = reference_seconds()
    return result, seconds, REFERENCE_NOMINAL_S / (0.5 * (before + after))
