"""A clock that runs at the speed of a fixed reference loop.

The shared 2-vCPU host the benchmark was tuned on changes speed by 1.3-2.5x
for episodes from a second to several minutes (CPU time tracks wall time
through them, so nothing is stolen: the core itself runs slower). A wall
clock then measures the host as much as the program. ``RefClock`` samples
the host's speed every ``PERIOD`` seconds, from a SIGALRM handler that times
``reference()``, a fixed mix of the kinds of work the library does
(interpreted loops, small numpy ufuncs, small matrix products, object
churn, a sort, a Python-level JSON encode, an element-by-element Gram
loop). Between samples its time advances at ``REFERENCE_S`` over
the mean of the last ``WINDOW`` reference times, so its readings are
seconds on a host where ``reference()`` takes ``REFERENCE_S`` (about the
wall seconds of that host in its fast state). Time spent in the handler
does not count. On that host this cut the spread of single passes from
12-21% (coefficient of variation, over 5 minutes) to 3-6% on each workload.

The reference loop is the benchmark's own code and calls nothing in the
library, so a change to the library cannot speed it up.
"""
from __future__ import annotations

import io
import json
import signal
from time import perf_counter

import numpy as np

PERIOD = 0.05
WINDOW = 3
# Time of reference() on a 2-vCPU Intel Xeon (Python 3.11, numpy 2.4 with
# scipy-openblas, one BLAS thread) in its fast speed state.
REFERENCE_S = 1.2e-3

_VEC = np.arange(32.0)
_MAT = np.eye(16) * 0.5
_SORT = np.random.default_rng(0).standard_normal(4096)
_ROWS = [[float(i * 7 + j) / 3.0 for j in range(32)] for i in range(20)]
_VECTORS = np.random.default_rng(1).standard_normal((20, 4))


class _Item:
    def __init__(self, x):
        self.x = x

    def plus(self, y):
        return self.x + y


def reference():
    """About 1.2 ms of fixed work."""
    total = 0
    for i in range(1000):
        total += i * i
    a = _VEC
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    m = _MAT
    for _ in range(15):
        m = (m @ _MAT) + _MAT
    table, items = {}, []
    for i in range(250):
        item = _Item(i)
        table[i % 97] = item.plus(i)
        items.append((i, item.x))
    sorted(items, key=lambda t: -t[0])
    np.sort(_SORT * 1.0001)
    # json.dump, unlike dumps, runs the pure-Python encoder.
    json.dump(_ROWS, io.StringIO(), indent=2)
    g = np.empty((len(_VECTORS), len(_VECTORS)))
    for i in range(len(_VECTORS)):
        for j in range(i, len(_VECTORS)):
            g[i, j] = g[j, i] = float(np.dot(_VECTORS[i], _VECTORS[j]))
    return total


class RefClock:
    """Reference-speed clock; ``start`` before reading ``now``."""

    def __init__(self):
        self.ticks = 0
        self.handler_s = 0.0
        self._virtual = 0.0
        self._last = perf_counter()
        self._factor = 1.0
        self._recent = []

    def start(self):
        for _ in range(20):  # warm the reference loop up
            reference()
        self._recent = []
        for _ in range(WINDOW):
            start = perf_counter()
            reference()
            self._recent.append(perf_counter() - start)
        self._factor = REFERENCE_S * len(self._recent) / sum(self._recent)
        self._last = perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        start = perf_counter()
        self._virtual += (start - self._last) * self._factor
        reference()
        end = perf_counter()
        self._recent.append(end - start)
        del self._recent[:-WINDOW]
        self._factor = REFERENCE_S * len(self._recent) / sum(self._recent)
        self.handler_s += end - start
        self.ticks += 1
        self._last = perf_counter()

    def now(self):
        """Reference seconds since ``start`` (monotonic)."""
        while True:
            ticks = self.ticks
            value = self._virtual + (perf_counter() - self._last) * self._factor
            if ticks == self.ticks:  # no tick landed while reading
                return value
