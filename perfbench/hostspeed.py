"""A fixed reference kernel that measures how fast the host is running now.

On a shared host the same op runs up to 1.5x slower for spells of 10 to
60 s, with CPU time tracking wall time: the cores run slower, our process is
not descheduled. A 22 s run sees only one or two such spells, so its raw
op rate moves with the host. ``run.py`` therefore times this kernel after
every op and scales the run's op rate by how slow the kernel ran against
``NOMINAL_S``.

Set-up time swings too, for minutes at a time, but mostly in starting an
interpreter and importing numpy (about three quarters of a set-up), which
the kernel does not follow. ``run.py`` times ``BARE_START`` next to each
set-up sample and scales set-up time by it instead.

The kernel mixes the three kinds of work horolab's ops do: interpreter
loops, numpy calls on small arrays (per-level and per-frame overhead) and
passes over arrays larger than a core's L2 cache (the quadrature and
enumeration arrays). It uses nothing from horolab, so a change to the
program never changes the kernel. Its arrays are allocated once and hold
8 MiB, so it adds a constant to peak RSS.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# about the median seconds one kernel() takes on the 2-core Xeon sandbox the
# benchmark was tuned on; only a scale, the same for every commit
NOMINAL_S = 0.1

# an interpreter that only imports numpy, and about its median seconds on
# the same sandbox; only a scale, the same for every commit
BARE_START = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
BARE_START_NOMINAL_S = 0.15

_LARGE = 1 << 19  # 4 MiB of float64, twice a core's L2 cache
_SMALL = 64


class Kernel:
    """The reference kernel; calling it runs one pass and returns its seconds."""

    def __init__(self) -> None:
        self.a = np.random.default_rng(12345).random(_LARGE)
        self.b = np.empty_like(self.a)

    def _interpreter(self) -> float:
        s = 0.0
        for i in range(300_000):
            s += (i * 7 % 13) * 0.5
        return s

    def _small_arrays(self) -> float:
        a = np.arange(_SMALL, dtype=float)
        for i in range(6_000):
            a = np.sqrt(a * 1.0001 + i)[::-1].copy()
        return float(a[0])

    def _large_arrays(self) -> float:
        s = 0.0
        for i in range(8):
            np.multiply(self.a, 1.5 + i, out=self.b)
            s += float(self.b.sum())
            self.b[:] = self.a[::-1]
            self.b.sort()
            s += float(self.b[i])
        return s

    def __call__(self) -> float:
        """Seconds one pass of the fixed kernel takes now."""
        t = time.perf_counter()
        self._interpreter()
        self._small_arrays()
        self._large_arrays()
        return time.perf_counter() - t
