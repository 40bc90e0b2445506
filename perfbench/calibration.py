"""How fast the machine ran during a run, from three fixed reference kernels.

The benchmark runs on a small virtual machine that shares its host. There the
same pass over a workload takes up to 40% longer at one moment than at
another, in phases of half a minute or more, in user time and on either core
alike, so a run of 30 s cannot average the drift away. The benchmark
therefore times three reference kernels throughout each run, kernels that do
the three kinds of work the workloads do:

- ``exp`` of a 4 MiB complex array, memory-bound vector work like the plane
  waves of the correlator;
- ``scipy.special.loggamma`` on a batch of 8,192 points, the inner kernel of
  ``log_barnes_g``;
- a loop of 2,000 scalar ``cmath.exp`` calls, interpreter-bound work like the
  per-call overhead of small batches.

The slowdown over a stretch of the run is the geometric mean, over the three
kernels, of the kernel's mean time in the samples of that stretch divided by
its nominal time. The mean, not the median, because a pass's time adds up
the machine's speed over the whole pass, slow moments included. ``run.py``
divides each pass time by the slowdown of the samples taken during and
right after the pass, and the set-up time by that of the samples taken after
each set-up, so ``solve_s`` and ``setup_s`` read in seconds at the nominal
speed. The kernels are fixed benchmark code and never call shgff, so a
change to shgff moves the reported times and not the slowdown.
"""
from __future__ import annotations

import cmath
import contextlib
import math
import signal
import statistics
import time

import numpy as np
from scipy.special import loggamma

_WAVES = np.linspace(0.0, 10.0, 1 << 18) + 0j
_GAMMA = np.linspace(0.1, 10.0, 1 << 13) + 0.5j
_LOOP = 2000

# The kernels' median times in the benchmark's passes on a 2-core Intel Xeon
# (family 6, model 207) virtual machine at 2.1 GHz, numpy 2.4.6, scipy 1.17.1.
NOMINAL_S = (0.012, 0.0014, 0.0005)
# One sample of the three kernels takes about 14 ms, so sampling every half
# second costs under 3% of a pass; that time is taken out of the pass time.
INTERVAL_S = 0.5


def _waves():
    np.exp(1j * _WAVES)


def _gamma():
    loggamma(_GAMMA)


def _loop():
    acc = 0j
    for n in range(_LOOP):
        acc += cmath.exp(1j * n * 1e-3)


KERNELS = (_waves, _gamma, _loop)


def slowdown(samples):
    """Geometric mean over the kernels of mean sample time / nominal time."""
    return math.exp(statistics.fmean(
        math.log(statistics.fmean(s[k] for s in samples) / nominal)
        for k, nominal in enumerate(NOMINAL_S)))


class Calibration:
    """Reference-kernel samples of one run and the seconds they took."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._busy = False

    def sample(self):
        if self._busy:  # a timer signal that arrives during a sample
            return
        self._busy = True
        start = time.perf_counter()
        times = []
        for kernel in KERNELS:
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        self.samples.append(times)
        self.spent_s += time.perf_counter() - start
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every INTERVAL_S seconds of wall time, from a timer
        signal, while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
