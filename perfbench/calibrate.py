"""A fixed calibration kernel, timed after every op, that end-to-end times are scaled by.

The benchmark runs on a few cores of a shared host, whose speed for this
kind of code moves by a third or more from one minute to the next as other
tenants come and go.  Taking the fastest of many repeats removes bursts
shorter than a run, not slow stretches longer than one.  So the kernel
below, which uses no ``nbstates`` code, runs right after each timed op, in
the same process, and the op is reported by the median over its repeats of
``op time / kernel time * REFERENCE_S``: the time the op would take at the
speed at which the kernel takes ``REFERENCE_S``.  Set-up probes are scaled
the same way.  On a 2-vCPU Intel Xeon VM shared with other tenants, over
30-second windows of the same ``sweep`` and ``fock`` ops, this cut the
interquartile range of the op percentiles and of the total op time from
0.12-0.18 of their median (fastest repeat, unscaled) to 0.02-0.06.

A change to ``nbstates`` moves a scaled time as it moves the measured one,
since the kernel does not run the package.  A change that slows the kernel
as well, such as a thread left spinning, would be hidden from it; the meta
line carries the times as measured for that reason.

The kernel mixes what the package spends its time on: a pure-Python loop
of ``math.lgamma`` and ``math.exp`` terms, like the ``<a^k>`` series and the
truncation sizing, and small numpy array expressions, like the amplitude
builders.
"""
from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# The kernel takes about this long on a 2.1 GHz Intel Xeon vCPU at its
# fastest; scaled times read as seconds at that speed.
REFERENCE_S = 1.0e-3

_ARRAY = np.arange(1.0, 2000.0)


def kernel() -> float:
    s = 0.0
    for n in range(1, 3000):
        s += math.exp(math.lgamma(n + 0.5) - math.lgamma(n + 1.0) - 0.001 * n)
    for _ in range(10):
        s += float(np.exp(-_ARRAY / 500.0).sum())
    return s


def kernel_s() -> float:
    """Seconds one run of the kernel takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
