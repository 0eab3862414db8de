"""Contention-corrected wall times for a shared machine.

On a small shared VM, other tenants slow every process alike: the same
deterministic stapy run was measured taking 1.0x to 2.2x its fastest time,
in episodes lasting from under a second to over a minute, with guest CPU
time equal to wall time (no steal is reported).  A whole benchmark run can
sit inside one such episode, so no statistic over the run's own samples
removes it.

The benchmark therefore probes the machine with a fixed kernel (plain Python
and small numpy calls, independent of stapy) right before and after every
timed step, and reports ``wall * REFERENCE_S / probe``: the wall time the
step would have taken at the reference machine's uncontended speed.  On a
quiet reference machine the factor is 1; the raw wall times are reported
beside the corrected ones.
"""

from __future__ import annotations

import time

import numpy as np

_X = np.linspace(0.0, 1.0, 32)

#: Uncontended wall seconds of one :func:`kernel_seconds` sample on the
#: reference machine: a 2-vCPU x86-64 VM (Intel Xeon, 2.0 GHz), CPython
#: 3.11.7, numpy 2.4.6; the minimum of several thousand samples.
REFERENCE_S = 1.34e-3

#: Kernel runs per probe around a step that spans many instances.
BURST = 10


def kernel_seconds() -> float:
    """Wall seconds of one run of the fixed probe kernel."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(400):
        acc += float((np.cos(_X * i) + 1.0).sum())
    return time.perf_counter() - start


def probe(samples: int = 1) -> float:
    """Mean wall seconds of ``samples`` kernel runs: the machine's current
    speed, averaged over about ``samples`` milliseconds."""
    return sum(kernel_seconds() for _ in range(samples)) / samples


def corrected(wall: float, before: float, after: float) -> float:
    """``wall`` at reference speed, given probes taken before and after it."""
    return wall * REFERENCE_S * 2.0 / (before + after)
